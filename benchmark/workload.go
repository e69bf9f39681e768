package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/spider"
	"repro/internal/world"
)

// request is one generated HTTP request. The server only ever receives
// SQL (plus the Accept header and ?class= the flags select).
type request struct {
	SQL string
	// Ref is the LIMIT-free statement whose relation bounds this one;
	// empty when SQL itself is LIMIT-free and must match its reference.
	Ref string
	// Limit and Offset repeat the truncation of SQL (-1 / 0 when Ref is
	// empty), so the oracle can derive the expected cardinality.
	Limit, Offset int
	// Class is the traffic class the generator drew the statement from:
	// "exact" (repeat of a statement the warm-up already ran), "near"
	// (never-verbatim child of a cached parent) or "adhoc".
	Class  string
	Stream bool // Accept: application/x-ndjson
	Batch  bool // ?class=batch
}

// workload is one traffic mix: which server it runs against, how the
// server is warmed before the clock starts, and how its request list is
// generated from a seed.
type workload struct {
	Name string
	// Why records the reason the workload exists (BENCHMARK.json repeats
	// it in one line).
	Why string
	// CacheSize and ResultCacheSize override the server's prompt-cache
	// and result-cache capacities (0 = the server's defaults, 4096 and
	// 256).
	CacheSize, ResultCacheSize int
	// Routed starts the server on the repository's galois.yaml: two
	// backends, role routes and failover chains.
	Routed bool
	// PerSecond is the request count one second of the --seconds budget
	// buys, calibrated on the 2-core sandbox so a repetition's measured
	// phase lasts about seconds/repetitions. The count is fixed, not the
	// duration: cache hit ratios and the prompts a list costs then depend
	// on the list alone, never on how fast the build under test is.
	PerSecond int
	// WarmRestart gives the server a data directory, fills it, drains
	// the server with SIGTERM and restarts it on the same directory
	// before measuring.
	WarmRestart bool
	// Warmup lists the unmeasured statements set-up sends to the server
	// under measurement (after the warm restart, if any).
	Warmup func() []string
	// Fill lists the statements the first server generation of a
	// WarmRestart workload executes to populate the durable store.
	Fill func() []string
	// Generate builds the seeded request list.
	Generate func(seed int64, n int) []request
}

// The four traffic mixes. Each comment says why the workload exists.
func workloads() []workload {
	return []workload{
		{
			// The steady state of a dashboard: a small set of statements
			// repeated for ever. After the 46 first sightings every request
			// is an exact result-cache hit, so a request is HTTP + admission
			// + lex/parse + logical.Build + fingerprint + rescache
			// lookup/clone + JSON encode; optimizer, executor and LLM layers
			// do nothing. The serve layer is most of the cost.
			Name:      "hot_repeat",
			Why:       "Zipf(1.1) repeats of the 46 corpus statements: >=99.8% exact result-cache hits, so HTTP, parse, fingerprint and relation clone are the whole request",
			PerSecond: 10000,
			Generate:  genHotRepeat,
		},
		{
			// Never-seen analytical queries against a warm server: the fact
			// working set fits the prompt cache (the warm-up scans every
			// table), so fetch prompts hit and only boolean-filter prompts
			// reach the model; parse, the cost-based optimizer, the physical
			// executor and the scheduler do the work. The result cache runs
			// the other way round — miss, populate, evict (population >>
			// 256) — so a hit-path gain that taxes inserts shows here.
			Name:      "adhoc_plan",
			Why:       "templated never-seen statements on a server whose prompt cache holds every fact: planning, execution and result-cache insert/evict dominate",
			PerSecond: 1000,
			Warmup:    tableScans,
			Generate: func(seed int64, n int) []request {
				return genAdhoc(rand.New(rand.NewSource(seed)), n, "adhoc")
			},
		},
		{
			// First-contact traffic, the paper's own regime: the prompt
			// cache holds ~8% of the fact working set, the stand-in for a
			// real LLM's entity space dwarfing any cache. Every query sends
			// tens of prompts through router, resilient client, scheduler,
			// recorder, prompt builder and cleaner.
			Name:            "cold_scan",
			Why:             "the same templates with prompt cache 128 and result cache 16: tens of model calls per query, so per-prompt transport and scheduling overhead dominate",
			CacheSize:       128,
			ResultCacheSize: 16,
			PerSecond:       420,
			Generate: func(seed int64, n int) []request {
				// A different stream from adhoc_plan for the same seed.
				return genAdhoc(rand.New(rand.NewSource(seed^0x5ca1ab1e)), n, "adhoc")
			},
		},
		{
			// Every layer does a little: routed backends, subsumption
			// residuals, streaming frames, the batch band, store appends —
			// so a gain for one use that costs another use of the same
			// layer surfaces. It is also the only workload whose set-up
			// measures the durable store's warm load.
			Name:        "mixed_serving",
			Why:         "routed config and durable store after a warm restart: 50% exact repeats, 20% subsumed near-misses, 30% ad-hoc, 1/3 NDJSON streams, 1/4 batch class",
			Routed:      true,
			WarmRestart: true,
			PerSecond:   1800,
			Fill:        mixedFill,
			Generate:    genMixed,
		},
	}
}

// configPath is the routing declaration the Routed workloads serve.
const configPath = "galois.yaml"

// serverFlags renders the workload as galois-serve flags; dir is the
// repetition's data directory.
func (w workload) serverFlags(dir string) []string {
	var flags []string
	if w.CacheSize > 0 {
		flags = append(flags, "-cache-size", strconv.Itoa(w.CacheSize))
	}
	if w.ResultCacheSize > 0 {
		flags = append(flags, "-result-cache-size", strconv.Itoa(w.ResultCacheSize))
	}
	if w.Routed {
		flags = append(flags, "-config", configPath)
	}
	if w.WarmRestart {
		flags = append(flags, "-data-dir", dir)
	}
	return flags
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------- helpers

// zipfQuota splits n draws over k ranks in proportion to rank^-s by
// largest remainder, so the multiset of a list is the same for every
// seed and only its order is random: the run-to-run spread of a metric
// then measures the system, not the sampling.
func zipfQuota(n, k int, s float64) []int {
	w := make([]float64, k)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	quota := make([]int, k)
	type rem struct {
		i int
		f float64
	}
	rems := make([]rem, k)
	left := n
	for i := range w {
		exact := float64(n) * w[i] / sum
		quota[i] = int(exact)
		left -= quota[i]
		rems[i] = rem{i, exact - float64(quota[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].f > rems[b].f })
	for i := 0; i < left; i++ {
		quota[rems[i%k].i]++
	}
	return quota
}

// corpusByRank returns the 46 corpus statements in a fixed rank order
// that interleaves the query classes (a constant permutation, not the
// seed's: which statement is hot decides response sizes, and that must
// not change between seeds).
func corpusByRank() []string {
	qs := spider.Queries()
	out := make([]string, len(qs))
	for i := range qs {
		out[i] = qs[(i*17)%len(qs)].SQL // 17 is coprime to 46
	}
	return out
}

func shuffle(rng *rand.Rand, reqs []request) {
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
}

// ------------------------------------------------------------- hot_repeat

func genHotRepeat(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	ranked := corpusByRank()
	reqs := make([]request, 0, n)
	for rank, count := range zipfQuota(n, len(ranked), 1.1) {
		for i := 0; i < count; i++ {
			reqs = append(reqs, request{SQL: ranked[rank], Limit: -1, Class: "exact"})
		}
	}
	shuffle(rng, reqs)
	return reqs
}

// ------------------------------------------------------ ad-hoc templates

// tableSpec describes one LLM table for the statement templates.
type tableSpec struct {
	name, key string
	nums      []string // numeric attributes thresholds are drawn over
	group     string   // categorical attribute for GROUP BY
	cols      []string // every column, for the warm-up scan and parents
}

var llmTables = []tableSpec{
	{"country", "name", []string{"population", "area", "gdp", "independence_year"}, "continent",
		[]string{"name", "code", "continent", "population", "area", "gdp", "capital", "independence_year", "language", "currency"}},
	{"city", "name", []string{"population", "elevation", "founded_year"}, "country",
		[]string{"name", "country", "population", "mayor", "elevation", "founded_year"}},
	{"mayor", "name", []string{"age", "election_year"}, "party",
		[]string{"name", "city", "birth_date", "age", "election_year", "party"}},
	{"airport", "iata", []string{"passengers", "runways"}, "country",
		[]string{"iata", "name", "city", "country", "passengers", "runways"}},
	{"singer", "name", []string{"birth_year", "albums"}, "genre",
		[]string{"name", "country", "birth_year", "genre", "albums"}},
	{"stadium", "name", []string{"capacity", "opened_year"}, "country",
		[]string{"name", "city", "country", "capacity", "opened_year"}},
	{"mountain", "name", []string{"height"}, "mountain_range",
		[]string{"name", "country", "height", "mountain_range"}},
}

// joinSpec is one two-table join of the corpus's shape: left.fk =
// right.key, projecting the left key and one right attribute, filtered
// on a numeric attribute of the right side.
type joinSpec struct{ left, fk, right string }

var joins = []joinSpec{
	{"city", "country", "country"},
	{"airport", "city", "city"},
	{"stadium", "city", "city"},
	{"mountain", "country", "country"},
	{"singer", "country", "country"},
}

func specOf(table string) tableSpec {
	for _, t := range llmTables {
		if t.name == table {
			return t
		}
	}
	panic("benchmark: no table spec for " + table)
}

// tableScans is the adhoc_plan warm-up: one full scan per LLM table puts
// every (key, attribute) fact into the prompt cache.
func tableScans() []string {
	out := make([]string, len(llmTables))
	for i, t := range llmTables {
		out[i] = "SELECT " + strings.Join(t.cols, ", ") + " FROM " + t.name
	}
	return out
}

// attrRange is the ground-truth span of one numeric attribute; the
// thresholds of generated predicates are drawn inside it.
type attrRange struct{ lo, hi float64 }

var ranges = func() map[string]attrRange {
	w := world.Build()
	out := map[string]attrRange{}
	for _, t := range llmTables {
		rel := w.Relation(t.name)
		for _, a := range t.nums {
			idx := rel.Schema.IndexOf("", a)
			r := attrRange{math.Inf(1), math.Inf(-1)}
			for _, row := range rel.Rows {
				if f, ok := row[idx].Numeric(); ok {
					r.lo, r.hi = math.Min(r.lo, f), math.Max(r.hi, f)
				}
			}
			out[t.name+"."+a] = r
		}
	}
	return out
}()

// threshold renders the point u∈[0,1) of an attribute's range as a SQL
// literal: a whole number on wide ranges, two decimals on narrow ones so
// that thresholds stay distinct.
func threshold(table, attr string, u float64) string {
	r := ranges[table+"."+attr]
	x := r.lo + u*(r.hi-r.lo)
	if r.hi-r.lo > 5000 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.2f", x)
}

// adhocShape renders one statement shape with its thresholds at the
// points u and v ∈ [0,1) of their attributes' ranges.
type adhocShape func(u, v float64) string

// adhocShapes enumerates the (template, table, attribute) combinations in
// a fixed order. The four templates: single-predicate selection,
// two-predicate selection, filtered group-by aggregate, two-table join.
func adhocShapes() []adhocShape {
	var shapes []adhocShape
	ops := []string{">", "<"}
	n := 0
	for _, t := range llmTables {
		t := t
		for _, a := range t.nums {
			a := a
			op := ops[n%2]
			n++
			// Selection: key only, or key plus the filtered attribute.
			shapes = append(shapes, adhocShape(func(u, _ float64) string {
				return fmt.Sprintf("SELECT %s FROM %s WHERE %s %s %s", t.key, t.name, a, op, threshold(t.name, a, u))
			}))
			shapes = append(shapes, adhocShape(func(u, _ float64) string {
				return fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s %s %s", t.key, a, t.name, a, op, threshold(t.name, a, u))
			}))
			// Filtered group-by aggregate.
			agg := "COUNT(*)"
			if n%2 == 0 {
				agg = "AVG(" + a + ")"
			}
			shapes = append(shapes, adhocShape(func(u, _ float64) string {
				return fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s %s %s GROUP BY %s", t.group, agg, t.name, a, op, threshold(t.name, a, u), t.group)
			}))
		}
		// Two-predicate selection over each ordered attribute pair.
		for i, a := range t.nums {
			for j, b := range t.nums {
				if i == j {
					continue
				}
				a, b := a, b
				shapes = append(shapes, adhocShape(func(u, v float64) string {
					return fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s > %s AND %s < %s", t.key, a, t.name, a, threshold(t.name, a, u*0.6), b, threshold(t.name, b, 0.4+v*0.6))
				}))
			}
		}
	}
	for _, j := range joins {
		j := j
		l, r := specOf(j.left), specOf(j.right)
		for _, a := range r.nums {
			a := a
			shapes = append(shapes, adhocShape(func(u, _ float64) string {
				return fmt.Sprintf("SELECT x.%s, y.%s FROM %s x, %s y WHERE x.%s = y.%s AND y.%s > %s",
					l.key, a, l.name, r.name, j.fk, r.key, a, threshold(r.name, a, u))
			}))
		}
	}
	return shapes
}

// adhocRepeatShare is the share of ad-hoc requests that repeat an
// earlier statement verbatim (a user re-running a query).
const adhocRepeatShare = 0.025

// genAdhoc builds n ad-hoc requests. Instance i uses shape i mod S, and
// the k-th instance of a shape draws its threshold from the k-th of that
// shape's equal strata of [0,1) — the seed jitters the point inside the
// stratum and shuffles the order. Every seed therefore yields the same
// mix of shapes and selectivities (the costs a list adds up to barely
// move between seeds) while almost no statement text repeats.
func genAdhoc(rng *rand.Rand, n int, class string) []request {
	shapes := adhocShapes()
	per := (n + len(shapes) - 1) / len(shapes)
	reqs := make([]request, 0, n)
	for i := 0; i < n; i++ {
		k := i / len(shapes)
		u := (float64(k) + rng.Float64()) / float64(per)
		v := rng.Float64()
		reqs = append(reqs, request{SQL: shapes[i%len(shapes)](u, v), Limit: -1, Class: class})
	}
	shuffle(rng, reqs)
	// Verbatim repeats: a later position re-issues an earlier statement.
	for i := 0; i < int(adhocRepeatShare*float64(n)); i++ {
		to := 1 + rng.Intn(n-1)
		reqs[to].SQL = reqs[rng.Intn(to)].SQL
	}
	return reqs
}

// ---------------------------------------------------------- mixed_serving

// parent is one producer statement the mixed_serving fill executes; its
// cached relation answers the near-miss children by subsumption.
type parent struct {
	table string
	sql   string
	where string   // the parent's own conjunct ("" when unfiltered)
	cols  []string // projected columns, key first
	nums  []string // projected numeric columns (ORDER BY candidates)
}

func parents() []parent {
	ps := []parent{
		{table: "country", cols: []string{"name", "continent", "population", "gdp"}, nums: []string{"population", "gdp"}},
		{table: "city", cols: []string{"name", "country", "population", "elevation"}, nums: []string{"population", "elevation"}},
		{table: "mayor", cols: []string{"name", "city", "age", "party"}, nums: []string{"age"}},
		{table: "airport", cols: []string{"iata", "city", "passengers"}, nums: []string{"passengers"}},
		{table: "singer", cols: []string{"name", "genre", "albums"}, nums: []string{"albums"}},
		{table: "stadium", cols: []string{"name", "city", "capacity"}, nums: []string{"capacity"}},
		{table: "mountain", cols: []string{"name", "height", "mountain_range"}, nums: []string{"height"}},
		{table: "city", where: "population > 1000000", cols: []string{"name", "population"}, nums: []string{"population"}},
		{table: "country", where: "continent = 'Europe'", cols: []string{"name", "capital", "area"}, nums: []string{"area"}},
	}
	for i := range ps {
		ps[i].sql = "SELECT " + strings.Join(ps[i].cols, ", ") + " FROM " + ps[i].table
		if ps[i].where != "" {
			ps[i].sql += " WHERE " + ps[i].where
		}
	}
	return ps
}

// mixedFill is what the first server generation executes: the corpus and
// the subsumption parents. The drain persists their relations; the
// second generation warm-loads them.
func mixedFill() []string {
	out := corpusByRank()
	for _, p := range parents() {
		out = append(out, p.sql)
	}
	return out
}

// literal draws a 1–3 letter string for a key-column predicate; the
// space (18k literals × operators × projections × parents) is wide
// enough that most children are first sightings.
func literal(rng *rand.Rand) string {
	b := []byte{byte('A' + rng.Intn(26))}
	for i := rng.Intn(3); i > 0; i-- {
		b = append(b, byte('a'+rng.Intn(26)))
	}
	return string(b)
}

// child renders one never-verbatim statement the parent's plan subsumes:
// a narrower projection with a key-column predicate, ORDER BY … LIMIT k,
// COUNT(*) or DISTINCT — the BENCH_semcache.json shapes.
func child(rng *rand.Rand, p parent, kind int) request {
	key := p.cols[0]
	keyOps := []string{">", "<", ">=", "<=", "!="}
	pred := fmt.Sprintf("%s %s '%s'", key, keyOps[rng.Intn(len(keyOps))], literal(rng))
	where := " WHERE " + pred
	if p.where != "" {
		where = " WHERE " + p.where + " AND " + pred
	}
	proj := strings.Join(p.cols[:1+rng.Intn(len(p.cols)-1)], ", ")
	switch kind {
	case 0:
		return request{SQL: "SELECT " + proj + " FROM " + p.table + where, Limit: -1, Class: "near"}
	case 1:
		dir := []string{"ASC", "DESC"}[rng.Intn(2)]
		k := 1 + rng.Intn(20)
		ref := "SELECT " + proj + " FROM " + p.table + where
		return request{
			SQL: fmt.Sprintf("%s ORDER BY %s %s LIMIT %d", ref, p.nums[rng.Intn(len(p.nums))], dir, k),
			Ref: ref, Limit: k, Class: "near",
		}
	case 2:
		return request{SQL: "SELECT COUNT(*) FROM " + p.table + where, Limit: -1, Class: "near"}
	default:
		return request{SQL: "SELECT DISTINCT " + p.cols[1] + " FROM " + p.table + where, Limit: -1, Class: "near"}
	}
}

func genMixed(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	nExact, nNear := n/2, n/5
	reqs := make([]request, 0, n)

	// 50%: Zipf exact repeats of what the warm restart loaded.
	ranked := mixedFill()
	for rank, count := range zipfQuota(nExact, len(ranked), 1.1) {
		for i := 0; i < count; i++ {
			reqs = append(reqs, request{SQL: ranked[rank], Limit: -1, Class: "exact"})
		}
	}
	// 20%: near-miss children, parents and shapes in rotation.
	ps := parents()
	for i := 0; i < nNear; i++ {
		reqs = append(reqs, child(rng, ps[i%len(ps)], (i/len(ps))%4))
	}
	// 30%: ad-hoc misses.
	reqs = append(reqs, genAdhoc(rng, n-nExact-nNear, "adhoc")...)
	shuffle(rng, reqs)

	// Delivery flags are independent of the statement class: exactly one
	// request in three streams, one in four runs in the batch band, at
	// positions the seed picks.
	for i, p := range rng.Perm(n) {
		reqs[p].Stream = i%3 == 0
	}
	for i, p := range rng.Perm(n) {
		reqs[p].Batch = i%4 == 0
	}
	return reqs
}

// ------------------------------------------------------------ list shares

// listShares describes a generated list: what the output records per
// workload so a reader can see which traffic the numbers belong to.
type listShares struct {
	Requests       int
	Distinct       float64 // distinct statements ÷ requests
	VerbatimRepeat float64 // requests whose statement appeared earlier ÷ requests
	Exact          float64
	Near           float64
	Adhoc          float64
	Stream         float64
	Batch          float64
}

func sharesOf(reqs []request) listShares {
	seen := map[string]bool{}
	var s listShares
	n := float64(len(reqs))
	for _, r := range reqs {
		if seen[r.SQL] {
			s.VerbatimRepeat++
		}
		seen[r.SQL] = true
		switch r.Class {
		case "exact":
			s.Exact++
		case "near":
			s.Near++
		default:
			s.Adhoc++
		}
		if r.Stream {
			s.Stream++
		}
		if r.Batch {
			s.Batch++
		}
	}
	s.Requests = len(reqs)
	s.Distinct = float64(len(seen)) / n
	s.VerbatimRepeat /= n
	s.Exact /= n
	s.Near /= n
	s.Adhoc /= n
	s.Stream /= n
	s.Batch /= n
	return s
}
