package main

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 99.9: 100, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestHighestPercentile(t *testing.T) {
	for n, want := range map[int]float64{
		100000: 99.99, 99999: 99.9, 10000: 99.9, 9999: 99,
		1000: 99, 999: 95, 200: 95, 199: 90, 100: 90, 99: 75, 40: 75, 39: 50, 5: 50,
	} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// is how the contract defines a metric's spread.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3.0, 1.0, 4.0, 1.5, 9.0], n=4) == [1.25, 3.0, 6.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1.5, 9})
	if q1 != 1.25 || q2 != 3 || q3 != 6.5 {
		t.Errorf("quartiles = %v %v %v, want 1.25 3 6.5", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "llm.complete", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "llm.complete", Start: 30, End: 60},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "llm.complete", Start: 90, End: 120}, // outlives the parent
		{ID: 5, Parent: 3, Name: "inner", Start: 35, End: 45},
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40, 2: 30, 3: 20, 4: 30, 5: 10, 6: 7} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := unclippedModelTime(spans); got != 80 {
		t.Errorf("unclippedModelTime = %d, want 80 (10–60 and 90–120)", got)
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var rec *recorder
	id := rec.begin("x", 0, 0)
	rec.setCurrent(1, id)
	rec.end(id)
	if req, parent := rec.current(); req != 0 || parent != 0 {
		t.Errorf("nil recorder has a current span: %d %d", req, parent)
	}
}

func TestStatsDelta(t *testing.T) {
	var before, after serverStats
	before.QueriesServed, after.QueriesServed = 7, 107
	before.ResultCacheHits, after.ResultCacheHits = 3, 53
	before.ResultCacheEntries, after.ResultCacheEntries = 40, 46
	before.CacheMisses, after.CacheMisses = 1000, 1500
	before.MaxActive, after.MaxActive = 1, 2
	type backend = struct {
		Name    string `json:"name"`
		Prompts int64  `json:"prompts"`
	}
	before.Backends = []backend{{"cheap", 10}, {"strong", 5}}
	after.Backends = []backend{{"cheap", 110}, {"strong", 25}}
	before.Persistence.WarmRelations, after.Persistence.WarmRelations = 55, 55
	after.Resilience = make([]struct {
		Counters struct {
			Retries int64 `json:"retries"`
			Faults  int64 `json:"faults"`
		} `json:"counters"`
	}, 2)
	after.Resilience[0].Counters.Retries, after.Resilience[1].Counters.Retries = 2, 3

	d := delta(flatten(before), flatten(after))
	for k, want := range map[string]float64{
		"serve.queries_served":       100, // cumulative: after − before
		"rescache.exact_hits":        50,
		"llm.cache_misses":           500,
		"llm.backend_prompts":        120,
		"llm.backend_prompts.cheap":  100,
		"llm.backend_prompts.strong": 20,
		"llm.retries":                5,  // summed over endpoints
		"rescache.entries_end":       46, // gauges: the end value
		"serve.max_active":           2,
		"store.warm_relations":       55,
	} {
		if d[k] != want {
			t.Errorf("delta[%s] = %v, want %v", k, d[k], want)
		}
	}
	if got := ratio(3, 1); got != 0.75 {
		t.Errorf("ratio(3,1) = %v", got)
	}
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0,0) = %v", got)
	}
}

func TestDecodeNDJSON(t *testing.T) {
	good := `{"type":"header","columns":["name","population"],"types":["TEXT","INT"],"cached":"subsumed"}
{"type":"row","cells":["Tokyo","37400068"],"vt_ms":812.5}
{"type":"row","cells":["Delhi","28514000"],"vt_ms":990}
{"type":"stats","row_count":2,"stats":{"prompts":3,"prompt_tokens":40,"completion_tokens":2,"simulated_latency_ms":990}}
`
	a, err := decodeNDJSON(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 2 || a.Rows[1][0] != "Delhi" || a.Cached != "subsumed" || a.Stats.Prompts != 3 || a.FirstRowVTMS != 812.5 {
		t.Errorf("decoded %+v", a)
	}
	lines := strings.SplitAfter(good, "\n")
	for name, stream := range map[string]string{
		"no stats frame":       strings.Join(lines[:3], ""),
		"error frame":          strings.Join(lines[:2], "") + `{"type":"error","error":"boom"}` + "\n",
		"frame after terminal": good + lines[1],
		"row before header":    lines[1] + lines[0] + lines[3],
		"wrong row count":      lines[0] + lines[1] + lines[3],
		"not JSON":             lines[0] + "row?\n",
		"empty":                "",
	} {
		if _, err := decodeNDJSON(strings.NewReader(stream)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	b, err := decodeBuffered([]byte(`{"columns":["n"],"rows":[["1"]],"row_count":1,"cached":false,"stats":{"prompts":9}}`))
	if err != nil || b.Cached != "" || b.Stats.Prompts != 9 || b.FirstRowVTMS != -1 {
		t.Errorf("buffered: %+v, %v", b, err)
	}
	if _, err := decodeBuffered([]byte(`{"columns":["n"],"rows":[["1"]],"row_count":2}`)); err == nil {
		t.Error("buffered response with a wrong row_count decoded without error")
	}
}

func TestProcParsers(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	line := "4242 (galois (serve) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 123 77 0 0 20 0 9 0 1000 1 2 3"
	cpu, err := parseProcStat(line)
	if err != nil || cpu != 2*time.Second {
		t.Errorf("parseProcStat = %v, %v; want 2s (123+77 ticks)", cpu, err)
	}
	if _, err := parseProcStat("4242 (x) S 1 2"); err == nil {
		t.Error("short stat line parsed")
	}
	mb, err := parseVmHWM("Name:\tgalois-serve\nVmPeak:\t  999 kB\nVmHWM:\t   16384 kB\nVmRSS:\t 1 kB\n")
	if err != nil || mb != 16 {
		t.Errorf("parseVmHWM = %v, %v; want 16", mb, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
}

// The request list is a pure function of the seed.
func TestGeneratorIsSeeded(t *testing.T) {
	for _, w := range workloads() {
		a := fmt.Sprintf("%+v", w.Generate(7, 2000))
		if b := fmt.Sprintf("%+v", w.Generate(7, 2000)); a != b {
			t.Errorf("%s: the same seed gave two different lists", w.Name)
		}
		if c := fmt.Sprintf("%+v", w.Generate(8, 2000)); a == c {
			t.Errorf("%s: two seeds gave the same list", w.Name)
		}
		if got := len(w.Generate(7, 2000)); got != 2000 {
			t.Errorf("%s: %d requests, want 2000", w.Name, got)
		}
	}
	// cold_scan draws from another stream than adhoc_plan.
	adhoc, _ := workloadByName("adhoc_plan")
	cold, _ := workloadByName("cold_scan")
	if reflect.DeepEqual(adhoc.Generate(7, 500), cold.Generate(7, 500)) {
		t.Error("adhoc_plan and cold_scan share a list for the same seed")
	}
}

// The shares the workloads' descriptions promise hold for every seed.
func TestGeneratorShares(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 0.005 }
	for seed := int64(1); seed <= 5; seed++ {
		for _, w := range workloads() {
			s := sharesOf(w.Generate(seed, 3000))
			switch w.Name {
			case "hot_repeat":
				if got := s.Distinct * 3000; got != 46 || s.Exact != 1 {
					t.Errorf("hot_repeat seed %d: %.0f distinct statements, exact share %v", seed, got, s.Exact)
				}
			case "adhoc_plan", "cold_scan":
				if s.Distinct < 0.70 || s.VerbatimRepeat >= 0.03 || s.Adhoc != 1 || s.Stream != 0 || s.Batch != 0 {
					t.Errorf("%s seed %d: %+v", w.Name, seed, s)
				}
			case "mixed_serving":
				if !near(s.Exact, 0.50) || !near(s.Near, 0.20) || !near(s.Adhoc, 0.30) || !near(s.Stream, 1.0/3) || !near(s.Batch, 0.25) {
					t.Errorf("mixed_serving seed %d: %+v", seed, s)
				}
			}
		}
	}
	// Zipf quotas: every rank is present, the head is hottest, and the
	// quotas add up.
	q := zipfQuota(3000, 46, 1.1)
	sum := 0
	for i, c := range q {
		sum += c
		if c == 0 || (i > 0 && c > q[i-1]) {
			t.Errorf("zipfQuota rank %d has %d draws (previous %d)", i+1, c, q[max(i-1, 0)])
		}
	}
	if sum != 3000 {
		t.Errorf("zipfQuota adds up to %d", sum)
	}
}

// Near-miss children must never repeat a statement the fill ran, and a
// truncated child must name its LIMIT-free reference.
func TestNearMissChildren(t *testing.T) {
	filled := map[string]bool{}
	for _, sql := range mixedFill() {
		filled[sql] = true
	}
	for _, r := range genMixed(3, 3000) {
		if r.Class != "near" {
			continue
		}
		if filled[r.SQL] {
			t.Errorf("child %q repeats a filled statement verbatim", r.SQL)
		}
		if limited := strings.Contains(r.SQL, " LIMIT "); limited != (r.Ref != "") || (limited && !strings.HasPrefix(r.SQL, r.Ref)) {
			t.Errorf("child %q has reference %q", r.SQL, r.Ref)
		}
	}
}

func TestOracleChecks(t *testing.T) {
	vr := variant{card: 4, rows: map[string]int{"a": 2, "b": 1, "c": 1}}
	for _, c := range []struct {
		rows          []string
		limit, offset int
		want          bool
	}{
		{[]string{"a", "c"}, 2, 0, true},
		{[]string{"a", "a", "b"}, 3, 0, true},
		{[]string{"a", "a", "a"}, 3, 0, false}, // more copies than the reference holds
		{[]string{"a", "d"}, 2, 0, false},      // a row the reference lacks
		{[]string{"a"}, 2, 0, false},           // too few
		{[]string{"b", "c"}, -1, 2, true},      // OFFSET without LIMIT
		{[]string{}, 5, 9, true},               // OFFSET past the end
		{[]string{"a", "b", "c", "a"}, 10, 0, true},
	} {
		if got := truncationOf(c.rows, vr, c.limit, c.offset); got != c.want {
			t.Errorf("truncationOf(%v, LIMIT %d OFFSET %d) = %v, want %v", c.rows, c.limit, c.offset, got, c.want)
		}
	}
	// Row order is open for the generated LIMIT-free statements.
	if hashRelation([]string{"n"}, []string{"x", "y"}) != hashRelation([]string{"n"}, []string{"y", "x"}) {
		t.Error("hashRelation depends on row order")
	}
	if hashRelation([]string{"n"}, []string{"x", "y"}) == hashRelation([]string{"n"}, []string{"x", "x"}) {
		t.Error("hashRelation ignores row content")
	}
	keys, err := choicePoints("SELECT x.name, y.gdp FROM city x, country y WHERE x.country = y.name AND y.gdp > 1500 AND x.name < 'M'")
	if err != nil || !reflect.DeepEqual(keys, []string{"y.gdp > 1500", "x.name < 'm'"}) {
		t.Errorf("choicePoints = %q, %v", keys, err)
	}
}

// BENCHMARK.json must declare exactly what the code emits, inside the
// limits the contract sets.
func TestBenchmarkFileInStep(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(bf.Paths, []string{"benchmark"}) {
		t.Errorf("command %q paths %q", bf.Command, bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(ws))
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if w.Name != ws[i].Name || w.Why != ws[i].Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: declared %q / %q", i, w.Name, w.Why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(bf.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range bf.EndToEnd {
		unique(m.Name)
		if (metricDef{m.Name, m.Unit, m.Better}) != endToEnd[i] || !unit.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %d: declared %+v, implemented %+v", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		unique(m.Name)
		if (metricDef{m.Name, m.Unit, m.Better}) != perLayer[i] || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: declared %+v, implemented %+v", i, m, perLayer[i])
		}
	}
}
