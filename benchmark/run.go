package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// repetitions is how many fresh servers one run measures. Wall and CPU
// metrics are the median over them: on a shared 2-core box single
// phases of identical code differ by up to a quarter, and a median of
// short phases on fresh processes resists a noisy neighbour better than
// one long phase does.
const repetitions = 5

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// repetition is what one fresh server contributed.
type repetition struct {
	setup    time.Duration
	phase    phase
	cpu      time.Duration
	peakRSS  float64
	counts   counters
	diskSize int64 // bytes under the data directory after the drain
}

// runResult is one run of one workload.
type runResult struct {
	workload  string
	kind      string // "end to end" or "traced"
	server    string // the server flags in force
	shares    listShares
	attempted int
	failed    int
	failures  []string // first few, for the human
	metrics   map[string]metric
	// violations are broken invariants other than wrong answers: lost
	// requests, prompt accounting that does not add up, a run the box
	// could not carry.
	violations []string
}

// settings is what every run of the process shares.
type settings struct {
	serverBin string
	clients   int
	scale     float64 // multiplies every request count (smoke: tiny)
	oracle    *oracle
}

// newResult starts the record of one run over reqs.
func newResult(w workload, kind string, reqs []request) *runResult {
	flags := "defaults"
	if f := w.serverFlags("<dir>"); len(f) > 0 {
		flags = strings.Join(f, " ")
	}
	return &runResult{workload: w.Name, kind: kind, server: flags, shares: sharesOf(reqs), metrics: map[string]metric{}}
}

// requestCount is the fixed length of a repetition's list.
func requestCount(w workload, seconds int, scale float64) int {
	n := int(float64(w.PerSecond) * float64(seconds) / repetitions * scale)
	if n < 50 {
		n = 50
	}
	return n
}

// shapesOf assigns every distinct (SQL, stream) pair an id.
func shapesOf(reqs []request) []int {
	type shape struct {
		sql    string
		stream bool
	}
	ids := map[shape]int{}
	out := make([]int, len(reqs))
	for i, r := range reqs {
		k := shape{r.SQL, r.Stream}
		id, ok := ids[k]
		if !ok {
			id = len(ids)
			ids[k] = id
		}
		out[i] = id
	}
	return out
}

// setUp brings up the server a repetition measures and returns the
// set-up time a user would wait: exec → first 200 on /healthz, plus the
// workload's unmeasured warm-up (for a WarmRestart workload that
// includes the fill, the drain and the restart).
func setUp(ctx context.Context, cfg *settings, w workload, dir string) (*server, time.Duration, error) {
	flags := w.serverFlags(dir)
	begin := time.Now()
	srv, err := startServer(ctx, cfg.serverBin, flags)
	if err != nil {
		return nil, 0, err
	}
	if w.WarmRestart {
		if err := sendAll(srv.base, w.Fill()); err != nil {
			srv.kill()
			return nil, 0, err
		}
		if err := srv.drain(); err != nil {
			return nil, 0, err
		}
		if srv, err = startServer(ctx, cfg.serverBin, flags); err != nil {
			return nil, 0, err
		}
	}
	if w.Warmup != nil {
		if err := sendAll(srv.base, w.Warmup()); err != nil {
			srv.kill()
			return nil, 0, err
		}
	}
	return srv, time.Since(begin), nil
}

// measure runs one repetition: fresh server, warm-up, the closed-loop
// replay between two readings of /stats and /proc, then a clean drain.
func measure(ctx context.Context, cfg *settings, w workload, reqs []request, shapes []int, clients int) (*repetition, error) {
	dir, err := os.MkdirTemp(buildDir, "data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	srv, setup, err := setUp(ctx, cfg, w, dir)
	if err != nil {
		return nil, err
	}
	rep := &repetition{setup: setup}
	stop := func(err error) (*repetition, error) {
		srv.kill()
		return nil, err
	}
	st0, err := srv.stats()
	if err != nil {
		return stop(err)
	}
	p0, err := srv.proc()
	if err != nil {
		return stop(err)
	}
	rep.phase = replay(srv.base, reqs, shapes, clients)
	p1, err := srv.proc()
	if err != nil {
		return stop(err)
	}
	st1, err := srv.stats()
	if err != nil {
		return stop(err)
	}
	rep.cpu = p1.cpu - p0.cpu
	rep.peakRSS = p1.peakRSS
	rep.counts = delta(flatten(st0), flatten(st1))
	if err := srv.drain(); err != nil {
		return nil, err
	}
	rep.diskSize = dirSize(dir)
	return rep, nil
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// oracleStatements lists the LIMIT-free statements a request list needs
// references for.
func oracleStatements(reqs []request) []string {
	out := make([]string, len(reqs))
	for i, r := range reqs {
		out[i] = r.SQL
		if r.Ref != "" {
			out[i] = r.Ref
		}
	}
	return out
}

// runEndToEnd measures one workload untraced: `repetitions` fresh
// servers replay the same seeded list, every answer is checked, and each
// metric is the median over the repetitions.
func runEndToEnd(ctx context.Context, cfg *settings, w workload, seed int64, seconds int) (*runResult, error) {
	reqs := w.Generate(seed, requestCount(w, seconds, cfg.scale))
	shapes := shapesOf(reqs)
	res := newResult(w, "end to end", reqs)

	reps := make([]*repetition, 0, repetitions)
	for i := 0; i < repetitions; i++ {
		rep, err := measure(ctx, cfg, w, reqs, shapes, cfg.clients)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.Name, i+1, err)
		}
		reps = append(reps, rep)
	}
	// The references are computed with the server stopped, so the oracle
	// never competes with it for the two cores.
	if err := cfg.oracle.prepare(ctx, oracleStatements(reqs)); err != nil {
		return nil, err
	}

	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	for _, rep := range reps {
		e := evaluate(cfg.oracle, reqs, rep, res)
		n := float64(len(reqs))
		add("queries_per_s", float64(e.correct)/rep.phase.wall.Seconds())
		add("query_wall_p50_ms", percentile(e.latenciesMS, 50))
		add("server_cpu_ms_per_query", ms(rep.cpu)/n)
		add("server_peak_rss_mb", rep.peakRSS)
		add("prompts_per_query", e.prompts/n)
		add("tokens_per_query", e.tokens/n)
		add("sim_latency_s_per_query", e.simMS/1000/n)
		add("cell_match_pct", e.cellMatch)
		add("setup_s", rep.setup.Seconds())
		crossCheck(res, rep, e, len(reqs), cfg.clients)
	}
	for _, def := range endToEnd {
		res.metrics[def.Name] = metric{Value: median(per[def.Name]), Unit: def.Unit}
	}
	return res, nil
}

// evaluation is one repetition's answers held against the oracle.
type evaluation struct {
	correct     int
	latenciesMS []float64 // correct requests only; like the slices below, sorted
	prompts     float64
	tokens      float64
	simMS       float64
	cellMatch   float64 // mean over scored LIMIT-free requests
	respBytes   float64
	// nearSubsumed counts near-miss requests answered by subsumption.
	nearSubsumed int
	// per delivery class, for the serve-layer metrics
	streamMS, batchMS, firstRowVT []float64
}

// evaluate checks each distinct response once and folds the verdicts
// over the samples. A failed request has no latency sample and counts
// against queries_per_s.
func evaluate(o *oracle, reqs []request, rep *repetition, res *runResult) *evaluation {
	verdicts := make(map[respKey]verdict, len(rep.phase.bodies))
	e := &evaluation{}
	var matchSum float64
	var matchN int
	for _, s := range rep.phase.samples {
		r := &reqs[s.req]
		v, ok := verdicts[s.resp]
		if !ok {
			v = o.check(r, s.resp.status, rep.phase.bodies[s.resp])
			verdicts[s.resp] = v
		}
		res.attempted++
		if v.failure != "" {
			res.failed++
			if len(res.failures) < 5 {
				res.failures = append(res.failures, fmt.Sprintf("%s: %s", r.SQL, v.failure))
			}
			continue
		}
		e.correct++
		lat := ms(s.latency)
		e.latenciesMS = append(e.latenciesMS, lat)
		e.prompts += float64(v.answer.Stats.Prompts)
		e.tokens += float64(v.answer.Stats.PromptTokens + v.answer.Stats.CompletionTokens)
		e.simMS += v.answer.Stats.SimulatedLatencyMS
		e.respBytes += float64(v.bytes)
		if r.Class == "near" && v.answer.Cached == "subsumed" {
			e.nearSubsumed++
		}
		if v.scored {
			matchSum += v.match
			matchN++
		}
		if r.Stream {
			e.streamMS = append(e.streamMS, lat)
			if v.answer.FirstRowVTMS >= 0 {
				e.firstRowVT = append(e.firstRowVT, v.answer.FirstRowVTMS)
			}
		}
		if r.Batch {
			e.batchMS = append(e.batchMS, lat)
		}
	}
	for _, xs := range [][]float64{e.latenciesMS, e.streamMS, e.batchMS, e.firstRowVT} {
		sort.Float64s(xs)
	}
	if matchN > 0 {
		e.cellMatch = matchSum / float64(matchN)
	}
	return e
}

// crossCheck holds the server's own counters against what the clients
// saw: every request sent was served, every prompt a response reported
// was a prompt a backend answered, and the load stayed inside what the
// sandbox can carry.
func crossCheck(res *runResult, rep *repetition, e *evaluation, sent, clients int) {
	c := rep.counts
	fail := func(format string, args ...any) {
		res.violations = append(res.violations, res.workload+": "+fmt.Sprintf(format, args...))
	}
	if got := int(c["serve.queries_served"]); got != sent {
		fail("/stats queries_served grew by %d, %d requests were sent", got, sent)
	}
	if e.correct == sent && c["llm.backend_prompts"] != e.prompts {
		fail("responses report %.0f prompts, backends answered %.0f", e.prompts, c["llm.backend_prompts"])
	}
	for _, k := range []string{"serve.shed", "serve.timeouts", "llm.retries", "llm.faults", "llm.failovers", "store.errors"} {
		if c[k] != 0 {
			fail("%s = %.0f on a fault-free backend under closed-loop load", k, c[k])
		}
	}
	if int(c["serve.max_active"]) > clients {
		fail("serve.max_active = %.0f with %d closed-loop clients", c["serve.max_active"], clients)
	}
}
