package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runAll is the one command: every workload untraced and traced, every
// metric by name with its unit. It fails when any workload failed or the
// workloads no longer stress the layers they were built to separate.
func runAll(ctx context.Context, cfg *settings, seed int64, seconds int) error {
	var firstErr error
	endToEnd, layers := map[string]map[string]metric{}, map[string]map[string]metric{}
	for _, w := range workloads() {
		for _, run := range []func(context.Context, *settings, workload, int64, int) (*runResult, error){runEndToEnd, runTraced} {
			res, err := run(ctx, cfg, w, seed, seconds)
			if err != nil {
				return err
			}
			describe(os.Stdout, res)
			if err := verdictOf(res); err != nil && firstErr == nil {
				firstErr = err
			}
			if res.kind == "traced" {
				layers[w.Name] = res.metrics
			} else {
				endToEnd[w.Name] = res.metrics
			}
		}
	}
	if cfg.scale != 1 {
		// A smoke list is too short for hit ratios to mean anything.
		return firstErr
	}
	broken := separation(endToEnd, layers)
	for _, msg := range broken {
		fmt.Println("SEPARATION", msg)
	}
	if firstErr == nil && len(broken) > 0 {
		firstErr = fmt.Errorf("%d workload-separation checks failed", len(broken))
	}
	return firstErr
}

// separation checks that each workload still exercises the mechanism it
// exists for and bypasses the ones it should: hot_repeat lives in the
// result cache, adhoc_plan's facts fit the prompt cache and cold_scan's
// do not, and only mixed_serving warm-loads relations and answers by
// subsumption (hot_repeat excepted: a handful of its 46 first sightings
// are subsumed by earlier corpus statements).
func separation(endToEnd, layers map[string]map[string]metric) []string {
	e := func(w, name string) float64 { return endToEnd[w][name].Value }
	l := func(w, name string) float64 { return layers[w][name].Value }
	var broken []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			broken = append(broken, fmt.Sprintf(format, args...))
		}
	}
	check(l("hot_repeat", "rescache.hit_ratio") >= 0.99, "hot_repeat rescache.hit_ratio = %.4f, want >= 0.99", l("hot_repeat", "rescache.hit_ratio"))
	check(e("hot_repeat", "prompts_per_query") < 0.1, "hot_repeat prompts_per_query = %.4f, want < 0.1", e("hot_repeat", "prompts_per_query"))
	check(l("adhoc_plan", "llm.cache_hit_ratio") > l("cold_scan", "llm.cache_hit_ratio"),
		"llm.cache_hit_ratio: adhoc_plan %.3f is not above cold_scan %.3f", l("adhoc_plan", "llm.cache_hit_ratio"), l("cold_scan", "llm.cache_hit_ratio"))
	check(e("cold_scan", "prompts_per_query") >= 1.4*e("adhoc_plan", "prompts_per_query"),
		"prompts_per_query: cold_scan %.1f is below 1.4 x adhoc_plan %.1f", e("cold_scan", "prompts_per_query"), e("adhoc_plan", "prompts_per_query"))
	check(l("mixed_serving", "rescache.subsumed_hits") > 0 && l("mixed_serving", "store.warm_relations") > 0,
		"mixed_serving: %.0f subsumed hits, %.0f warm relations, want both > 0", l("mixed_serving", "rescache.subsumed_hits"), l("mixed_serving", "store.warm_relations"))
	for _, w := range []string{"hot_repeat", "adhoc_plan", "cold_scan"} {
		check(l(w, "store.warm_relations") == 0, "%s warm-loaded %.0f relations without a data directory", w, l(w, "store.warm_relations"))
	}
	for _, w := range []string{"adhoc_plan", "cold_scan"} {
		check(l(w, "rescache.subsumed_hits") == 0, "%s: %.0f subsumed hits, want 0", w, l(w, "rescache.subsumed_hits"))
	}
	return broken
}

// worse reports by how much of a's value b is worse, in the metric's
// own direction (negative = better).
func worse(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs two full sets back to back on the same build — within a
// set the workloads are interleaved, seed by seed — and holds them to
// the rule the driver applies: per workload and end-to-end metric, the
// spread of each set (quartile distance over median, setup_s exempt)
// and the worsening of the second median against the first must stay
// within the metric's bound.
func runAA(ctx context.Context, cfg *settings, seed int64, seconds, runs int) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if runs < 2 {
		return fmt.Errorf("-aa needs at least 2 runs per set to take quartiles")
	}
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	for s := range sets {
		sets[s] = map[key][]float64{}
		for i := 0; i < runs; i++ {
			for _, w := range workloads() {
				res, err := runEndToEnd(ctx, cfg, w, seed+int64(i), seconds)
				if err != nil {
					return err
				}
				if err := verdictOf(res); err != nil {
					describe(os.Stderr, res)
					return err
				}
				for name, m := range res.metrics {
					k := key{w.Name, name}
					sets[s][k] = append(sets[s][k], m.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "benchmark: set %d run %d/%d done\n", s+1, i+1, runs)
		}
	}

	outside := 0
	fmt.Printf("%-14s %-24s %12s %12s %12s | %12s %12s %12s | %8s %8s %8s %6s\n",
		"workload", "metric", "A.q1", "A.median", "A.q3", "B.q1", "B.median", "B.q3", "spreadA", "spreadB", "B-worse", "bound")
	for _, w := range workloads() {
		for _, m := range bf.EndToEnd {
			a, b := sets[0][key{w.Name, m.Name}], sets[1][key{w.Name, m.Name}]
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			sa, sb, d := spread(a), spread(b), worse(a2, b2, m.Better)
			flag := ""
			if d > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				flag = "  OUTSIDE"
				outside++
			}
			fmt.Printf("%-14s %-24s %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f | %8.4f %8.4f %+8.4f %6.2f%s\n",
				w.Name, m.Name, a1, a2, a3, b1, b2, b3, sa, sb, d, m.Bound, flag)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d workload × metric pairs are outside their bounds", outside)
	}
	return nil
}
