package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the samples
// at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples; the epsilon keeps 99.99% of 100 000 at 99 990, not one above.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return rank
}

// tailPercentile is percentile at p, or at the highest percentile the
// sample supports when that is lower. The benchmark's own sizing gives
// every repetition the ≥ 1 000 samples a p99 needs; only -smoke runs
// fall short.
func tailPercentile(sorted []float64, p float64) float64 {
	return percentile(sorted, math.Min(p, highestPercentile(len(sorted))))
}

// tailPercentiles are the candidates highestPercentile chooses from.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75}

// highestPercentile picks the highest tail percentile that still has at
// least ten samples beyond it — a tail estimated from fewer is one or
// two outliers, not a percentile. It returns 50 when even p75 lacks the
// support.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rankOf(p, n) >= 10 {
			return p
		}
	}
	return 50
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the contract's spread is defined by. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the contract's steadiness measure: the distance between the
// first and third quartile as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// counters flattens a /stats reading into the named counts the layer
// metrics are built from.
type counters map[string]float64

// cumulative lists the counters that only ever grow; a phase's share of
// them is after − before. Everything else is a gauge, read at the end.
var cumulative = []string{
	"serve.queries_served", "serve.shed", "serve.timeouts", "serve.admission_decreases",
	"rescache.exact_hits", "rescache.subsumed_hits", "rescache.misses",
	"llm.cache_hits", "llm.cache_misses",
	"llm.sched_drained_interactive", "llm.sched_drained_batch",
	"llm.retries", "llm.faults", "llm.failovers", "llm.backend_prompts",
}

func flatten(st serverStats) counters {
	c := counters{
		"serve.queries_served":          float64(st.QueriesServed),
		"serve.shed":                    float64(st.Shed),
		"serve.timeouts":                float64(st.Timeouts),
		"serve.admission_decreases":     float64(st.Admission.Decreases),
		"serve.max_active":              float64(st.MaxActive),
		"rescache.exact_hits":           float64(st.ResultCacheHits),
		"rescache.subsumed_hits":        float64(st.ResultCacheSubsumedHits),
		"rescache.misses":               float64(st.ResultCacheMisses),
		"rescache.entries_end":          float64(st.ResultCacheEntries),
		"rescache.bytes_end":            float64(st.ResultCacheBytes),
		"llm.cache_hits":                float64(st.CacheHits),
		"llm.cache_misses":              float64(st.CacheMisses),
		"llm.cache_entries_end":         float64(st.CacheEntries),
		"llm.sched_drained_interactive": float64(st.Sched.Interactive.Drained),
		"llm.sched_drained_batch":       float64(st.Sched.Batch.Drained),
		"llm.failovers":                 float64(st.Failovers),
		"store.warm_relations":          float64(st.Persistence.WarmRelations),
		"store.dropped_stale":           float64(st.Persistence.DroppedStale),
		"store.errors":                  float64(st.Persistence.Errors),
	}
	for _, ep := range st.Resilience {
		c["llm.retries"] += float64(ep.Counters.Retries)
		c["llm.faults"] += float64(ep.Counters.Faults)
	}
	for _, b := range st.Backends {
		c["llm.backend_prompts"] += float64(b.Prompts)
		c["llm.backend_prompts."+b.Name] = float64(b.Prompts)
	}
	return c
}

// delta returns what one phase added: after − before for cumulative
// counters (and the per-backend prompt counts), the end value for
// gauges.
func delta(before, after counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v
	}
	for _, k := range cumulative {
		out[k] = after[k] - before[k]
	}
	for k := range after {
		if strings.HasPrefix(k, "llm.backend_prompts.") {
			out[k] = after[k] - before[k]
		}
	}
	return out
}

// ratio is a/(a+b), or 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}
