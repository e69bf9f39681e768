package main

// metricDef declares one metric of BENCHMARK.json; a test keeps the two
// in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd lists what a user of galois-serve sees, per workload. Each
// is the median over a run's repetitions. Bounds live in BENCHMARK.json.
//
// Two candidates are not here. failed_share is zero on every clean run,
// and a relative bound on zero means nothing: failures are the result
// line's own attempted/failed counts (and serve.failed_share below), and
// any failure fails the run. The p99 of the wall time spread by up to
// 24% between ten runs of identical code whenever the shared box drifted
// during the set — at the edge of the widest bound the contract allows —
// so it is the per-layer serve.wall_p99_ms, reported without a bound.
// Everything here is never zero: even hot_repeat pays for the 46 first
// sightings inside its measured phase.
var endToEnd = []metricDef{
	{"queries_per_s", "1/s", "higher"},         // correct answers per second, closed loop, nproc clients, fixed request count
	{"query_wall_p50_ms", "ms", "lower"},       // client-side send → full body read, median
	{"server_cpu_ms_per_query", "ms", "lower"}, // server user+sys CPU over the measured phase ÷ requests
	{"server_peak_rss_mb", "MB", "lower"},      // server VmHWM at the end of the measured phase
	{"prompts_per_query", "count", "lower"},    // model calls per request, from the responses' stats — the bill
	{"tokens_per_query", "count", "lower"},     // prompt + completion tokens per request
	{"sim_latency_s_per_query", "s", "lower"},  // simulated model latency per request: what a real LLM would add
	{"cell_match_pct", "%", "higher"},          // mean cell match of served relations against the memdb ground truth
	{"setup_s", "s", "lower"},                  // server exec → first 200 on /healthz, plus the workload's warm-up
}

// perLayer lists the single-layer metrics of the traced run (prefix =
// module). Counts come from /stats deltas of a closed-loop repetition,
// serve timings from a single-client HTTP replay, the rest from the
// in-process replays. They carry no bound.
var perLayer = []metricDef{
	{"serve.wall_p99_ms", "ms", "lower"},     // closed loop, nproc clients: send → full body read, p99
	{"serve.request_us_p50", "us", "lower"},  // single-client HTTP round trip
	{"serve.overhead_us_p50", "us", "lower"}, // that minus core.query_us_p50: HTTP, admission, encode
	{"serve.resp_bytes_per_query", "B", "lower"},
	{"serve.stream_wall_p50_ms", "ms", "lower"},     // NDJSON requests only
	{"serve.stream_first_row_vt_ms", "ms", "lower"}, // virtual time of a stream's first row
	{"serve.batch_wall_p50_ms", "ms", "lower"},      // ?class=batch requests only
	{"serve.shed", "count", "lower"},                // must stay 0: non-zero means the load overran the sandbox
	{"serve.timeouts", "count", "lower"},
	{"serve.admission_decreases", "count", "lower"},
	{"serve.max_active", "count", "lower"},   // must stay ≤ clients
	{"serve.failed_share", "ratio", "lower"}, // failed ÷ attempted; any failure fails the run
	{"sql.parse_us_p50", "us", "lower"},
	{"sql.parse_allocs", "count", "lower"},
	{"logical.build_us_p50", "us", "lower"},    // Build + Fingerprint + Decompose
	{"optimizer.choose_us_p50", "us", "lower"}, // Session.Plan − parse − build
	{"rescache.exact_hits", "count", "higher"},
	{"rescache.subsumed_hits", "count", "higher"},
	{"rescache.misses", "count", "lower"},
	{"rescache.hit_ratio", "ratio", "higher"},
	{"rescache.near_subsumed_share", "ratio", "higher"}, // near-miss requests answered by subsumption
	{"rescache.entries_end", "count", "lower"},
	{"rescache.bytes_end", "B", "lower"},
	{"rescache.exact_us_p50", "us", "lower"},    // Session.Query when the answer is an exact hit
	{"rescache.subsumed_us_p50", "us", "lower"}, // … a residual plan over a cached relation
	{"core.miss_us_p50", "us", "lower"},         // … a miss: plan, execute, populate
	{"core.query_us_p50", "us", "lower"},
	{"core.query_us_p99", "us", "lower"},
	{"core.exec_self_us_p50", "us", "lower"}, // misses: query − plan − time inside the model
	{"core.allocs_per_query", "count", "lower"},
	{"core.bytes_per_query", "B", "lower"},
	{"core.self_us_per_prompt", "us", "lower"}, // engine time outside the model ÷ model calls
	{"llm.cache_hits", "count", "higher"},
	{"llm.cache_misses", "count", "lower"},
	{"llm.cache_hit_ratio", "ratio", "higher"},
	{"llm.cache_entries_end", "count", "lower"},
	{"llm.stack_us_per_prompt", "us", "lower"}, // rt.Client().Complete − raw model
	{"llm.sched_us_per_prompt", "us", "lower"}, // TenantFor + Submit + Wait, instant client
	{"llm.sched_drained_interactive", "count", "lower"},
	{"llm.sched_drained_batch", "count", "lower"},
	{"llm.retries", "count", "lower"}, // retries, faults, failovers: 0 on this fault-free backend
	{"llm.faults", "count", "lower"},
	{"llm.failovers", "count", "lower"},
	{"llm.backend_prompts.cheap", "count", "lower"},
	{"llm.backend_prompts.strong", "count", "lower"},
	{"simllm.complete_us_p50", "us", "lower"}, // the fixture's own cost; an engine change leaves it flat
	{"simllm.busy_us_per_query", "us", "lower"},
	{"store.open_warm_ms", "ms", "lower"}, // Runtime.OpenStore on the filled directory
	{"store.warm_relations", "count", "higher"},
	{"store.dropped_stale", "count", "lower"},
	{"store.errors", "count", "lower"},
	{"store.bytes_on_disk", "B", "lower"},
	{"store.flush_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},  // Session.Query wall with the span recorder on vs off
	{"trace.self_sum_pct", "%", "higher"}, // share of core.query wall its spans' self times account for
}

var perLayerByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()
