package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/physical"
)

// ExplainText renders a plan tree with the planner's per-operator
// estimates and — in analyze mode — the actual counters of one
// execution, followed by a summary of estimated vs actual totals. This
// is the payload of EXPLAIN / EXPLAIN ANALYZE and of the CLIs' -explain
// flags.
func ExplainText(plan logical.Node, cost *optimizer.PlanCost, m *physical.Metrics, stats llm.Stats, analyzed bool) string {
	var b strings.Builder
	logical.WriteExplain(&b, plan, 0, func(n logical.Node) string { return annotate(n, cost, m, analyzed) })
	if cost != nil {
		fmt.Fprintf(&b, "estimated: prompts=%.1f latency=%s", cost.Prompts, cost.Latency.Round(time.Millisecond))
		if cost.Priced {
			// The backend-weighted prompt cost appears only on routed
			// runtimes, keeping single-backend EXPLAIN output unchanged.
			fmt.Fprintf(&b, " cost=%.1f", cost.Cost)
		}
		if cost.Candidates > 1 {
			fmt.Fprintf(&b, " (cost-based, %d candidates, choice: %s)", cost.Candidates, cost.Choice)
		}
		b.WriteByte('\n')
	}
	if analyzed {
		fmt.Fprintf(&b, "actual:    prompts=%d latency=%s cache_hits=%d (simulated)\n",
			stats.Prompts, stats.SimulatedLatency.Round(time.Millisecond), stats.CacheHits)
		// Resilience counters appear only when fault recovery actually
		// happened, so fault-free EXPLAIN ANALYZE output is unchanged.
		if stats.Retries > 0 || stats.Faults > 0 || stats.BreakerFastFails > 0 {
			fmt.Fprintf(&b, "resilience: retries=%d faults=%d breaker_fast_fails=%d\n",
				stats.Retries, stats.Faults, stats.BreakerFastFails)
		}
	}
	return b.String()
}

// annotate is one operator's EXPLAIN suffix: its estimate and, in
// analyze mode, its actual counters.
func annotate(n logical.Node, cost *optimizer.PlanCost, m *physical.Metrics, analyzed bool) string {
	var b strings.Builder
	if cost != nil {
		if est, ok := cost.Nodes[n]; ok {
			if est.Prompts > 0 || est.Resident > 0 {
				fmt.Fprintf(&b, "  (est rows=%.1f prompts=%.1f", est.Rows, est.Prompts)
				if est.Resident > 0 {
					// The share of this operator's prompts the prompt
					// cache already holds, priced at zero.
					fmt.Fprintf(&b, " resident=%.0f%%", 100*est.Resident)
				}
				if est.Backend != "" {
					// Routed runtimes annotate which backend the
					// operator's prompts go to.
					fmt.Fprintf(&b, " route=%s", est.Backend)
				}
				b.WriteString(")")
			} else {
				fmt.Fprintf(&b, "  (est rows=%.1f)", est.Rows)
			}
		}
	}
	if analyzed {
		if nm, ok := m.Get(n); ok {
			fmt.Fprintf(&b, " [actual rows=%d prompts=%d]", nm.RowsOut, nm.Prompts)
		}
	}
	return b.String()
}
