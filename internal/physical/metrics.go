package physical

import (
	"sync"

	"repro/internal/logical"
)

// NodeMetrics are the actual per-operator counters of one execution,
// keyed by the logical node the operator was compiled from. Prompts
// counts prompts *requested* by the operator (before any cache), so the
// numbers compare directly against the planner's estimates, which do not
// model cache hits.
type NodeMetrics struct {
	Prompts int
	RowsIn  int
	RowsOut int
}

// Metrics collects per-node actuals for EXPLAIN ANALYZE and for the
// optimizer's statistics feedback. An LLM operator counts its own node's
// deltas while it runs and adds them once, when it closes (see tally), so
// the collector is complete once the operator tree has closed. Safe for
// concurrent use: operators close on different goroutines (a producer
// closes its operator's input when it exits). A nil *Metrics ignores all
// updates.
type Metrics struct {
	mu sync.Mutex
	m  map[logical.Node]NodeMetrics
}

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics { return &Metrics{m: map[logical.Node]NodeMetrics{}} }

// Add merges deltas into the node's counters.
func (m *Metrics) Add(n logical.Node, prompts, rowsIn, rowsOut int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	nm := m.m[n]
	nm.Prompts += prompts
	nm.RowsIn += rowsIn
	nm.RowsOut += rowsOut
	m.m[n] = nm
	m.mu.Unlock()
}

// Get returns the node's counters; ok is false when the node never
// reported.
func (m *Metrics) Get(n logical.Node) (NodeMetrics, bool) {
	if m == nil {
		return NodeMetrics{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	nm, ok := m.m[n]
	return nm, ok
}
