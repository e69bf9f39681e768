package optimizer

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/sql/ast"
)

// Typical prompt/completion token sizes per prompt kind, matching what
// prompt.Builder generates against the benchmark schema. They only feed
// the latency axis of the cost model; prompt counts are exact functions
// of the estimated cardinalities.
const (
	listPromptTokens, listAnswerTokens     = 60, 40
	attrPromptTokens, attrAnswerTokens     = 30, 4
	filterPromptTokens, filterAnswerTokens = 30, 1
)

// BackendPrice carries the planner-visible coefficients of the backend
// one operator role routes to: CostWeight scales the money axis (cheap
// models price their prompts below 1), SpeedFactor scales the per-prompt
// unit latency (slower models stretch the makespan).
type BackendPrice struct {
	Backend     string
	CostWeight  float64
	SpeedFactor float64
}

// CostParams fix the execution environment the estimate assumes.
type CostParams struct {
	// Workers is the per-endpoint prompt concurrency budget.
	Workers int
	// Verifier doubles every attribute fetch with a second-model prompt
	// (on its own endpoint, so it adds work but overlaps in time).
	Verifier bool
	// Price resolves the backend an operator role's prompts route to for
	// a given base table ("" when the role has no table binding) together
	// with its pricing coefficients. Nil means a single unpriced backend:
	// Cost degenerates to Prompts and estimates carry no routes.
	Price func(role llm.Role, table string) BackendPrice
	// Resident reports how many completions of one prompt class are
	// resident in the prompt cache for the model the role routes to on
	// the given table. A per-key prompt stage is priced only for the share
	// of its input expected to miss: a fact already held costs no prompt.
	// Nil (no prompt cache) prices every prompt, as the paper does.
	Resident func(role llm.Role, table string, class llm.PromptClass) int
}

// NodeEstimate is the planner's prediction for one operator.
type NodeEstimate struct {
	// Rows is the estimated output cardinality.
	Rows float64
	// Prompts is the estimated number of prompts this operator itself
	// issues (including verification prompts).
	Prompts float64
	// Start is when the operator's first output row becomes available
	// on the simulated-latency axis — streaming operators overlap with
	// their consumers from here on.
	Start time.Duration
	// Done is when the last output row becomes available (the
	// critical-path component of the makespan).
	Done time.Duration
	// Backend names the model backend this operator's prompts route to;
	// empty when the estimate ran unpriced (single-backend runtime).
	Backend string
	// Resident is the share of this operator's per-key prompts expected
	// to be answered by the prompt cache (0 when none, or no cache).
	Resident float64
}

// PlanCost is the full cost prediction for one candidate plan.
type PlanCost struct {
	// Prompts is the estimated total number of prompts the plan issues.
	Prompts float64
	// Cost is the backend-weighted prompt total: each operator's prompts
	// times the cost weight of the backend they route to. Equal to
	// Prompts when the estimate ran unpriced, so the planner's order is
	// unchanged for single-backend runtimes.
	Cost float64
	// Priced reports whether per-backend coefficients entered the
	// estimate (a routing-configured runtime supplied CostParams.Price).
	Priced bool
	// Latency is the estimated makespan: the larger of the critical
	// dependency path and the busiest endpoint's work spread over its
	// worker budget.
	Latency time.Duration
	// Overrented counts the boolean-filter stages that would rent again
	// past the rent-or-buy point (see estimator.overrented). The planner
	// prefers any candidate with fewer of them, whatever it costs: its
	// fetch-then-filter sibling buys the attribute once for every literal
	// to come. Always 0 without a prompt cache.
	Overrented int
	// Candidates is the number of plans Choose compared, extras
	// included (1 for a plan estimated alone).
	Candidates int
	// Choice describes the knobs of the chosen candidate ("paper" for
	// the fixed-heuristic shape), or an extra's label.
	Choice string
	// Nodes holds the per-operator estimates for EXPLAIN annotation.
	Nodes map[logical.Node]NodeEstimate
}

// estimator walks one plan accumulating totals.
type estimator struct {
	st       statsReader
	p        CostParams
	bindings map[string]scanInfo // lower(binding) → table info
	out      *PlanCost
	// workBy accumulates prompt work per endpoint: each backend runs its
	// own worker pool, so areas bound the makespan independently. The
	// unpriced estimate uses the "" key for the primary endpoint and a
	// reserved key for the verifier (its prompts overlap on a second
	// endpoint), reproducing the single-backend model exactly.
	workBy map[string]time.Duration
}

// verifierEndpoint keys the unpriced verifier's work area; the NUL byte
// keeps it from colliding with any declarable backend name.
const verifierEndpoint = "\x00verifier"

// Estimate predicts the prompt count and makespan of a lowered plan
// using the given statistics. It never fails: unresolvable expressions
// fall back to generic selectivities.
func Estimate(n logical.Node, st *Statistics, p CostParams) *PlanCost {
	return estimate(n, st, p)
}

// estimate is Estimate reading statistics through st, so the
// enumeration can record what it read.
func estimate(n logical.Node, st statsReader, p CostParams) *PlanCost {
	if p.Workers <= 0 {
		p.Workers = llm.DefaultBatchWorkers
	}
	e := &estimator{
		st:       st,
		p:        p,
		bindings: map[string]scanInfo{},
		out:      &PlanCost{Candidates: 1, Choice: "estimate", Priced: p.Price != nil, Nodes: map[logical.Node]NodeEstimate{}},
		workBy:   map[string]time.Duration{},
	}
	var collect func(logical.Node)
	collect = func(n logical.Node) {
		if s, ok := n.(*logical.Scan); ok {
			e.bindings[strings.ToLower(s.Binding)] = scanInfo{def: s.Table, source: s.Source}
		}
		for _, c := range n.Children() {
			collect(c)
		}
	}
	collect(n)

	root := e.node(n)
	e.out.Latency = root.Done
	for _, work := range e.workBy {
		if area := work / time.Duration(p.Workers); area > e.out.Latency {
			e.out.Latency = area
		}
	}
	return e.out
}

// price resolves the backend and coefficients for one operator role. The
// unpriced estimate (no Price hook) yields neutral coefficients and no
// backend attribution.
func (e *estimator) price(role llm.Role, table string) BackendPrice {
	if e.p.Price == nil {
		return BackendPrice{CostWeight: 1, SpeedFactor: 1}
	}
	bp := e.p.Price(role, table)
	if bp.CostWeight <= 0 {
		bp.CostWeight = 1
	}
	if bp.SpeedFactor <= 0 {
		bp.SpeedFactor = 1
	}
	return bp
}

// unit stretches a prompt's base latency by the backend's speed factor.
func (bp BackendPrice) unit(base time.Duration) time.Duration {
	if bp.SpeedFactor == 1 {
		return base
	}
	return time.Duration(float64(base) * bp.SpeedFactor)
}

// waves is the batched-latency estimate of issuing n prompts of the given
// unit latency over the worker budget.
func (e *estimator) waves(n float64, unit time.Duration) time.Duration {
	if n <= 0 {
		return 0
	}
	w := n / float64(e.p.Workers)
	if f := float64(int(w)); f < w {
		w = f + 1
	}
	return time.Duration(w) * unit
}

// tableOf resolves the base table a column reference belongs to. Like
// bindingOf, an unqualified name matching columns of several tables is
// ambiguous and resolves to "" (generic selectivity) — never to
// whichever binding map iteration happened to visit first.
func (e *estimator) tableOf(ref *ast.ColumnRef) string {
	if ref.Table != "" {
		if info, ok := e.bindings[strings.ToLower(ref.Table)]; ok {
			return info.def.Name
		}
		return ref.Table
	}
	found := ""
	for _, info := range e.bindings {
		for _, c := range info.def.Schema.Columns {
			if strings.EqualFold(c.Name, ref.Name) {
				if found != "" && !strings.EqualFold(found, info.def.Name) {
					return "" // ambiguous across tables
				}
				found = info.def.Name
			}
		}
	}
	return found
}

// conjunctSelectivity estimates one conjunct, resolving its column to a
// table when possible.
func (e *estimator) conjunctSelectivity(c ast.Expr) float64 {
	if attr, op, lit, ok := simpleConjunct(c); ok {
		table := ""
		if bin, isBin := c.(*ast.Binary); isBin {
			if ref, isRef := bin.Left.(*ast.ColumnRef); isRef {
				table = e.tableOf(ref)
			} else if ref, isRef := bin.Right.(*ast.ColumnRef); isRef {
				table = e.tableOf(ref)
			}
		}
		return e.st.Selectivity(table, attr, op, lit)
	}
	return 0.5
}

func (e *estimator) record(n logical.Node, est NodeEstimate) NodeEstimate {
	e.out.Nodes[n] = est
	e.out.Prompts += est.Prompts
	return est
}

var (
	listLat   = llm.EstimateLatency(listPromptTokens, listAnswerTokens)
	attrLat   = llm.EstimateLatency(attrPromptTokens, attrAnswerTokens)
	filterLat = llm.EstimateLatency(filterPromptTokens, filterAnswerTokens)
)

// residentShare estimates the fraction of one per-key prompt stage the
// prompt cache already holds: resident completions of the stage's class
// over the table's key count, capped at 1.
func (e *estimator) residentShare(role llm.Role, table string, class llm.PromptClass) float64 {
	if e.p.Resident == nil {
		return 0
	}
	keys := e.st.Table(table).Keys
	if keys <= 0 {
		return 0
	}
	if share := float64(e.p.Resident(role, table, class)) / keys; share < 1 {
		return share
	}
	return 1
}

// overrented applies the rent-or-buy rule to one boolean-filter stage
// over rows tuples that would spend rent (weighted cost) on prompts not
// yet resident. A filter completion answers one literal; a fetched value
// answers every literal ever asked of the attribute, and with a prompt
// cache it stays. So boolean prompts are rented only while everything
// spent on the attribute's filters — the completions still resident for
// other literals plus this wave — stays below the price of fetching the
// attribute for the same tuples; from then on the stage is overrented.
// This is the break-even rule of the ski-rental problem: the bill never
// exceeds twice the best in hindsight, and — what the myopic comparison
// of the two stage prices lacks — it depends on how many statements
// filtered the attribute, not on which came first. Backends of equal
// price buy at first sight; a filter backend at a quarter of the fetch
// price rents three waves. A wave that is already resident is free and
// never overrented.
func (e *estimator) overrented(table, attr string, class llm.PromptClass, rows, rent float64, bp BackendPrice) bool {
	if e.p.Resident == nil || rent <= 0 {
		return false
	}
	spent := e.p.Resident(llm.RoleFilter, table, llm.FilterFamily(table, attr)) - e.p.Resident(llm.RoleFilter, table, class)
	fetch := e.price(llm.RoleFetch, table)
	buy := rows * (1 - e.residentShare(llm.RoleFetch, table, llm.FetchClass(table, attr))) * fetch.CostWeight
	if e.p.Verifier {
		buy += rows * (1 - e.residentShare(llm.RoleVerify, table, llm.FetchClass(table, attr))) * e.price(llm.RoleVerify, table).CostWeight
	}
	const eps = 1e-9
	return float64(spent)*bp.CostWeight+rent >= buy-eps
}

// keyStage prices one streaming per-key prompt operator over in.Rows
// tuples of which the resident share hits the cache: the prompts that
// reach the model accrue on the backend's cost and work area, and the
// stage adds prompt latency to the dependency chain unless every prompt
// is resident.
func (e *estimator) keyStage(in NodeEstimate, bp BackendPrice, base time.Duration, resident float64) (issued float64, start, done time.Duration) {
	issued = in.Rows * (1 - resident)
	unit := bp.unit(base)
	e.workBy[bp.Backend] += time.Duration(issued * float64(unit))
	e.out.Cost += issued * bp.CostWeight
	if resident >= 1 {
		return issued, in.Start, in.Done
	}
	start, done = promptStage(in, unit, e.waves(issued, unit))
	return issued, start, done
}

// promptStage models one streaming per-tuple prompt operator: the first
// output row lands one prompt latency after the first input row, the
// last no earlier than one prompt latency after the last input row and
// no earlier than the stage's own waves from its first input (whichever
// dominates — dependency chain vs stage throughput).
func promptStage(in NodeEstimate, unit time.Duration, waves time.Duration) (start, done time.Duration) {
	start = in.Start + unit
	done = in.Done + unit
	if t := in.Start + waves; t > done {
		done = t
	}
	return start, done
}

func (e *estimator) node(n logical.Node) NodeEstimate {
	switch node := n.(type) {
	case *logical.Scan:
		if node.Source != "LLM" {
			rows := e.st.Table(node.Table.Name).Keys
			return e.record(n, NodeEstimate{Rows: rows})
		}
		ts := e.st.Table(node.Table.Name)
		rows := ts.Keys
		if node.PushedFilter != nil {
			for _, c := range ast.Conjuncts(node.PushedFilter) {
				rows *= e.conjunctSelectivity(c)
			}
		}
		pages := ts.ScanPrompts(rows)
		// The page chain is sequential: each "more results" prompt
		// excludes everything already seen. The first page's keys stream
		// downstream while later pages are still being fetched.
		bp := e.price(llm.RoleKeyscan, node.Table.Name)
		unit := bp.unit(listLat)
		done := time.Duration(pages) * unit
		e.workBy[bp.Backend] += done
		e.out.Cost += pages * bp.CostWeight
		return e.record(n, NodeEstimate{Rows: rows, Prompts: pages, Start: unit, Done: done, Backend: bp.Backend})

	case *logical.CachedScan:
		// A residual plan's leaf: the relation is already resident in
		// the result cache — zero prompts, zero latency, exact rows.
		return e.record(n, NodeEstimate{Rows: float64(node.Rows)})

	case *logical.FetchAttr:
		in := e.node(node.Input)
		class := llm.FetchClass(node.Table.Name, node.Attr)
		bp := e.price(llm.RoleFetch, node.Table.Name)
		resident := e.residentShare(llm.RoleFetch, node.Table.Name, class)
		prompts, start, done := e.keyStage(in, bp, attrLat, resident)
		if e.p.Verifier {
			vbp := e.price(llm.RoleVerify, node.Table.Name)
			if e.p.Price == nil {
				vbp.Backend = verifierEndpoint
			}
			// The verifier overlaps on its own endpoint: it adds prompts
			// and work, not chain latency.
			verify, _, _ := e.keyStage(in, vbp, attrLat, e.residentShare(llm.RoleVerify, node.Table.Name, class))
			prompts += verify
		}
		return e.record(n, NodeEstimate{Rows: in.Rows, Prompts: prompts, Start: start, Done: done, Backend: bp.Backend, Resident: resident})

	case *logical.LLMFilter:
		in := e.node(node.Input)
		sel := e.conjunctSelectivity(node.Cond)
		bp := e.price(llm.RoleFilter, node.Table.Name)
		attr := node.Cond.Left.(*ast.ColumnRef).Name
		class := llm.FilterClass(node.Table.Name, attr, node.Cond.Op, node.Cond.Right.(*ast.Literal).Val.String())
		resident := e.residentShare(llm.RoleFilter, node.Table.Name, class)
		prompts, start, done := e.keyStage(in, bp, filterLat, resident)
		if e.overrented(node.Table.Name, attr, class, in.Rows, prompts*bp.CostWeight, bp) {
			e.out.Overrented++
		}
		return e.record(n, NodeEstimate{Rows: in.Rows * sel, Prompts: prompts, Start: start, Done: done, Backend: bp.Backend, Resident: resident})

	case *logical.Filter:
		in := e.node(node.Input)
		rows := in.Rows
		for _, c := range ast.Conjuncts(node.Cond) {
			rows *= e.conjunctSelectivity(c)
		}
		return e.record(n, NodeEstimate{Rows: rows, Start: in.Start, Done: in.Done})

	case *logical.Join:
		l := e.node(node.Left)
		r := e.node(node.Right)
		// Hash join: the right side is the build side and must drain
		// completely before the first probe row can emerge, while left
		// rows stream through as they arrive. This is what makes join
		// input order matter on the latency axis: putting the slower
		// side on the probe (left) overlaps its production with
		// downstream prompt work.
		start := r.Done
		if l.Start > start {
			start = l.Start
		}
		done := r.Done
		if l.Done > done {
			done = l.Done
		}
		var rows float64
		if node.On == nil {
			rows = l.Rows * r.Rows
		} else {
			// Equi-joins in this engine follow key references, so the
			// smaller (usually filtered) side bounds the output.
			rows = l.Rows
			if r.Rows < rows {
				rows = r.Rows
			}
		}
		return e.record(n, NodeEstimate{Rows: rows, Start: start, Done: done})

	case *logical.Aggregate:
		in := e.node(node.Input)
		rows := 1.0
		if len(node.GroupBy) > 0 {
			// Grouping compresses; assume a third of the input forms
			// distinct groups.
			rows = in.Rows / 3
			if rows < 1 {
				rows = 1
			}
		}
		// Blocking: nothing flows until the whole input has been seen.
		return e.record(n, NodeEstimate{Rows: rows, Start: in.Done, Done: in.Done})

	case *logical.Sort:
		in := e.node(node.Input)
		return e.record(n, NodeEstimate{Rows: in.Rows, Start: in.Done, Done: in.Done})

	case *logical.Distinct:
		in := e.node(node.Input)
		return e.record(n, NodeEstimate{Rows: in.Rows * 0.8, Start: in.Start, Done: in.Done})

	case *logical.Limit:
		in := e.node(node.Input)
		rows := in.Rows
		if node.N >= 0 && float64(node.N) < rows {
			rows = float64(node.N)
		}
		return e.record(n, NodeEstimate{Rows: rows, Start: in.Start, Done: in.Done})

	default:
		// Project, StripProject and anything prompt-free with one
		// input: cardinality and timing pass through.
		children := n.Children()
		if len(children) == 1 {
			in := e.node(children[0])
			return e.record(n, NodeEstimate{Rows: in.Rows, Start: in.Start, Done: in.Done})
		}
		return e.record(n, NodeEstimate{})
	}
}

// String renders the headline numbers. The weighted cost appears only
// when backend pricing entered the estimate.
func (c *PlanCost) String() string {
	if c.Priced {
		return fmt.Sprintf("prompts=%.1f cost=%.1f latency=%s candidates=%d",
			c.Prompts, c.Cost, c.Latency.Round(time.Millisecond), c.Candidates)
	}
	return fmt.Sprintf("prompts=%.1f latency=%s candidates=%d",
		c.Prompts, c.Latency.Round(time.Millisecond), c.Candidates)
}
