package optimizer

import (
	"repro/internal/llm"
	"repro/internal/logical"
)

// Guarded is one cost-based choice together with every input the
// enumeration read to make it: statistics (table cardinalities and page
// sizes, predicate selectivities, the filter-ordering reads included)
// and the cost hooks (prompt-cache residency, backend prices), each with
// the answer it got. A read of a statement literal is kept by its
// template slot, and the winning candidate by its decision points'
// slots, since conjunct text carries the literal.
//
// Replan applies the choice to another statement of the same template
// only when every guard, replayed for that statement's literals, returns
// the same answer — the narrowest validity region of parametric query
// optimization (Ioannidis et al., VLDB 1992): equal inputs. Under equal
// inputs every candidate the enumeration would compare is priced the
// same, so it would pick the same one. There is one way to apply it:
// bind the statement's literals into the recorded lowered winner. A
// choice a bind cannot map is not recorded. A Guarded is immutable and
// safe for concurrent use.
type Guarded struct {
	guards []guard
	// slots is the template's slot count. fetch and push are the slots
	// of the enumeration's boolean-filter and pushdown decision points in
	// enumeration order (conjunct text order, which the literals decide);
	// joins counts the join points.
	slots       int
	fetch, push []int
	joins       int
	// mask is the winning enumerated candidate, candidates how many were
	// enumerated.
	mask, candidates int
	// lowered is the winning candidate as lowered for the recorded
	// statement, cost its estimate, and sites its column-op-literal
	// conjuncts with their template slots.
	lowered logical.Node
	cost    *PlanCost
	sites   []logical.Site
}

// readKind names one planning input.
type readKind uint8

const (
	readTable readKind = iota
	readSelectivity
	readResident
	readPrice
)

// read is one planning input with its arguments. A selectivity read
// keeps its attribute, operator and literal in class.
type read struct {
	kind  readKind
	role  llm.Role
	table string
	class llm.PromptClass
}

// answer is what one read returned: a table's key count, page size and
// seen flag in x, y and seen; a selectivity or a residency count in x; a
// price's cost weight, speed factor and backend in x, y and backend.
type answer struct {
	x, y    float64
	seen    bool
	backend string
}

func tableAnswer(ts TableStats) answer {
	return answer{x: ts.Keys, y: ts.PageSize, seen: ts.Seen}
}

func priceAnswer(bp BackendPrice) answer {
	return answer{x: bp.CostWeight, y: bp.SpeedFactor, backend: bp.Backend}
}

// guard is one recorded read. slot >= 0 marks a literal read: the
// literal in its class stands for that slot.
type guard struct {
	read
	slot int
	want answer
}

// recorder is the statistics reader and the cost hooks one guarded
// enumeration runs through: each distinct read becomes a guard. A read
// that answers differently within one enumeration (a concurrent
// observation landed mid-way) makes the choice unguardable.
type recorder struct {
	t        *Template
	st       *Statistics
	p        CostParams
	seen     map[read]int
	guards   []guard
	unstable bool
	g        *Guarded
}

// wrap returns the statistics reader and cost hooks the candidates read
// through.
func (r *recorder) wrap(st *Statistics, p CostParams) (statsReader, CostParams) {
	r.st, r.p = st, p
	if p.Resident != nil {
		p.Resident = func(role llm.Role, table string, class llm.PromptClass) int {
			n := r.p.Resident(role, table, class)
			r.note(read{kind: readResident, role: role, table: table, class: class}, answer{x: float64(n)})
			return n
		}
	}
	if p.Price != nil {
		p.Price = func(role llm.Role, table string) BackendPrice {
			bp := r.p.Price(role, table)
			r.note(read{kind: readPrice, role: role, table: table}, priceAnswer(bp))
			return bp
		}
	}
	return r, p
}

// Table implements statsReader.
func (r *recorder) Table(table string) TableStats {
	ts := r.st.Table(table)
	r.note(read{kind: readTable, table: table}, tableAnswer(ts))
	return ts
}

// Selectivity implements statsReader.
func (r *recorder) Selectivity(table, attr, op, lit string) float64 {
	sel := r.st.Selectivity(table, attr, op, lit)
	r.note(read{kind: readSelectivity, table: table, class: llm.PromptClass{Attr: attr, Op: op, Literal: lit}}, answer{x: sel})
	return sel
}

// note records one read and its answer as a guard, by slot when it
// reads a statement literal (a selectivity's, or a filter class's).
func (r *recorder) note(rd read, a answer) {
	if i, ok := r.seen[rd]; ok {
		if r.guards[i].want != a {
			r.unstable = true
		}
		return
	}
	slot := -1
	if rd.kind == readSelectivity || rd.kind == readResident && rd.class.Op != "" && rd.class != llm.FilterFamily(rd.class.Table, rd.class.Attr) {
		slot = r.t.slotOfLit(rd.class.Literal)
	}
	r.seen[rd] = len(r.guards)
	r.guards = append(r.guards, guard{read: rd, slot: slot, want: a})
}

// decided records the enumeration's decision points and winner, the
// plan lowered and its estimate. It records no choice a bind cannot map
// (Replan): a decision point or a lowered conjunct that is no slot's.
func (r *recorder) decided(filterKeys, pushedKeys []string, joins, mask, candidates int, lowered logical.Node, cost *PlanCost) {
	fetch, ok := r.slotsOf(filterKeys)
	if !ok {
		return
	}
	push, ok := r.slotsOf(pushedKeys)
	if !ok {
		return
	}
	sites, ok := r.sitesOf(lowered, make([]logical.Site, 0, len(r.t.slots)))
	if !ok {
		return
	}
	r.g = &Guarded{guards: append([]guard(nil), r.guards...), slots: len(r.t.slots), fetch: fetch, push: push, joins: joins,
		mask: mask, candidates: candidates, lowered: lowered, cost: cost, sites: sites}
}

// sitesOf appends the sites of n's column-op-literal conjuncts, and those
// below it, each with its template slot, reporting false when one is no
// slot's: a bind could not reproduce that lowering.
func (r *recorder) sitesOf(n logical.Node, sites []logical.Site) ([]logical.Site, bool) {
	var cs []logical.Conjunct
	switch node := n.(type) {
	case *logical.Filter:
		cs = node.Conjuncts()
	case *logical.Join:
		cs = node.Conjuncts()
	case *logical.LLMFilter:
		cs = []logical.Conjunct{node.Cond}
	case *logical.Scan:
		cs = node.Pushed
	}
	for i := range cs {
		if cs[i].Col == nil {
			continue
		}
		slot := r.t.slotOfKey(cs[i].Key)
		if slot < 0 {
			return nil, false
		}
		sites = append(sites, logical.Site{Node: n, Index: i, Slot: slot})
	}
	ok := true
	left, right := logical.Inputs(n)
	if left != nil {
		sites, ok = r.sitesOf(left, sites)
	}
	if right != nil && ok {
		sites, ok = r.sitesOf(right, sites)
	}
	return sites, ok
}

// slotsOf maps conjunct keys to their slots.
func (r *recorder) slotsOf(keys []string) ([]int, bool) {
	var slots []int
	for _, k := range keys {
		i := r.t.slotOfKey(k)
		if i < 0 {
			return nil, false
		}
		slots = append(slots, i)
	}
	return slots, true
}

// Replan plans t's statement, one of the template g was recorded under,
// with g's choice when every guard holds for t's literals, and the
// extras compete as in Choose. The plan is the recorded winner with t's
// slot conjuncts bound in (logical.Rebind), and its estimate the
// recorded one, each operator's filed under its bound copy: under held
// guards every read the lowering (the filter order included) and the
// estimate made answers as it did, so they decide and price as they
// did. It returns a nil plan when a guard fails or the statement's
// decision points fall in another order; the caller then enumerates
// afresh.
func (g *Guarded) Replan(t *Template, base Options, st *Statistics, p CostParams, extras []ExtraPlan) (logical.Node, *PlanCost) {
	if st == nil {
		st = NewStatistics()
	}
	if len(t.slots) != g.slots {
		return nil, nil
	}
	filterKeys, ok := g.keys(t, g.fetch)
	if !ok {
		return nil, nil
	}
	pushedKeys, ok := g.keys(t, g.push)
	if !ok {
		return nil, nil
	}
	for i := range g.guards {
		if !g.guards[i].holds(t, st, p) {
			return nil, nil
		}
	}
	points := assemblePoints(filterKeys, pushedKeys, g.joins, base.PromptPushdown)
	best := &scored{label: label(points, g.mask), plan: logical.Rebind(g.lowered, g.sites, t.slots)}
	cost := *g.cost
	cost.Nodes = make(map[logical.Node]NodeEstimate, len(g.cost.Nodes))
	refile(g.lowered, best.plan, g.cost.Nodes, cost.Nodes)
	best.cost = &cost
	return compete(best, g.candidates, st, p, extras, less)
}

// refile files the estimate src holds for each operator of old under the
// operator in its place in n, a copy of old's shape, in dst.
func refile(old, n logical.Node, src, dst map[logical.Node]NodeEstimate) {
	if est, ok := src[old]; ok {
		dst[n] = est
	}
	ol, or := logical.Inputs(old)
	nl, nr := logical.Inputs(n)
	if ol != nil {
		refile(ol, nl, src, dst)
	}
	if or != nil {
		refile(or, nr, src, dst)
	}
}

// keys renders decision-point slots as t's conjunct keys, reporting
// false unless they are strictly ascending — the order the enumeration
// sorts them into, which decides the candidates' order and so the
// winner among equal-cost ones.
func (g *Guarded) keys(t *Template, slots []int) ([]string, bool) {
	keys := make([]string, len(slots))
	for i, s := range slots {
		keys[i] = t.slots[s].Key
		if i > 0 && keys[i-1] >= keys[i] {
			return nil, false
		}
	}
	return keys, true
}

// holds replays the guard's read for t's literals.
func (gd *guard) holds(t *Template, st *Statistics, p CostParams) bool {
	rd := gd.read
	if gd.slot >= 0 {
		rd.class.Literal = t.slots[gd.slot].LitText
	}
	var got answer
	switch rd.kind {
	case readTable:
		got = tableAnswer(st.Table(rd.table))
	case readSelectivity:
		got.x = st.Selectivity(rd.table, rd.class.Attr, rd.class.Op, rd.class.Literal)
	case readResident:
		if p.Resident == nil {
			return false
		}
		got.x = float64(p.Resident(rd.role, rd.table, rd.class))
	case readPrice:
		if p.Price == nil {
			return false
		}
		got = priceAnswer(p.Price(rd.role, rd.table))
	}
	return got == gd.want
}
