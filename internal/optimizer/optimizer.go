// Package optimizer rewrites logical plans. It implements the classic
// relational rules Galois needs (conjunct splitting, predicate pushdown,
// turning cross products with equality predicates into keyed joins) plus
// the LLM-specific lowering from Section 4 of the paper: injecting
// FetchAttr nodes for attributes the plan touches but the LLM key scan has
// not retrieved, rewriting eligible selections into per-key boolean prompt
// filters, and — optionally — merging selections into the retrieval prompt
// itself (the Section 6 "prompt pushdown" optimization).
package optimizer

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/logical"
	"repro/internal/schema"
	"repro/internal/sql/ast"
)

// Options control which rewrites run.
type Options struct {
	// PushdownPredicates distributes WHERE conjuncts toward the scans and
	// extracts equi-join conditions from cross products. On by default.
	PushdownPredicates bool
	// UseLLMFilter rewrites simple selections on unfetched LLM attributes
	// into per-key boolean prompts instead of fetch-then-filter. On by
	// default, matching the paper's physical operator.
	UseLLMFilter bool
	// PromptPushdown merges simple selections directly into the LLM list
	// prompt ("get names of cities with > 1M population"), removing the
	// per-key prompts entirely. Off by default; Ablation A flips it.
	PromptPushdown bool
	// CostBased enables cost-based plan selection: instead of applying
	// the rewrites above unconditionally, the engine enumerates candidate
	// plans (per-conjunct LLM-filter vs fetch-then-filter, per-conjunct
	// prompt pushdown, join input order, filter order by selectivity) and
	// picks the one whose estimated prompt count — then estimated
	// makespan — is lowest. Consumed by Choose, not by Optimize.
	CostBased bool
	// Stats supply cardinalities and selectivities. When non-nil,
	// Optimize additionally reorders chains of per-key boolean filters
	// most-selective-first (cheapest prompts-per-surviving-tuple order).
	Stats *Statistics

	// Per-candidate knobs set by the enumerator; zero values reproduce
	// the fixed heuristics.

	// DisableLLMFilter lists conjuncts (normalized, lower-cased rendered
	// text) lowered as fetch-then-filter instead of a per-key boolean
	// prompt.
	DisableLLMFilter map[string]bool
	// PromptPushdownSkip lists conjuncts kept out of the retrieval
	// prompt even when PromptPushdown is on.
	PromptPushdownSkip map[string]bool
	// SwapJoins lists preorder join indices whose inputs are exchanged
	// (inner/cross joins only).
	SwapJoins map[int]bool
}

// conjKey normalizes a conjunct for the per-conjunct option maps.
func conjKey(e ast.Expr) string { return strings.ToLower(e.String()) }

// Defaults returns the paper-faithful configuration.
func Defaults() Options {
	return Options{PushdownPredicates: true, UseLLMFilter: true, PromptPushdown: false}
}

// scanInfo records one base relation binding found in the plan.
type scanInfo struct {
	def    *schema.TableDef
	source string
}

// Optimize rewrites the plan under the given options. The input plan is
// not mutated except for Scan.PushedFilter annotations.
func Optimize(n logical.Node, opts Options) (logical.Node, error) {
	var src statsReader
	if opts.Stats != nil {
		src = opts.Stats
	}
	return optimizeWith(n, opts, src)
}

// optimizeWith is Optimize reading filter selectivities through src (nil:
// no reordering), so the enumeration can record what it read.
func optimizeWith(n logical.Node, opts Options, src statsReader) (logical.Node, error) {
	o := &optimizer{opts: opts, bindings: map[string]scanInfo{}}
	o.collectBindings(n)
	if opts.PushdownPredicates {
		n = o.push(n, nil)
	}
	if len(opts.SwapJoins) > 0 {
		joinIdx := 0
		n = swapJoins(n, opts.SwapJoins, &joinIdx)
	}
	n, err := o.lower(n)
	if err != nil {
		return nil, err
	}
	if opts.PromptPushdown {
		n = o.promptPushdown(n)
	}
	if src != nil {
		n = orderLLMFilters(n, src)
	}
	return n, nil
}

// swapJoins exchanges the inputs of the joins whose preorder index is in
// the set. Left outer joins do not commute and are skipped (but still
// counted, so indices stay stable across candidates).
func swapJoins(n logical.Node, swap map[int]bool, idx *int) logical.Node {
	if j, ok := n.(*logical.Join); ok {
		i := *idx
		*idx++
		left := swapJoins(j.Left, swap, idx)
		right := swapJoins(j.Right, swap, idx)
		if swap[i] && j.Type != ast.JoinLeft {
			left, right = right, left
		}
		return logical.NewJoin(left, right, j.Type, j.On)
	}
	children := n.Children()
	if len(children) == 1 {
		if rebuilt, err := rebuildUnary(n, swapJoins(children[0], swap, idx)); err == nil {
			return rebuilt
		}
	}
	return n
}

// orderLLMFilters sorts every maximal chain of consecutive LLMFilter
// nodes most-selective-first: with one boolean prompt per surviving
// tuple, running the filter that discards the most tuples first
// minimizes the prompts the rest of the chain issues.
func orderLLMFilters(n logical.Node, st statsReader) logical.Node {
	if _, ok := n.(*logical.LLMFilter); ok {
		var chain []*logical.LLMFilter
		cur := n
		for {
			lf, isLF := cur.(*logical.LLMFilter)
			if !isLF {
				break
			}
			chain = append(chain, lf)
			cur = lf.Input
		}
		input := orderLLMFilters(cur, st)
		// chain[0] is the outermost (last to run); rebuild with the
		// most selective filter innermost (first to run).
		sort.SliceStable(chain, func(i, j int) bool {
			si := st.Selectivity(chain[i].Table.Name, chain[i].Cond.Left.(*ast.ColumnRef).Name, chain[i].Cond.Op, chain[i].Cond.Right.(*ast.Literal).Val.String())
			sj := st.Selectivity(chain[j].Table.Name, chain[j].Cond.Left.(*ast.ColumnRef).Name, chain[j].Cond.Op, chain[j].Cond.Right.(*ast.Literal).Val.String())
			// Descending: the outermost slot gets the least selective
			// filter, so the innermost runs first.
			return si > sj
		})
		out := input
		for i := len(chain) - 1; i >= 0; i-- {
			lf := chain[i]
			out = &logical.LLMFilter{Input: out, Table: lf.Table, Binding: lf.Binding, Cond: lf.Cond, KeyCol: lf.KeyCol}
		}
		return out
	}
	switch node := n.(type) {
	case *logical.Join:
		return logical.NewJoin(orderLLMFilters(node.Left, st), orderLLMFilters(node.Right, st), node.Type, node.On)
	default:
		children := n.Children()
		if len(children) == 1 {
			if rebuilt, err := rebuildUnary(n, orderLLMFilters(children[0], st)); err == nil {
				return rebuilt
			}
		}
		return n
	}
}

type optimizer struct {
	opts     Options
	bindings map[string]scanInfo
}

func (o *optimizer) collectBindings(n logical.Node) {
	if s, ok := n.(*logical.Scan); ok {
		o.bindings[strings.ToLower(s.Binding)] = scanInfo{def: s.Table, source: s.Source}
	}
	for _, c := range n.Children() {
		o.collectBindings(c)
	}
}

// bindingOf resolves the binding a column reference belongs to, consulting
// full table definitions (not just fetched columns).
func (o *optimizer) bindingOf(ref *ast.ColumnRef) (string, bool) {
	if ref.Table != "" {
		_, ok := o.bindings[strings.ToLower(ref.Table)]
		return strings.ToLower(ref.Table), ok
	}
	found := ""
	for b, info := range o.bindings {
		for _, c := range info.def.Schema.Columns {
			if strings.EqualFold(c.Name, ref.Name) {
				if found != "" && found != b {
					return "", false // ambiguous
				}
				found = b
			}
		}
	}
	return found, found != ""
}

// subtreeBindings returns the set of bindings produced under n.
func subtreeBindings(n logical.Node) map[string]bool {
	out := map[string]bool{}
	var walk func(logical.Node)
	walk = func(n logical.Node) {
		if s, ok := n.(*logical.Scan); ok {
			out[strings.ToLower(s.Binding)] = true
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// coveredBy reports whether every column reference in e belongs to one of
// the given bindings.
func (o *optimizer) coveredBy(e ast.Expr, bindings map[string]bool) bool {
	ok := true
	ast.Walk(e, func(x ast.Expr) bool {
		if ref, isRef := x.(*ast.ColumnRef); isRef {
			b, found := o.bindingOf(ref)
			if !found || !bindings[b] {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// SplitConjuncts is ast.Conjuncts, kept for callers outside the engine.
func SplitConjuncts(e ast.Expr) []ast.Expr { return ast.Conjuncts(e) }

// push distributes pending conjuncts down the tree.
func (o *optimizer) push(n logical.Node, pending []ast.Expr) logical.Node {
	switch node := n.(type) {
	case *logical.Filter:
		return o.push(node.Input, append(pending, ast.Conjuncts(node.Cond)...))

	case *logical.Join:
		leftB := subtreeBindings(node.Left)
		rightB := subtreeBindings(node.Right)
		var toLeft, toRight, toJoin, stay []ast.Expr
		conjs := pending
		if node.On != nil {
			conjs = append(conjs, ast.Conjuncts(node.On)...)
		}
		for _, c := range conjs {
			switch {
			case o.coveredBy(c, leftB):
				toLeft = append(toLeft, c)
			case o.coveredBy(c, rightB):
				toRight = append(toRight, c)
			case isEquiAcross(c, o, leftB, rightB):
				toJoin = append(toJoin, c)
			default:
				stay = append(stay, c)
			}
		}
		left := o.push(node.Left, toLeft)
		right := o.push(node.Right, toRight)
		jt := node.Type
		if jt == ast.JoinCross && len(toJoin) > 0 {
			jt = ast.JoinInner
		}
		var out logical.Node = logical.NewJoin(left, right, jt, ast.And(toJoin))
		if rest := ast.And(stay); rest != nil {
			out = &logical.Filter{Input: out, Cond: rest}
		}
		return out

	case *logical.Scan:
		if rest := ast.And(pending); rest != nil {
			return &logical.Filter{Input: node, Cond: rest}
		}
		return node

	default:
		// Do not push through projections/aggregates; reattach pending
		// above and continue independently below.
		children := n.Children()
		if len(children) == 1 {
			rebuilt, err := rebuildUnary(n, o.push(children[0], nil))
			if err == nil {
				n = rebuilt
			}
		}
		if rest := ast.And(pending); rest != nil {
			return &logical.Filter{Input: n, Cond: rest}
		}
		return n
	}
}

// isEquiAcross reports whether c is colA = colB with the columns on
// opposite sides of the join.
func isEquiAcross(c ast.Expr, o *optimizer, leftB, rightB map[string]bool) bool {
	b, ok := c.(*ast.Binary)
	if !ok || b.Op != "=" {
		return false
	}
	lr, lok := b.Left.(*ast.ColumnRef)
	rr, rok := b.Right.(*ast.ColumnRef)
	if !lok || !rok {
		return false
	}
	lb, lf := o.bindingOf(lr)
	rb, rf := o.bindingOf(rr)
	if !lf || !rf {
		return false
	}
	return (leftB[lb] && rightB[rb]) || (leftB[rb] && rightB[lb])
}

// rebuildUnary reconstructs a single-input node over a new input,
// refreshing derived schemas.
func rebuildUnary(n logical.Node, input logical.Node) (logical.Node, error) {
	switch node := n.(type) {
	case *logical.Filter:
		return &logical.Filter{Input: input, Cond: node.Cond}, nil
	case *logical.Project:
		// Types were inferred at build time against the full declared
		// schema; re-deriving them against a pre-lowering input (which
		// may hold only key columns) would fail, so rewire in place.
		node.Input = input
		return node, nil
	case *logical.Aggregate:
		node.Input = input
		return node, nil
	case *logical.Sort:
		return &logical.Sort{Input: input, Items: node.Items}, nil
	case *logical.Limit:
		return &logical.Limit{Input: input, N: node.N, Offset: node.Offset}, nil
	case *logical.Distinct:
		return &logical.Distinct{Input: input, KeyCols: node.KeyCols}, nil
	case *logical.StripProject:
		return logical.NewStripProject(input, node.Keep), nil
	case *logical.FetchAttr:
		return logical.NewFetchAttr(input, node.Table, node.Binding, node.Attr, node.KeyCol)
	case *logical.LLMFilter:
		return &logical.LLMFilter{Input: input, Table: node.Table, Binding: node.Binding, Cond: node.Cond, KeyCol: node.KeyCol}, nil
	default:
		return nil, fmt.Errorf("optimizer: cannot rebuild %T", n)
	}
}

// ------------------------------------------------------------- lowering

// lower injects FetchAttr and LLMFilter nodes so that every expression in
// the plan only references materialized columns.
func (o *optimizer) lower(n logical.Node) (logical.Node, error) {
	switch node := n.(type) {
	case *logical.Scan:
		return node, nil

	case *logical.Filter:
		input, err := o.lower(node.Input)
		if err != nil {
			return nil, err
		}
		var llmFilters []*ast.Binary
		var rest []ast.Expr
		for _, c := range ast.Conjuncts(node.Cond) {
			if o.opts.UseLLMFilter {
				if bin, ok := o.asLLMFilterPred(c, input); ok && !o.opts.DisableLLMFilter[conjKey(bin)] {
					llmFilters = append(llmFilters, bin)
					continue
				}
			}
			rest = append(rest, c)
		}
		out := input
		for _, bin := range llmFilters {
			ref := bin.Left.(*ast.ColumnRef)
			binding, _ := o.bindingOf(ref)
			info := o.bindings[binding]
			keyCol := out.Schema().IndexOf(bindingName(out, binding), info.def.KeyColumn)
			if keyCol < 0 {
				// Key not materialized here; fall back to fetch+filter.
				rest = append(rest, bin)
				continue
			}
			out = &logical.LLMFilter{Input: out, Table: info.def, Binding: bindingName(out, binding), Cond: bin, KeyCol: keyCol}
		}
		if cond := ast.And(rest); cond != nil {
			var err error
			out, err = o.ensureAttrsFor(out, cond)
			if err != nil {
				return nil, err
			}
			out = &logical.Filter{Input: out, Cond: cond}
		}
		return out, nil

	case *logical.Join:
		left, err := o.lower(node.Left)
		if err != nil {
			return nil, err
		}
		right, err := o.lower(node.Right)
		if err != nil {
			return nil, err
		}
		if node.On != nil {
			leftB := subtreeBindings(left)
			for _, ref := range ast.ColumnRefs(node.On) {
				b, ok := o.bindingOf(ref)
				if !ok {
					return nil, fmt.Errorf("optimizer: cannot resolve %s", ref.String())
				}
				if leftB[b] {
					left, err = o.ensureAttr(left, ref)
				} else {
					right, err = o.ensureAttr(right, ref)
				}
				if err != nil {
					return nil, err
				}
			}
		}
		return logical.NewJoin(left, right, node.Type, node.On), nil

	case *logical.Aggregate:
		input, err := o.lower(node.Input)
		if err != nil {
			return nil, err
		}
		for _, g := range node.GroupBy {
			input, err = o.ensureAttrsFor(input, g)
			if err != nil {
				return nil, err
			}
		}
		for _, a := range node.Aggs {
			for _, arg := range a.Call.Args {
				if _, isStar := arg.(*ast.Star); isStar {
					continue
				}
				input, err = o.ensureAttrsFor(input, arg)
				if err != nil {
					return nil, err
				}
			}
		}
		return logical.NewAggregate(input, node.GroupBy, node.Aggs)

	case *logical.Project:
		input, err := o.lower(node.Input)
		if err != nil {
			return nil, err
		}
		for _, it := range node.Items {
			input, err = o.ensureAttrsFor(input, it.Expr)
			if err != nil {
				return nil, err
			}
		}
		return logical.NewProject(input, node.Items, node.Hidden)

	default:
		children := n.Children()
		if len(children) != 1 {
			return n, nil
		}
		input, err := o.lower(children[0])
		if err != nil {
			return nil, err
		}
		return rebuildUnary(n, input)
	}
}

// bindingName returns the original-case binding name as it appears in the
// node's schema (bindings map keys are lower-cased).
func bindingName(n logical.Node, lower string) string {
	for _, c := range n.Schema().Columns {
		if strings.ToLower(c.Table) == lower {
			return c.Table
		}
	}
	return lower
}

// ResidualLocalSafe reports whether direct execution is guaranteed to
// evaluate conjunct c as a plain in-memory comparison in every candidate
// plan over the given FROM tree. Simple column-vs-literal comparisons on
// non-key attributes of LLM-backed scans are NOT safe: the engine may
// lower them to per-key boolean prompts (LLMFilter), whose semantic
// judgment is authoritative and need not agree with a literal comparison
// against fetched attribute values. The semantic result cache therefore
// refuses to evaluate such a conjunct locally in a residual plan —
// subsumption only fires when the cached producer already applied them.
func ResidualLocalSafe(c ast.Expr, from logical.Node) bool {
	cmp, ok := asColumnLiteral(c)
	if !ok {
		return true
	}
	o := &optimizer{bindings: map[string]scanInfo{}}
	o.collectBindings(from)
	binding, ok := o.bindingOf(cmp.ref)
	if !ok {
		// Unresolvable or ambiguous reference: refuse rather than guess.
		return false
	}
	info := o.bindings[binding]
	if info.source != "LLM" {
		return true
	}
	// The key column is materialized by every LLM scan, so a predicate on
	// it always runs as a local filter.
	return strings.EqualFold(cmp.ref.Name, info.def.KeyColumn)
}

// columnLiteral is a comparison between a column and a literal, read
// column first: for the mirrored form `literal op column`, op is the
// mirrored operator and mirrored is set.
type columnLiteral struct {
	ref      *ast.ColumnRef
	op       string
	lit      *ast.Literal
	mirrored bool
}

// asColumnLiteral matches e against a column-op-literal comparison in
// either orientation — the one shape of conjunct the optimizer can turn
// into a boolean prompt, merge into a retrieval prompt or estimate a
// selectivity for.
func asColumnLiteral(e ast.Expr) (columnLiteral, bool) {
	bin, ok := e.(*ast.Binary)
	if !ok {
		return columnLiteral{}, false
	}
	switch bin.Op {
	case "=", "!=", "<", "<=", ">", ">=":
	default:
		return columnLiteral{}, false
	}
	if ref, ok := bin.Left.(*ast.ColumnRef); ok {
		if lit, ok := bin.Right.(*ast.Literal); ok {
			return columnLiteral{ref: ref, op: bin.Op, lit: lit}, true
		}
	}
	if ref, ok := bin.Right.(*ast.ColumnRef); ok {
		if lit, ok := bin.Left.(*ast.Literal); ok {
			return columnLiteral{ref: ref, op: mirrorOp(bin.Op), lit: lit, mirrored: true}, true
		}
	}
	return columnLiteral{}, false
}

// asLLMFilterPred checks whether conjunct c can run as a per-key boolean
// prompt: a comparison between one column of an LLM binding (non-key,
// not yet fetched) and a literal. It returns a fresh binary with the
// column on the left.
func (o *optimizer) asLLMFilterPred(c ast.Expr, input logical.Node) (*ast.Binary, bool) {
	cmp, ok := asColumnLiteral(c)
	if !ok {
		return nil, false
	}
	binding, ok := o.bindingOf(cmp.ref)
	if !ok {
		return nil, false
	}
	info := o.bindings[binding]
	if info.source != "LLM" || strings.EqualFold(cmp.ref.Name, info.def.KeyColumn) {
		return nil, false
	}
	// Already fetched? Then a traditional filter is cheaper.
	if input.Schema().IndexOf(bindingName(input, binding), cmp.ref.Name) >= 0 {
		return nil, false
	}
	return &ast.Binary{Op: cmp.op, Left: cmp.ref, Right: cmp.lit}, true
}

func mirrorOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

// ensureAttrsFor injects FetchAttr nodes for every unresolved reference
// in e.
func (o *optimizer) ensureAttrsFor(n logical.Node, e ast.Expr) (logical.Node, error) {
	var err error
	for _, ref := range ast.ColumnRefs(e) {
		n, err = o.ensureAttr(n, ref)
		if err != nil {
			return nil, err
		}
	}
	return n, nil
}

// ensureAttr makes sure ref is materialized in n's schema, wrapping n in a
// FetchAttr when the attribute lives in an LLM-bound relation.
func (o *optimizer) ensureAttr(n logical.Node, ref *ast.ColumnRef) (logical.Node, error) {
	if n.Schema().IndexOf(ref.Table, ref.Name) >= 0 {
		return n, nil
	}
	binding, ok := o.bindingOf(ref)
	if !ok {
		return nil, fmt.Errorf("optimizer: cannot resolve column %s", ref.String())
	}
	info, ok := o.bindings[binding]
	if !ok {
		return nil, fmt.Errorf("optimizer: unknown binding %s", binding)
	}
	if info.source != "LLM" {
		return nil, fmt.Errorf("optimizer: column %s not found in %s", ref.String(), info.def.Name)
	}
	// Canonical attribute name from the table definition.
	attr := ref.Name
	for _, c := range info.def.Schema.Columns {
		if strings.EqualFold(c.Name, ref.Name) {
			attr = c.Name
			break
		}
	}
	bn := bindingName(n, binding)
	keyCol := n.Schema().IndexOf(bn, info.def.KeyColumn)
	if keyCol < 0 {
		return nil, fmt.Errorf("optimizer: key %s.%s not materialized for fetch of %s", bn, info.def.KeyColumn, attr)
	}
	return logical.NewFetchAttr(n, info.def, bn, attr, keyCol)
}

// --------------------------------------------------------- prompt pushdown

// promptPushdown merges chains of LLMFilter (and simple Filters) sitting
// directly above an LLM scan into the scan's retrieval prompt.
func (o *optimizer) promptPushdown(n logical.Node) logical.Node {
	switch node := n.(type) {
	case *logical.LLMFilter:
		input := o.promptPushdown(node.Input)
		if scan, ok := input.(*logical.Scan); ok && scan.Source == "LLM" && !o.opts.PromptPushdownSkip[conjKey(node.Cond)] {
			if scan.PushedFilter == nil {
				scan.PushedFilter = node.Cond
			} else {
				scan.PushedFilter = &ast.Binary{Op: "AND", Left: scan.PushedFilter, Right: node.Cond}
			}
			return scan
		}
		node.Input = input
		return node
	case *logical.Filter:
		input := o.promptPushdown(node.Input)
		if scan, ok := input.(*logical.Scan); ok && scan.Source == "LLM" {
			if simple, ok := o.asSimplePred(node.Cond); ok && !o.opts.PromptPushdownSkip[conjKey(simple)] {
				if scan.PushedFilter == nil {
					scan.PushedFilter = simple
				} else {
					scan.PushedFilter = &ast.Binary{Op: "AND", Left: scan.PushedFilter, Right: simple}
				}
				return scan
			}
		}
		node.Input = input
		return node
	case *logical.Join:
		node.Left = o.promptPushdown(node.Left)
		node.Right = o.promptPushdown(node.Right)
		return logical.NewJoin(node.Left, node.Right, node.Type, node.On)
	default:
		children := n.Children()
		if len(children) == 1 {
			rebuilt, err := rebuildUnary(n, o.promptPushdown(children[0]))
			if err == nil {
				return rebuilt
			}
		}
		return n
	}
}

// asSimplePred accepts column-op-literal comparisons, column first,
// regardless of source (used only for prompt pushdown above an LLM
// scan). It returns c itself.
func (o *optimizer) asSimplePred(c ast.Expr) (*ast.Binary, bool) {
	cmp, ok := asColumnLiteral(c)
	if !ok || cmp.mirrored {
		return nil, false
	}
	binding, ok := o.bindingOf(cmp.ref)
	if !ok {
		return nil, false
	}
	// Never merge a predicate on the key attribute into the retrieval
	// prompt: the keys are already materialized, so a traditional filter
	// is free, while a merged condition degrades the scan's accuracy —
	// and every later attribute fetch depends on those keys being right.
	if info, known := o.bindings[binding]; known && strings.EqualFold(cmp.ref.Name, info.def.KeyColumn) {
		return nil, false
	}
	return c.(*ast.Binary), true
}
