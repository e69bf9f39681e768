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
	"slices"
	"sort"
	"strings"

	"repro/internal/logical"
	"repro/internal/schema"
	"repro/internal/sql/ast"
)

// Options control which rewrites run. Every field is one a caller sets;
// the enumeration's per-candidate decisions are its own (choice).
type Options struct {
	// PushdownPredicates distributes WHERE conjuncts toward the scans and
	// extracts equi-join conditions from cross products. On by default.
	PushdownPredicates bool
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
	// DisableLLMFilter lists conjuncts, by their logical.Conjunct Key
	// (the lower-cased column-first text), lowered as fetch-then-filter
	// instead of a per-key boolean prompt. Only the fixed heuristics read
	// it: under CostBased the enumeration decides each conjunct itself.
	DisableLLMFilter map[string]bool
}

// Defaults returns the paper-faithful configuration.
func Defaults() Options {
	return Options{PushdownPredicates: true}
}

// choice is one enumerated candidate's decisions; the zero value lowers
// the fixed heuristics' plan.
type choice struct {
	// fetch lists conjuncts, by key, lowered as fetch-then-filter
	// instead of a per-key boolean prompt.
	fetch map[string]bool
	// stage lists conjuncts kept out of the retrieval prompt under
	// PromptPushdown.
	stage map[string]bool
	// swap lists preorder join indices whose inputs are exchanged
	// (inner/cross joins only).
	swap map[int]bool
}

// scanInfo records one base relation binding found in the plan.
type scanInfo struct {
	def    *schema.TableDef
	source string
}

// bindingsOf returns the base relation bindings of the plan, keyed by
// lower-cased binding name.
func bindingsOf(n logical.Node) map[string]scanInfo {
	out := map[string]scanInfo{}
	logical.Walk(n, func(n logical.Node) bool {
		if s, ok := n.(*logical.Scan); ok {
			out[strings.ToLower(s.Binding)] = scanInfo{def: s.Table, source: s.Source}
		}
		return true
	})
	return out
}

// Optimize rewrites the plan under the given options into a new plan,
// which may share unchanged subtrees with n.
func Optimize(n logical.Node, opts Options) (logical.Node, error) {
	return optimizeWith(n, opts, choice{fetch: opts.DisableLLMFilter}, nil)
}

// optimizeWith is Optimize under the decisions c, reading filter
// selectivities through src (nil: no reordering), so the enumeration can
// record what it read.
func optimizeWith(n logical.Node, opts Options, c choice, src statsReader) (logical.Node, error) {
	o := &optimizer{choice: c, bindings: bindingsOf(n)}
	if opts.PushdownPredicates {
		n = o.push(n, nil)
	}
	if len(c.swap) > 0 {
		joinIdx := 0
		n = swapJoins(n, c.swap, &joinIdx)
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
		return join(j, left, right)
	}
	if input, _ := logical.Inputs(n); input != nil {
		return rewrapOr(n, swapJoins(input, swap, idx))
	}
	return n
}

// join returns j over left and right: j itself when they are its
// inputs, else a new join.
func join(j *logical.Join, left, right logical.Node) logical.Node {
	if left == j.Left && right == j.Right {
		return j
	}
	return j.WithInputs(left, right)
}

// rewrap returns the single-input node n over input: n itself when input
// already is its input, else a copy (logical.WithInput).
func rewrap(n, input logical.Node) (logical.Node, error) {
	if in, _ := logical.Inputs(n); in == input {
		return n, nil
	}
	return logical.WithInput(n, input)
}

// rewrapOr is rewrap keeping n unchanged when it cannot be rebuilt.
func rewrapOr(n, input logical.Node) logical.Node {
	if out, err := rewrap(n, input); err == nil {
		return out
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
			ci, cj := &chain[i].Cond, &chain[j].Cond
			si := st.Selectivity(chain[i].Table.Name, ci.Col.Name, ci.Op, ci.LitText)
			sj := st.Selectivity(chain[j].Table.Name, cj.Col.Name, cj.Op, cj.LitText)
			// Descending: the outermost slot gets the least selective
			// filter, so the innermost runs first.
			return si > sj
		})
		// Keep the chain when its order and its input stand.
		same := input == cur
		for i, c := 0, n; same && i < len(chain); i++ {
			same = chain[i] == c
			c = chain[i].Input
		}
		if same {
			return n
		}
		out := input
		for i := len(chain) - 1; i >= 0; i-- {
			lf := *chain[i]
			lf.Input = out
			out = &lf
		}
		return out
	}
	switch node := n.(type) {
	case *logical.Join:
		return join(node, orderLLMFilters(node.Left, st), orderLLMFilters(node.Right, st))
	default:
		if input, _ := logical.Inputs(n); input != nil {
			return rewrapOr(n, orderLLMFilters(input, st))
		}
		return n
	}
}

type optimizer struct {
	choice   choice
	bindings map[string]scanInfo
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
	logical.Walk(n, func(n logical.Node) bool {
		if s, ok := n.(*logical.Scan); ok {
			out[strings.ToLower(s.Binding)] = true
		}
		return true
	})
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
func (o *optimizer) push(n logical.Node, pending []logical.Conjunct) logical.Node {
	switch node := n.(type) {
	case *logical.Filter:
		return o.push(node.Input, append(pending, node.Conjuncts()...))

	case *logical.Join:
		leftB := subtreeBindings(node.Left)
		rightB := subtreeBindings(node.Right)
		var toLeft, toRight, toJoin, stay []logical.Conjunct
		on := node.Conjuncts()
		conjs := append(pending, on...)
		if node.Type == ast.JoinLeft {
			// A left outer join pads unmatched left rows with NULLs. A
			// WHERE conjunct filters the padded rows too, so only a
			// left-only one may go below; an ON conjunct never drops a
			// left row, so only a right-only one may go below, and the
			// rest stay in ON.
			toLeft, stay = o.split(pending, leftB)
			toRight, toJoin = o.split(on, rightB)
			conjs = nil
		}
		for _, c := range conjs {
			switch {
			case o.coveredBy(c.Expr, leftB):
				toLeft = append(toLeft, c)
			case o.coveredBy(c.Expr, rightB):
				toRight = append(toRight, c)
			case isEquiAcross(c.Expr, o, leftB, rightB):
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
		var out logical.Node = logical.JoinOf(left, right, jt, toJoin)
		if len(stay) > 0 {
			out = logical.FilterOf(out, stay)
		}
		return out

	case *logical.Scan:
		if len(pending) > 0 {
			return logical.FilterOf(node, pending)
		}
		return node

	default:
		// Do not push through projections/aggregates; reattach pending
		// above and continue independently below.
		if input, _ := logical.Inputs(n); input != nil {
			n = rewrapOr(n, o.push(input, nil))
		}
		if len(pending) > 0 {
			return logical.FilterOf(n, pending)
		}
		return n
	}
}

// split partitions cs into the conjuncts bindings cover and the rest.
func (o *optimizer) split(cs []logical.Conjunct, bindings map[string]bool) (in, out []logical.Conjunct) {
	for _, c := range cs {
		if o.coveredBy(c.Expr, bindings) {
			in = append(in, c)
		} else {
			out = append(out, c)
		}
	}
	return in, out
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
		var llmFilters, rest []logical.Conjunct
		for _, c := range node.Conjuncts() {
			if o.llmFilterable(c, input) && !o.choice.fetch[c.Key] {
				llmFilters = append(llmFilters, c)
				continue
			}
			rest = append(rest, c)
		}
		out := input
		for _, c := range llmFilters {
			binding, _ := o.bindingOf(c.Col)
			info := o.bindings[binding]
			keyCol := out.Schema().IndexOf(bindingName(out, binding), info.def.KeyColumn)
			if keyCol < 0 {
				// Key not materialized here; fall back to fetch+filter.
				rest = append(rest, c)
				continue
			}
			out = &logical.LLMFilter{Input: out, Table: info.def, Binding: bindingName(out, binding), Cond: c, KeyCol: keyCol}
		}
		for _, c := range rest {
			if out, err = o.ensureAttrsFor(out, c.Expr); err != nil {
				return nil, err
			}
		}
		if len(rest) > 0 {
			out = logical.FilterOf(out, rest)
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
		return join(node, left, right), nil

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
		input, _ := logical.Inputs(n)
		if input == nil {
			return n, nil
		}
		input, err := o.lower(input)
		if err != nil {
			return nil, err
		}
		return rewrap(n, input)
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
	cmp := logical.NewConjunct(c)
	if cmp.Col == nil {
		return true
	}
	o := &optimizer{bindings: bindingsOf(from)}
	binding, ok := o.bindingOf(cmp.Col)
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
	return strings.EqualFold(cmp.Col.Name, info.def.KeyColumn)
}

// llmFilterable reports whether conjunct c can run as a per-key boolean
// prompt: a comparison between one column of an LLM binding (non-key,
// not yet fetched) and a literal.
func (o *optimizer) llmFilterable(c logical.Conjunct, input logical.Node) bool {
	if c.Col == nil {
		return false
	}
	binding, ok := o.bindingOf(c.Col)
	if !ok {
		return false
	}
	info := o.bindings[binding]
	if info.source != "LLM" || strings.EqualFold(c.Col.Name, info.def.KeyColumn) {
		return false
	}
	// Already fetched? Then a traditional filter is cheaper.
	return input.Schema().IndexOf(bindingName(input, binding), c.Col.Name) < 0
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
		if scan, ok := input.(*logical.Scan); ok && scan.Source == "LLM" && !o.choice.stage[node.Cond.Key] {
			return pushInto(scan, node.Cond)
		}
		return rewrapOr(node, input)
	case *logical.Filter:
		input := o.promptPushdown(node.Input)
		if scan, ok := input.(*logical.Scan); ok && scan.Source == "LLM" {
			if cs := node.Conjuncts(); len(cs) == 1 && o.pushable(cs[0]) && !o.choice.stage[cs[0].Key] {
				return pushInto(scan, cs[0])
			}
		}
		return rewrapOr(node, input)
	case *logical.Join:
		return join(node, o.promptPushdown(node.Left), o.promptPushdown(node.Right))
	default:
		if input, _ := logical.Inputs(n); input != nil {
			return rewrapOr(n, o.promptPushdown(input))
		}
		return n
	}
}

// pushInto returns a copy of the LLM scan with c merged into its
// retrieval prompt. The copy's list is its own: candidates share scans.
func pushInto(scan *logical.Scan, c logical.Conjunct) *logical.Scan {
	out := *scan
	out.Pushed = append(slices.Clip(scan.Pushed), c)
	return &out
}

// pushable accepts a filter's column-op-literal comparison written
// column first, regardless of source (used only for prompt pushdown
// above an LLM scan).
func (o *optimizer) pushable(c logical.Conjunct) bool {
	if c.Col == nil || c.Mirrored {
		return false
	}
	binding, ok := o.bindingOf(c.Col)
	if !ok {
		return false
	}
	// Never merge a predicate on the key attribute into the retrieval
	// prompt: the keys are already materialized, so a traditional filter
	// is free, while a merged condition degrades the scan's accuracy —
	// and every later attribute fetch depends on those keys being right.
	info, known := o.bindings[binding]
	return !known || !strings.EqualFold(c.Col.Name, info.def.KeyColumn)
}
