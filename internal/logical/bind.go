package logical

import (
	"strconv"
	"strings"

	"repro/internal/sql/ast"
	"repro/internal/value"
)

// Site is one classified conjunct of a plan node: conjunct Index of a
// Filter or a Join, an LLMFilter's Cond (Index 0), or a Scan's
// Pushed[Index]. Slot is its binder's: the index of the value bound
// there.
type Site struct {
	Node  Node
	Index int
	Slot  int
}

// Rebind returns n with the conjunct at sites[k] replaced by cs[k]. It
// path-copies: the nodes holding a site and every node above them are
// copied, every other subtree is shared. A Filter's condition and a
// Join's ON predicate keep their written AND nesting with each replaced
// conjunct's expression in its place, and a copied node keeps its
// schema, which no conjunct's literal decides.
func Rebind(n Node, sites []Site, cs []Conjunct) Node {
	left, right := Inputs(n)
	nl, nr := left, right
	if left != nil {
		nl = Rebind(left, sites, cs)
	}
	if right != nil {
		nr = Rebind(right, sites, cs)
	}
	own := false
	for _, s := range sites {
		own = own || s.Node == n
	}
	if !own && nl == left && nr == right {
		return n
	}
	switch node := n.(type) {
	case *Filter:
		f := *node
		f.Input = nl
		if own {
			f.conjs = replaced(n, node.conjs, sites, cs)
			f.Cond = reAnd(node.Cond, f.conjs, new(int))
		}
		return &f
	case *Join:
		j := *node
		j.Left, j.Right = nl, nr
		if own {
			j.conjs = replaced(n, node.conjs, sites, cs)
			j.On = reAnd(node.On, j.conjs, new(int))
		}
		return &j
	case *LLMFilter:
		f := *node
		f.Input = nl
		for k, s := range sites {
			if s.Node == n {
				f.Cond = cs[k]
			}
		}
		return &f
	case *Scan:
		s := *node
		s.Pushed = replaced(n, node.Pushed, sites, cs)
		return &s
	case *FetchAttr:
		f := *node
		f.Input = nl
		return &f
	case *Project:
		p := *node
		p.Input = nl
		return &p
	case *Aggregate:
		a := *node
		a.Input = nl
		return &a
	case *StripProject:
		s := *node
		s.Input = nl
		return &s
	case *Distinct:
		d := *node
		d.Input = nl
		return &d
	case *Sort:
		s := *node
		s.Input = nl
		return &s
	case *Limit:
		l := *node
		l.Input = nl
		return &l
	}
	return n
}

// replaced returns a copy of n's conjuncts old with the ones at n's sites
// replaced.
func replaced(n Node, old []Conjunct, sites []Site, cs []Conjunct) []Conjunct {
	out := append([]Conjunct(nil), old...)
	for k, s := range sites {
		if s.Node == n {
			out[s.Index] = cs[k]
		}
	}
	return out
}

// reAnd rebuilds e, the AND of conjuncts classify split left to right,
// with the expression of cs[*i], cs[*i+1], ... in their places, copying
// only the AND nodes above a changed conjunct.
func reAnd(e ast.Expr, cs []Conjunct, i *int) ast.Expr {
	if b, ok := e.(*ast.Binary); ok && b.Op == "AND" {
		l, r := reAnd(b.Left, cs, i), reAnd(b.Right, cs, i)
		if l == b.Left && r == b.Right {
			return e
		}
		return &ast.Binary{Op: "AND", Left: l, Right: r}
	}
	if e == nil {
		return nil
	}
	*i++
	return cs[*i-1].Expr
}

// LeftDeep reports whether every Join's ON predicate in n is the
// left-deep AND of its conjuncts (a AND b AND c as written, not
// a AND (b AND c)), the nesting JoinOf gives a predicate it builds.
func LeftDeep(n Node) bool {
	if j, ok := n.(*Join); ok && j.On != nil {
		for e := j.On; ; {
			b, ok := e.(*ast.Binary)
			if !ok || b.Op != "AND" {
				break
			}
			if r, ok := b.Right.(*ast.Binary); ok && r.Op == "AND" {
				return false
			}
			e = b.Left
		}
	}
	left, right := Inputs(n)
	return (left == nil || LeftDeep(left)) && (right == nil || LeftDeep(right))
}

// Skeleton is a built plan prepared to be rebuilt for other literals.
// Statements of one token shape (lexer.Shape) build the same plan but for
// their literals, and a literal compared with a column in a WHERE or ON
// conjunct — a column-op-literal conjunct of a base Filter (directly above
// the FROM tree) or of a Join — appears nowhere else in the plan and its
// canonical form: in that conjunct and in the fingerprint's rendering of
// it. Bind rebuilds the plan for new such literals by path-copying the
// nodes that hold them (Rebind), and its canonical form by splicing their
// renderings into the fingerprint, instead of building and rendering. A
// Skeleton is immutable and safe for concurrent use.
type Skeleton struct {
	built Node
	canon Canonical
	// sites are the bindable comparisons in fingerprint order, each
	// one's Slot the index of its literal in the statement's literal
	// vector.
	sites []Site
	// fp is canon.Fingerprint split at the sites' literal renderings.
	fp []string
	// fixed is, per site, the length of its conjunct text that is not
	// its literal's rendering: the column, the operator and two spaces.
	fixed []int
	// from is the FROM tree's span of the fingerprint (Shape.FromKey),
	// each end as a part of fp and an offset into it.
	from [2]struct{ part, off int }
}

// NewSkeleton prepares built, whose canonical form is canon, for binding.
// lits are the statement's literals (parser.ParseLiterals); the ones a
// Skeleton binds are its slots, every other literal is part of the
// statement's identity, which the caller compares. It returns nil when a
// slot's rendering cannot be located in the fingerprint.
func NewSkeleton(built Node, canon Canonical, lits []*ast.Literal) *Skeleton {
	// A skeleton outlives the statement: it keeps its own copy of the
	// fingerprint, not the rendering buffer's spare capacity.
	canon.Fingerprint = strings.Clone(canon.Fingerprint)
	if sh := canon.Shape; sh != nil {
		c := *sh
		c.FromKey = canon.Fingerprint[strings.Index(canon.Fingerprint, sh.FromKey):][:len(sh.FromKey)]
		canon.Shape = &c
	}
	sk := &Skeleton{built: built, canon: canon, fp: []string{canon.Fingerprint}}
	chain, from := splitChain(built)
	site := func(n Node, cs []Conjunct) {
		for i := range cs {
			if cs[i].Col == nil {
				continue
			}
			for j, l := range lits {
				if l == cs[i].Lit {
					sk.sites = append(sk.sites, Site{Node: n, Index: i, Slot: j})
				}
			}
		}
	}
	for i := len(chain) - 1; i >= 0; i-- {
		f, ok := chain[i].(*Filter)
		if !ok {
			break
		}
		site(f, f.conjs)
	}
	Walk(from, func(n Node) bool {
		if j, ok := n.(*Join); ok {
			site(j, j.conjs)
		}
		return true
	})
	if len(sk.sites) == 0 {
		return sk
	}
	sk.fixed = make([]int, len(sk.sites))
	for k := range sk.sites {
		c := sk.conjunct(k)
		sk.fixed[k] = len(c.Text) - len(c.Lit.String())
	}
	// Bind a distinct text sentinel to every slot and find each one's
	// rendering in the fingerprint: the fingerprint's parts between them
	// are the same for every binding.
	sentinels := make([]value.Value, len(lits))
	for k, s := range sk.sites {
		sentinels[s.Slot] = value.Text("\x00" + strconv.Itoa(k) + "\x00")
	}
	tree, cs := sk.rebind(sentinels)
	sc, start, end := canonicalize(tree)
	pos := make([]int, len(sk.sites))
	rends := make([]string, len(sk.sites))
	for k := range sk.sites {
		rends[k] = sentinels[sk.sites[k].Slot].SQLLiteral()
		pos[k] = strings.Index(sc.Fingerprint, rends[k])
		if pos[k] < 0 || pos[k] != strings.LastIndex(sc.Fingerprint, rends[k]) || sk.literalOf(k, &cs[k]) != rends[k] {
			return nil
		}
	}
	// Order the sites as the fingerprint renders them.
	for a := 1; a < len(pos); a++ {
		for b := a; b > 0 && pos[b] < pos[b-1]; b-- {
			pos[b], pos[b-1] = pos[b-1], pos[b]
			rends[b], rends[b-1] = rends[b-1], rends[b]
			sk.sites[b], sk.sites[b-1] = sk.sites[b-1], sk.sites[b]
			sk.fixed[b], sk.fixed[b-1] = sk.fixed[b-1], sk.fixed[b]
		}
	}
	// The parts are cut from the statement's own fingerprint, which the
	// skeleton keeps anyway: it must read as the sentinels' one does
	// around its literals' renderings.
	sk.fp = sk.fp[:0]
	fp, at := canon.Fingerprint, 0
	for k, p := range pos {
		lit := sk.conjunct(k).Lit.String()
		part := sc.Fingerprint[at:p]
		if !strings.HasPrefix(fp, part+lit) {
			return nil
		}
		sk.fp = append(sk.fp, fp[:len(part)])
		fp, at = fp[len(part)+len(lit):], p+len(rends[k])
	}
	if fp != sc.Fingerprint[at:] {
		return nil
	}
	sk.fp = append(sk.fp, fp)
	for e, p := range [2]int{start, end} {
		at = 0
		for k, part := range sk.fp {
			if p <= at+len(part) {
				sk.from[e].part, sk.from[e].off = k, p-at
				break
			}
			at += len(part)
			if k < len(rends) {
				at += len(rends[k])
			}
		}
	}
	// The parts with the statement's own literals must give back its
	// fingerprint.
	if _, c := sk.Bind(literalValues(lits)); c.Fingerprint != canon.Fingerprint ||
		(c.Shape == nil) != (canon.Shape == nil) || c.Shape != nil && c.Shape.FromKey != canon.Shape.FromKey {
		return nil
	}
	return sk
}

// literalValues returns the values of lits.
func literalValues(lits []*ast.Literal) []value.Value {
	vals := make([]value.Value, len(lits))
	for i, l := range lits {
		vals[i] = l.Val
	}
	return vals
}

// conjunct returns the built plan's conjunct at site k.
func (sk *Skeleton) conjunct(k int) *Conjunct {
	s := sk.sites[k]
	if f, ok := s.Node.(*Filter); ok {
		return &f.conjs[s.Index]
	}
	return &s.Node.(*Join).conjs[s.Index]
}

// literalOf returns the rendering of c's literal, c being site k's
// conjunct rebound: the part of its text its column and operator leave.
func (sk *Skeleton) literalOf(k int, c *Conjunct) string {
	if c.Mirrored {
		return c.Text[:len(c.Text)-sk.fixed[k]]
	}
	return c.Text[sk.fixed[k]:]
}

// rebind returns the built plan with each site's literal replaced by
// vals[slot], and the replacing conjuncts in site order.
func (sk *Skeleton) rebind(vals []value.Value) (Node, []Conjunct) {
	cs := make([]Conjunct, len(sk.sites))
	for k := range sk.sites {
		old := sk.conjunct(k)
		b := *old.Expr.(*ast.Binary)
		lit := &ast.Literal{Val: vals[sk.sites[k].Slot]}
		if old.Mirrored {
			b.Left = lit
		} else {
			b.Right = lit
		}
		cs[k] = NewConjunct(&b)
	}
	return Rebind(sk.built, sk.sites, cs), cs
}

// Bind returns the built plan and canonical form of the statement whose
// literal vector is vals: the skeleton's own with each slot's literal
// replaced (vals entries that are no slot are not read). Its Shape is
// decomposed from the bound plan, so two base conjuncts that bind to one
// text count once, as Canonicalize counts them.
func (sk *Skeleton) Bind(vals []value.Value) (Node, Canonical) {
	if len(sk.sites) == 0 {
		return sk.built, sk.canon
	}
	tree, cs := sk.rebind(vals)
	n := 0
	for k, part := range sk.fp {
		n += len(part)
		if k < len(cs) {
			n += len(sk.literalOf(k, &cs[k]))
		}
	}
	var b strings.Builder
	b.Grow(n)
	var span [2]int
	for k, part := range sk.fp {
		for e := range span {
			if sk.from[e].part == k {
				span[e] = b.Len() + sk.from[e].off
			}
		}
		b.WriteString(part)
		if k < len(cs) {
			b.WriteString(sk.literalOf(k, &cs[k]))
		}
	}
	canon := Canonical{Fingerprint: b.String(), Components: sk.canon.Components}
	if sh := sk.canon.Shape; sh != nil {
		chain, from := splitChain(tree)
		canon.Shape = decompose(chain, from, canon.Fingerprint[span[0]:span[1]], sh.FromLabel)
	}
	return tree, canon
}

// Slots returns the indices, in the statement's literal vector, of the
// literals the skeleton binds.
func (sk *Skeleton) Slots() []int {
	out := make([]int, len(sk.sites))
	for k, s := range sk.sites {
		out[k] = s.Slot
	}
	return out
}
