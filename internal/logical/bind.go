package logical

import (
	"slices"
	"strings"

	"repro/internal/sql/ast"
	"repro/internal/value"
)

// Site is one classified conjunct of a plan node: conjunct Index of a
// Filter or a Join, an LLMFilter's Cond (Index 0), or a Scan's
// Pushed[Index]. Slot is the index of the slot (Canonical.Slots) whose
// conjunct a bind puts there.
type Site struct {
	Node  Node
	Index int
	Slot  int
}

// Rebind returns n with the conjunct at each site replaced by the one of
// slots[site.Slot]. It path-copies: the nodes holding a site and every
// node above them are copied, every other subtree is shared. A Filter's condition and a
// Join's ON predicate keep their written AND nesting with each replaced
// conjunct's expression in its place, and a copied node keeps its
// schema, which no conjunct's literal decides.
func Rebind(n Node, sites []Site, slots []Slot) Node {
	left, right := Inputs(n)
	nl, nr := left, right
	if left != nil {
		nl = Rebind(left, sites, slots)
	}
	if right != nil {
		nr = Rebind(right, sites, slots)
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
			f.conjs = replaced(n, node.conjs, sites, slots)
			f.Cond = reAnd(node.Cond, f.conjs, new(int))
		}
		return &f
	case *Join:
		j := *node
		j.Left, j.Right = nl, nr
		if own {
			j.conjs = replaced(n, node.conjs, sites, slots)
			j.On = reAnd(node.On, j.conjs, new(int))
		}
		return &j
	case *LLMFilter:
		f := *node
		f.Input = nl
		for _, s := range sites {
			if s.Node == n {
				f.Cond = slots[s.Slot].Conjunct
			}
		}
		return &f
	case *Scan:
		s := *node
		s.Pushed = replaced(n, node.Pushed, sites, slots)
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
func replaced(n Node, old []Conjunct, sites []Site, slots []Slot) []Conjunct {
	out := append([]Conjunct(nil), old...)
	for _, s := range sites {
		if s.Node == n {
			out[s.Index] = slots[s.Slot].Conjunct
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
// it, its Slot. Bind rebuilds the plan for new such literals by
// path-copying the nodes that hold them (Rebind), and its canonical form
// by splicing their renderings into the fingerprint at the recorded
// spans, instead of building and rendering. A Skeleton is immutable and
// safe for concurrent use.
type Skeleton struct {
	built Node
	// canon is the built plan's canonical form without its Shape, which
	// Bind decomposes from the plan it binds.
	canon Canonical
	// label is the Shape's FromLabel, "" when the plan has no Shape.
	label string
	// sites are the bindable comparisons in fingerprint order, and lits,
	// site for site, the indices of their literals in the statement's
	// literal vector.
	sites []Site
	lits  []int
}

// NewSkeleton prepares built, whose canonical form is canon
// (Canonicalize(built)), for binding. lits are the statement's literals
// (parser.ParseLiterals); the ones a Skeleton binds are its slots, every
// other literal is part of the statement's identity, which the caller
// compares. It returns nil when the skeleton's own literals do not give
// back canon.
func NewSkeleton(built Node, canon Canonical, lits []*ast.Literal) *Skeleton {
	// A skeleton outlives the statement: it keeps its own copy of the
	// fingerprint, not the rendering buffer's spare capacity.
	sk := &Skeleton{built: built, canon: canon}
	sk.canon.Fingerprint = strings.Clone(canon.Fingerprint)
	sk.canon.Shape = nil
	if canon.Shape != nil {
		sk.label = canon.Shape.FromLabel
	}
	chain, _ := splitChain(built)
	base := chain[baseFilters(chain):]
	for i, s := range canon.Slots {
		if _, join := s.node.(*Join); !join && !slices.Contains(base, s.node) {
			continue
		}
		for j, l := range lits {
			if l == s.Lit {
				sk.sites = append(sk.sites, Site{Node: s.node, Index: s.index, Slot: i})
				sk.lits = append(sk.lits, j)
			}
		}
	}
	// The skeleton's own literals must give back the fingerprint.
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

// Bind returns the built plan and canonical form of the statement whose
// literal vector is vals: the skeleton's own with each site's literal
// replaced (vals entries that are no site's are not read). Its Shape is
// decomposed from the bound plan, so two base conjuncts that bind to one
// text count once, as Canonicalize counts them.
func (sk *Skeleton) Bind(vals []value.Value) (Node, Canonical) {
	tree, canon := sk.built, sk.canon
	if len(sk.sites) > 0 {
		canon = sk.splice(vals)
		tree = Rebind(sk.built, sk.sites, canon.Slots)
	}
	if sk.label != "" {
		chain, from := splitChain(tree)
		canon.Shape = decompose(chain, from, canon.Fingerprint[canon.from[0]:canon.from[1]], sk.label)
	}
	return tree, canon
}

// splice returns the skeleton's canonical form with each site's literal
// replaced by its value in vals: the site's slot rebound, its literal's
// rendering spliced into the fingerprint and every span after it moved.
func (sk *Skeleton) splice(vals []value.Value) Canonical {
	old := sk.canon.Slots
	canon := Canonical{Components: sk.canon.Components, Slots: make([]Slot, len(old)), from: sk.canon.from}
	n := len(sk.canon.Fingerprint)
	for i := range old {
		canon.Slots[i].Conjunct = old[i].Conjunct
	}
	for k, s := range sk.sites {
		c := &canon.Slots[s.Slot].Conjunct
		b := *c.Expr.(*ast.Binary)
		lit := &ast.Literal{Val: vals[sk.lits[k]]}
		if c.Mirrored {
			b.Left = lit
		} else {
			b.Right = lit
		}
		*c = NewConjunct(&b)
		n += c.litLen - (old[s.Slot].End - old[s.Slot].Start)
	}
	var b strings.Builder
	b.Grow(n)
	at, shift := 0, 0
	for i := range old {
		s := &canon.Slots[i]
		s.Start, s.End = old[i].Start+shift, old[i].End+shift
		if s.Text == old[i].Text {
			continue
		}
		start, end := s.litSpan()
		b.WriteString(sk.canon.Fingerprint[at:old[i].Start])
		b.WriteString(s.Text[start:end])
		at, s.End = old[i].End, s.Start+end-start
		for e, p := range sk.canon.from {
			if old[i].End <= p {
				canon.from[e] += s.End - old[i].End - shift
			}
		}
		shift = s.End - old[i].End
	}
	b.WriteString(sk.canon.Fingerprint[at:])
	canon.Fingerprint = b.String()
	return canon
}

// Slots returns the indices, in the statement's literal vector, of the
// literals the skeleton binds.
func (sk *Skeleton) Slots() []int { return sk.lits }
