package logical

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/sql/ast"
)

// Canonical is the canonical form of one built (pre-optimization) plan,
// taken from one rendering of it: the Fingerprint exact-match result
// caching keys by, the sorted invalidation Components of the base
// relations it reads, the Shape subsumption matches against (nil when
// the plan does not decompose), whose FromKey is the FROM tree's span of
// the fingerprint, and the Slots, where the plan-cache template
// (optimizer.TemplateOf) and the shape memo's Skeleton cut the
// fingerprint.
//
// Two plans share a fingerprint only if they would compute the same
// relation against the same runtime state. It keeps every Describe line
// (operator kind, conditions with their literals, projection items, sort
// order, LIMIT and OFFSET) and folds in what Describe omits: a Scan's
// resolved source, key column and declared schema, so two bindings of
// one table name never collide, and a Distinct's key-column prefix. It
// ignores anything that only changes *how* the relation is computed
// (worker budgets, pipelining, candidate plan choice): the differential
// harness pins those result-identical. Result-affecting session options
// are prefixed by the caller — see core.Session.
type Canonical struct {
	Fingerprint string
	Components  []string
	Shape       *Shape
	// Slots are the column-op-literal conjuncts of the plan's Filters and
	// Joins, in fingerprint order.
	Slots []Slot
	// from is the FROM tree's span of the fingerprint.
	from [2]int
}

// Slot is one column-op-literal conjunct of a Filter or a Join, with the
// span [Start, End) of the fingerprint that its literal's rendering
// (Lit.String()) takes.
type Slot struct {
	Conjunct
	Start, End int
	// node holds the conjunct at index in the plan Canonicalize
	// rendered, where NewSkeleton finds its sites; a slot Skeleton.Bind
	// splices keeps neither.
	node  Node
	index int
}

// Canonicalize renders n once and returns its canonical form.
func Canonicalize(n Node) Canonical {
	chain, from := splitChain(n)
	var b strings.Builder
	b.Grow(512)
	r := renderer{b: &b, from: from}
	r.node(n)
	slices.Sort(r.comps)
	c := Canonical{Fingerprint: b.String(), Components: r.comps, Slots: r.slots, from: [2]int{r.start, r.end}}
	if fromOnly(from) {
		c.Shape = decompose(chain, from, c.Fingerprint[r.start:r.end], fromLabel(from))
	}
	return c
}

// splitChain splits a built plan into the single-input operator chain
// the builder emits, outermost first, and the FROM tree below it.
func splitChain(n Node) (chain []Node, from Node) {
	chain = make([]Node, 0, 8)
	for from = n; ; {
		switch from.(type) {
		case *StripProject, *Limit, *Sort, *Distinct, *Project, *Aggregate, *Filter:
			chain = append(chain, from)
			from, _ = Inputs(from)
		default:
			return chain, from
		}
	}
}

// Fingerprint returns n's fingerprint (see Canonical).
func Fingerprint(n Node) string { return Canonicalize(n).Fingerprint }

// renderer writes one plan's canonical form to b. It records the span
// [start, end) of b that from's rendering takes, the components of the
// scans it renders and the slots of the predicates it writes.
type renderer struct {
	b          *strings.Builder
	from       Node
	start, end int
	comps      []string
	slots      []Slot
}

func (r *renderer) node(n Node) {
	b := r.b
	if n == r.from {
		r.start = b.Len()
	}
	b.WriteByte('(')
	switch node := n.(type) {
	case *Filter:
		b.WriteString("Filter ")
		r.pred(n, node.Cond, node.conjs, 0)
	case *Join:
		b.WriteString(node.name())
		if node.On != nil {
			b.WriteString(" ON ")
			r.pred(n, node.On, node.conjs, 0)
		}
	case *Scan:
		b.WriteString(node.Describe())
		b.WriteString("|src=")
		b.WriteString(node.Source)
		b.WriteString("|key=")
		b.WriteString(node.Table.KeyColumn)
		b.WriteString("|cols=")
		for _, c := range node.Table.Schema.Columns {
			b.WriteString(c.Name)
			b.WriteByte(':')
			b.WriteString(c.Type.String())
			b.WriteByte(',')
		}
		r.comps = addComponent(r.comps, node)
	case *Distinct:
		b.WriteString("Distinct|keycols=")
		b.WriteString(strconv.Itoa(node.KeyCols))
	case *CachedScan:
		// Residual plans are never used as cache keys themselves, but a
		// fingerprint of one must still identify the entry it reads.
		b.WriteString(node.Describe() + "|src=" + node.Source + "|stamp=" + node.Stamp)
	default:
		b.WriteString(n.Describe())
	}
	left, right := Inputs(n)
	if left != nil {
		r.node(left)
	}
	if right != nil {
		r.node(right)
	}
	b.WriteByte(')')
	if n == r.from {
		r.end = b.Len()
	}
}

// pred writes e, the AND of n's conjuncts cs[i:] as classify split them,
// as e.String() does: conjunct by conjunct, each AND or OR operand of an
// AND parenthesized. It records every column-op-literal conjunct as a
// slot and returns the index of the conjunct after e's.
func (r *renderer) pred(n Node, e ast.Expr, cs []Conjunct, i int) int {
	if b, ok := e.(*ast.Binary); ok && b.Op == "AND" {
		i = r.operand(n, b.Left, cs, i)
		r.b.WriteString(" AND ")
		return r.operand(n, b.Right, cs, i)
	}
	c := &cs[i]
	if c.Col != nil {
		start, end := c.litSpan()
		at := r.b.Len()
		r.slots = append(r.slots, Slot{Conjunct: *c, Start: at + start, End: at + end, node: n, index: i})
	}
	r.b.WriteString(c.Text)
	return i + 1
}

// operand writes one operand of an AND, parenthesized when it is itself
// an AND or an OR.
func (r *renderer) operand(n Node, e ast.Expr, cs []Conjunct, i int) int {
	if b, ok := e.(*ast.Binary); !ok || b.Op != "AND" && b.Op != "OR" {
		return r.pred(n, e, cs, i)
	}
	r.b.WriteByte('(')
	i = r.pred(n, e, cs, i)
	r.b.WriteByte(')')
	return i
}
