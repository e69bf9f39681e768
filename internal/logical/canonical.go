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
// relations it reads, and the Shape subsumption matches against (nil
// when the plan does not decompose), whose FromKey is the FROM tree's
// span of the fingerprint.
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
}

// Canonicalize renders n once and returns its canonical form.
func Canonicalize(n Node) Canonical {
	var chain []Node
	from := n
walk:
	for {
		switch from.(type) {
		case *StripProject, *Limit, *Sort, *Distinct, *Project, *Aggregate, *Filter:
			chain = append(chain, from)
			from = from.Children()[0]
		default:
			break walk
		}
	}
	var b strings.Builder
	b.Grow(512)
	r := renderer{b: &b, pred: verbatim, from: from, collect: true}
	r.node(n)
	slices.Sort(r.comps)
	c := Canonical{Fingerprint: b.String(), Components: r.comps}
	if fromOnly(from) {
		c.Shape = decompose(chain, from, c.Fingerprint[r.start:r.end])
	}
	return c
}

// Fingerprint returns n's fingerprint (see Canonical).
func Fingerprint(n Node) string { return Canonicalize(n).Fingerprint }

// Render appends n's canonical form to b, each node parenthesized with
// its children in order. pred writes every Filter condition and Join ON
// predicate after the node's name: the fingerprint writes it verbatim;
// the plan-cache template (optimizer.NewTemplate) writes the conjuncts
// with their comparison literals masked.
func Render(b *strings.Builder, n Node, pred func(*strings.Builder, ast.Expr)) {
	r := renderer{b: b, pred: pred}
	r.node(n)
}

// verbatim writes a predicate as the fingerprint does.
func verbatim(b *strings.Builder, e ast.Expr) {
	b.WriteByte(' ')
	b.WriteString(e.String())
}

// renderer writes one plan's canonical form to b. It records the span
// [start, end) of b that from's rendering takes and, with collect, the
// components of the scans it renders.
type renderer struct {
	b          *strings.Builder
	pred       func(*strings.Builder, ast.Expr)
	from       Node
	start, end int
	collect    bool
	comps      []string
}

func (r *renderer) node(n Node) {
	b := r.b
	if n == r.from {
		r.start = b.Len()
	}
	b.WriteByte('(')
	switch node := n.(type) {
	case *Filter:
		b.WriteString("Filter")
		r.pred(b, node.Cond)
	case *Join:
		b.WriteString(node.name())
		if node.On != nil {
			b.WriteString(" ON")
			r.pred(b, node.On)
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
		if r.collect {
			r.comps = addComponent(r.comps, node)
		}
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
	for _, c := range n.Children() {
		r.node(c)
	}
	b.WriteByte(')')
	if n == r.from {
		r.end = b.Len()
	}
}
