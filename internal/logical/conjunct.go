package logical

import (
	"strings"

	"repro/internal/sql/ast"
	"repro/internal/value"
)

// Conjunct is one AND-ed term of a Filter condition or a Join's ON
// predicate, classified once, when the node holding it is built. Every
// conjunct keeps its expression as written and its text. A
// column-op-literal comparison — System R's sargable predicate, in
// either orientation — also carries its parts read column first: the one
// shape the optimizer can lower to a boolean prompt, merge into a
// retrieval prompt or estimate a selectivity for. Col is nil for any
// other conjunct.
type Conjunct struct {
	Expr ast.Expr
	Text string // Expr.String()

	Col *ast.ColumnRef
	// Op is the column-first operator: for the mirrored form
	// `literal op column` it is op mirrored, and Mirrored is set.
	Op       string
	Lit      *ast.Literal
	LitText  string // Lit.Val.String(), as statistics and prompt classes read it
	Mirrored bool
	// Key is the lower-cased column-first rendering, the text the
	// optimizer's per-conjunct options are keyed by. The lower-casing
	// folds string literals: `country = 'Italy'` and `country = 'italy'`
	// share one key.
	Key string
	// litLen is the length of the literal's rendering (Lit.String()) in
	// Text: its start when Mirrored, else its end.
	litLen int
}

// NewConjunct classifies one conjunct.
func NewConjunct(e ast.Expr) Conjunct {
	c := Conjunct{Expr: e}
	bin, ok := e.(*ast.Binary)
	mirrored, cmp := "", false
	if ok {
		mirrored, cmp = mirrorOp[bin.Op]
	}
	if !cmp {
		c.Text = e.String()
		return c
	}
	if ref, ok := bin.Left.(*ast.ColumnRef); ok {
		if lit, ok := bin.Right.(*ast.Literal); ok {
			c.Col, c.Op, c.Lit = ref, bin.Op, lit
		}
	} else if ref, ok := bin.Right.(*ast.ColumnRef); ok {
		if lit, ok := bin.Left.(*ast.Literal); ok {
			c.Col, c.Op, c.Lit, c.Mirrored = ref, mirrored, lit, true
		}
	}
	// A comparison renders as its operands around the operator
	// (ast.Binary.String); a number's rendering is its LitText too.
	l, r := bin.Left.String(), bin.Right.String()
	c.Text = l + " " + bin.Op + " " + r
	if c.Col != nil {
		c.LitText, c.litLen = r, len(r)
		if c.Mirrored {
			c.LitText, c.litLen = l, len(l)
		}
		if k := c.Lit.Val.Kind(); k != value.KindInt && k != value.KindFloat {
			c.LitText = c.Lit.Val.String()
		}
		c.Key = strings.ToLower(c.Comparison())
	}
	return c
}

// ContainsText reports whether one of cs renders as text.
func ContainsText(cs []Conjunct, text string) bool {
	for i := range cs {
		if cs[i].Text == text {
			return true
		}
	}
	return false
}

// litSpan returns the span [start, end) of Text that a column-op-literal
// conjunct's literal rendering takes.
func (c *Conjunct) litSpan() (int, int) {
	if c.Mirrored {
		return 0, c.litLen
	}
	return len(c.Text) - c.litLen, len(c.Text)
}

// classify appends e's AND-ed conjuncts to cs, left to right as
// ast.Conjuncts splits them, each classified; nothing for a nil e.
func classify(cs []Conjunct, e ast.Expr) []Conjunct {
	if b, ok := e.(*ast.Binary); ok && b.Op == "AND" {
		return classify(classify(cs, b.Left), b.Right)
	}
	if e == nil {
		return cs
	}
	return append(cs, NewConjunct(e))
}

// and re-ANDs the conjuncts' expressions left-deep (ast.And).
func and(cs []Conjunct) ast.Expr {
	if len(cs) == 0 {
		return nil
	}
	e := cs[0].Expr
	for _, c := range cs[1:] {
		e = &ast.Binary{Op: "AND", Left: e, Right: c.Expr}
	}
	return e
}

// Comparison renders a column-op-literal conjunct column first, as a
// boolean prompt filter and a retrieval prompt show it.
func (c Conjunct) Comparison() string {
	if !c.Mirrored {
		return c.Text
	}
	return c.Col.String() + " " + c.Op + " " + c.Lit.String()
}

// mirrorOp maps each comparison operator to the one that compares the
// same operands in the other order.
var mirrorOp = map[string]string{"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
