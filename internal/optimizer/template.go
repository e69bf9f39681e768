package optimizer

import (
	"strconv"
	"strings"

	"repro/internal/logical"
	"repro/internal/sql/ast"
)

// Template is a built plan's identity with its comparison literals taken
// out. Two statements that differ only in the literals of their
// column-op-literal conjuncts — the only literals the enumeration reads —
// share a key: the plan's canonical form (logical.Render: operators,
// table bindings with source, key and schema, projections, LIMIT/OFFSET
// counts, every other literal) with each such literal replaced by a
// placeholder tagged with its kind. The literals themselves are the template's slots, in plan
// order.
type Template struct {
	key   string
	slots []slot
}

// slot is one comparison literal of a statement.
type slot struct {
	// lit is the literal as statistics and prompt classes read it
	// (Value.String).
	lit string
	// key is its conjunct's conjKey, column first: the text the
	// per-conjunct lowering decisions are keyed by.
	key string
}

// Key returns the template's literal-free identity.
func (t *Template) Key() string { return t.key }

// NewTemplate computes the template of a built (pre-optimization) plan,
// its key prefixed with prefix (the caller's planning inputs, folded in
// without a second copy). It reports false when two slots render the
// same literal (compared case-insensitively, as statistics are keyed): a
// read of that literal could then belong to either slot, so the
// statement's reads cannot be replayed for other literals.
func NewTemplate(built logical.Node, prefix string) (*Template, bool) {
	t := &Template{}
	var b strings.Builder
	b.Grow(len(prefix) + 256)
	b.WriteString(prefix)
	logical.Render(&b, built, t.conjuncts)
	for i := range t.slots {
		for j := i + 1; j < len(t.slots); j++ {
			if strings.EqualFold(t.slots[i].lit, t.slots[j].lit) || t.slots[i].key == t.slots[j].key {
				return nil, false
			}
		}
	}
	t.key = b.String()
	return t, true
}

// conjuncts writes a predicate as its flattened conjunct list. A
// column-op-literal conjunct keeps its column, operator and orientation
// and becomes a slot; any other conjunct is written verbatim, length
// prefixed so no literal inside it can fake a boundary.
func (t *Template) conjuncts(b *strings.Builder, e ast.Expr) {
	for _, c := range ast.Conjuncts(e) {
		cmp, ok := asColumnLiteral(c)
		if !ok {
			text := c.String()
			b.WriteString("|")
			b.WriteString(strconv.Itoa(len(text)))
			b.WriteByte(':')
			b.WriteString(text)
			continue
		}
		b.WriteString("|[")
		b.WriteString(cmp.ref.String())
		b.WriteByte(' ')
		b.WriteString(cmp.op)
		b.WriteString(" ?")
		b.WriteString(cmp.lit.Val.Kind().String())
		if cmp.mirrored {
			b.WriteString(" mirrored")
		}
		b.WriteByte(']')
		t.slots = append(t.slots, slot{
			lit: cmp.lit.Val.String(),
			key: conjKey(&ast.Binary{Op: cmp.op, Left: cmp.ref, Right: cmp.lit}),
		})
	}
}

// slotOfLit returns the slot whose literal is lit, or -1.
func (t *Template) slotOfLit(lit string) int {
	for i, s := range t.slots {
		if s.lit == lit {
			return i
		}
	}
	return -1
}

// slotOfKey returns the slot whose conjunct key is key, or -1.
func (t *Template) slotOfKey(key string) int {
	for i, s := range t.slots {
		if s.key == key {
			return i
		}
	}
	return -1
}
