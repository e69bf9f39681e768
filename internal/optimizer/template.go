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
// placeholder tagged with its kind. The literals themselves are the
// template's slots, in plan order. It is written from the Filters' and
// Joins' classified conjuncts (logical.Conjunct): a slot's literal text
// and lowering key are the conjunct's LitText and Key.
type Template struct {
	key string
	// prefix is the length of key's planning-inputs prefix.
	prefix int
	// slots are the column-op-literal conjuncts, in plan order. A slot's
	// literal as statistics and prompt classes read it is its LitText,
	// the text the per-conjunct lowering decisions are keyed by its Key.
	slots []logical.Conjunct
}

// Key returns the template's literal-free identity.
func (t *Template) Key() string { return t.key }

// TemplateOf computes the template of a built (pre-optimization) plan,
// its key prefixed with prefix (the caller's planning inputs, folded in
// without a second copy). The plan cache serves it only when its slots
// are distinct (Distinct); either way it is the template statements of
// the same shape Bind to.
func TemplateOf(built logical.Node, prefix string) *Template {
	t := &Template{prefix: len(prefix)}
	var b strings.Builder
	b.Grow(len(prefix) + 256)
	b.WriteString(prefix)
	logical.Render(&b, built, t.conjuncts)
	// The key outlives the rendering in the plan cache and the shape
	// memo: it keeps no spare capacity.
	t.key = strings.Clone(b.String())
	return t
}

// Bind returns the template of built, a plan that differs from the one t
// was computed from only in its slot literals (logical.Skeleton.Bind),
// under prefix: t's key, rendered again only when prefix differs, with
// built's slots.
func (t *Template) Bind(built logical.Node, prefix string) *Template {
	out := &Template{key: t.key, prefix: len(prefix), slots: make([]logical.Conjunct, 0, len(t.slots))}
	if t.key[:t.prefix] != prefix {
		out.key = prefix + t.key[t.prefix:]
	}
	logical.Walk(built, func(n logical.Node) bool {
		var cs []logical.Conjunct
		switch node := n.(type) {
		case *logical.Filter:
			cs = node.Conjuncts()
		case *logical.Join:
			cs = node.Conjuncts()
		}
		for i := range cs {
			if cs[i].Col != nil {
				out.slots = append(out.slots, cs[i])
			}
		}
		return true
	})
	return out
}

// Distinct reports whether no two slots share a literal (compared
// case-insensitively, as statistics are keyed) or a key: whether the
// plan cache may serve the template. Where two slots share one, a read
// of that literal could belong to either slot, so the statement's reads
// cannot be replayed for other literals.
func (t *Template) Distinct() bool {
	for i := range t.slots {
		for j := i + 1; j < len(t.slots); j++ {
			if strings.EqualFold(t.slots[i].LitText, t.slots[j].LitText) || t.slots[i].Key == t.slots[j].Key {
				return false
			}
		}
	}
	return true
}

// conjuncts writes a predicate as its classified conjunct list. A
// column-op-literal conjunct keeps its column, operator and orientation
// and becomes a slot; any other conjunct is written verbatim, length
// prefixed so no literal inside it can fake a boundary.
func (t *Template) conjuncts(b *strings.Builder, _ ast.Expr, cs []logical.Conjunct) {
	for i := range cs {
		c := &cs[i]
		if c.Col == nil {
			b.WriteString("|")
			b.WriteString(strconv.Itoa(len(c.Text)))
			b.WriteByte(':')
			b.WriteString(c.Text)
			continue
		}
		b.WriteString("|[")
		b.WriteString(c.Col.String())
		b.WriteByte(' ')
		b.WriteString(c.Op)
		b.WriteString(" ?")
		b.WriteString(c.Lit.Val.Kind().String())
		if c.Mirrored {
			b.WriteString(" mirrored")
		}
		b.WriteByte(']')
		t.slots = append(t.slots, *c)
	}
}

// slotOfLit returns the slot whose literal is lit, or -1.
func (t *Template) slotOfLit(lit string) int {
	for i := range t.slots {
		if t.slots[i].LitText == lit {
			return i
		}
	}
	return -1
}

// slotOfKey returns the slot whose conjunct key is key, or -1.
func (t *Template) slotOfKey(key string) int {
	for i := range t.slots {
		if t.slots[i].Key == key {
			return i
		}
	}
	return -1
}
