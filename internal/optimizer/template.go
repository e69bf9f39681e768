package optimizer

import (
	"strings"

	"repro/internal/logical"
)

// Template is a built plan's identity with its comparison literals taken
// out. Two statements that differ only in the literals of their
// column-op-literal conjuncts — the only literals the enumeration reads —
// share a key: the plan's fingerprint (logical.Canonical: operators,
// table bindings with source, key and schema, predicates with their AND
// nesting as written, projections, LIMIT/OFFSET counts, every other
// literal) with the span of each such literal replaced by a NUL, which no
// fingerprint contains (the lexer stops at one), and the literal's kind.
// The conjuncts are the template's slots: the canonical form's Slots,
// recorded by the same rendering.
type Template struct {
	key string
	// prefix is the length of key's planning-inputs prefix.
	prefix int
	// slots are the column-op-literal conjuncts, in fingerprint order. A
	// slot's literal as statistics and prompt classes read it is its
	// LitText, the text the per-conjunct lowering decisions are keyed by
	// its Key.
	slots []logical.Slot
}

// Key returns the template's literal-free identity.
func (t *Template) Key() string { return t.key }

// TemplateOf computes the template of a built (pre-optimization) plan
// from its canonical form c, its key prefixed with prefix (the caller's
// planning inputs, folded in without a second copy). The plan cache
// serves it only when its slots are distinct (Distinct); either way it
// is the template statements of the same shape Bind to.
func TemplateOf(c logical.Canonical, prefix string) *Template {
	n := len(prefix) + len(c.Fingerprint)
	for i := range c.Slots {
		s := &c.Slots[i]
		n += 1 + len(s.Lit.Val.Kind().String()) - (s.End - s.Start)
	}
	// The key outlives the statement in the plan cache and the shape
	// memo: it is built at its final length, with no spare capacity.
	var b strings.Builder
	b.Grow(n)
	b.WriteString(prefix)
	at := 0
	for i := range c.Slots {
		s := &c.Slots[i]
		b.WriteString(c.Fingerprint[at:s.Start])
		b.WriteByte(0)
		b.WriteString(s.Lit.Val.Kind().String())
		at = s.End
	}
	b.WriteString(c.Fingerprint[at:])
	return &Template{key: b.String(), prefix: len(prefix), slots: c.Slots}
}

// Bind returns the template of the statement whose canonical form is c,
// one that differs from the statement t was computed from only in its
// slot literals (logical.Skeleton.Bind), under prefix: t's key, copied
// only when prefix differs, with c's slots.
func (t *Template) Bind(c logical.Canonical, prefix string) *Template {
	out := &Template{key: t.key, prefix: len(prefix), slots: c.Slots}
	if t.key[:t.prefix] != prefix {
		out.key = prefix + t.key[t.prefix:]
	}
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
