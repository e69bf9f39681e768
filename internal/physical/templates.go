package physical

import (
	"sync"
	"sync/atomic"

	"repro/internal/clean"
	"repro/internal/llm"
	"repro/internal/value"
)

// Templates memoizes the prompt templates of attribute fetches and key
// scans, so an operator's Open reuses the template an earlier query
// built, with its few-shot preamble, its hash and its token counts.
// Templates equal in text are then one pointer, which a resident prompt's
// cache hit compares first. A template is keyed by its role, table, key
// column or attribute, and its decoder (the cell's kind and the
// cleaner's options). A key scan with pushed conditions carries their
// literals in its text and is built afresh, which keeps the memo bounded
// by the schema; a key scan's set also holds the steps of the page chain
// it last read (stepAfter), at most one chain per scan. One Templates
// serves the contexts of one prompt builder, as a session resolution's do; the zero value is empty, and a
// nil *Templates memoizes nothing. Safe for concurrent use.
type Templates struct {
	mu sync.Mutex
	m  map[templateKey]templateSet
}

// templateKey names one memoized template set.
type templateKey struct {
	role        llm.Role
	table, name string // name: the fetched attribute, or the scan's key column
	kind        value.Kind
	opts        clean.Options
}

// templateSet is one memoized set: a fetch's template, or a key scan's
// first page and its later pages, with the memo of the chain's first
// step (stepAfter).
type templateSet struct {
	main, more *llm.Template
	first      *atomic.Pointer[pageStep]
}

// get returns k's templates, building them with build on first use.
func (t *Templates) get(k templateKey, build func() templateSet) templateSet {
	if t == nil {
		return build()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ts, ok := t.m[k]
	if !ok {
		ts = build()
		if t.m == nil {
			t.m = map[templateKey]templateSet{}
		}
		t.m[k] = ts
	}
	return ts
}
