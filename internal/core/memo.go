package core

import (
	"container/list"
	"sync"

	"repro/internal/schema"
	"repro/internal/sql/ast"
)

// stmtMemo maps SQL text to what an exact result-cache probe derives
// from it — the parsed SELECT, the invalidation components and the plan
// fingerprint of its logical build — so a repeated statement skips the
// parser, the builder and the fingerprint. An entry is only as good as
// the table resolutions its build made: it records them, and a session
// uses it only while every one replays to the same definition and source
// (memoEntry.valid). Only LIMIT/OFFSET-free SELECTs whose key was found
// in the result cache are memoized, so never-repeated statements do not
// occupy it. Bounded LRU; safe for concurrent use.
type stmtMemo struct {
	mu       sync.Mutex
	capacity int
	items    map[string]*list.Element
	order    *list.List // front = most recently used
}

// memoEntry is one memoized statement. It is immutable once stored.
type memoEntry struct {
	sql   string
	sel   *ast.Select
	comps []string // logical.Components of the build (sorted)
	fp    string   // logical.Fingerprint of the build, without the options prefix
	res   []resolution
}

// resolution is one table lookup a logical build made.
type resolution struct {
	name, explicit string
	def            *schema.TableDef
	source         string
}

func newStmtMemo(capacity int) *stmtMemo {
	return &stmtMemo{capacity: capacity, items: map[string]*list.Element{}, order: list.New()}
}

// get returns the entry memoized for sql, or nil.
func (m *stmtMemo) get(sql string) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[sql]
	if !ok {
		return nil
	}
	m.order.MoveToFront(el)
	return el.Value.(*memoEntry)
}

// put stores e under its text, replacing any older entry for it and
// evicting the least recently used entry past capacity.
func (m *stmtMemo) put(e *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[e.sql]; ok {
		el.Value = e
		m.order.MoveToFront(el)
		return
	}
	m.items[e.sql] = m.order.PushFront(e)
	if m.order.Len() > m.capacity {
		back := m.order.Back()
		m.order.Remove(back)
		delete(m.items, back.Value.(*memoEntry).sql)
	}
}

// valid reports whether every table resolution the entry's build made
// still resolves to the same definition and source through s: a bind
// that shadows a DB table, a rebind under a new definition, or a session
// with another DefaultSource all invalidate it for that lookup.
func (e *memoEntry) valid(s *Session) bool {
	for _, r := range e.res {
		def, source, err := s.ResolveTable(r.name, r.explicit)
		if err != nil || def != r.def || source != r.source {
			return false
		}
	}
	return true
}

// recordingResolver resolves through the session and logs every
// resolution, so the build it serves can be memoized.
type recordingResolver struct {
	s   *Session
	res []resolution
}

func (r *recordingResolver) ResolveTable(name, explicit string) (*schema.TableDef, string, error) {
	def, source, err := r.s.ResolveTable(name, explicit)
	if err == nil {
		r.res = append(r.res, resolution{name: name, explicit: explicit, def: def, source: source})
	}
	return def, source, err
}
