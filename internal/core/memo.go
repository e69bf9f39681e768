package core

import (
	"repro/internal/logical"
	"repro/internal/lru"
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
type stmtMemo = lru.Map[string, *memoEntry]

// memoEntry is one memoized statement. It is immutable once stored.
type memoEntry struct {
	sql   string
	sel   *ast.Select
	canon logical.Canonical // of the build, without options prefix or Shape (no plan retained)
	// optsFP is the options prefix of the session that memoized the
	// statement, and key its full result-cache fingerprint
	// (optsFP+canon.Fingerprint), so a hit under the same prefix builds
	// no key string.
	optsFP, key string
	res         []resolution
}

// resolution is one table lookup a logical build made.
type resolution struct {
	name, explicit string
	def            *schema.TableDef
	source         string
}

// valid reports whether every table resolution the entry's build made
// still resolves to the same definition and source through rt: a bind
// that shadows a DB table or a rebind under a new definition
// invalidates it for that lookup.
func (e *memoEntry) valid(rt *Runtime) bool {
	for _, r := range e.res {
		def, source, err := rt.ResolveTable(r.name, r.explicit)
		if err != nil || def != r.def || source != r.source {
			return false
		}
	}
	return true
}

// recordingResolver resolves through the runtime and logs every
// resolution, so the build it serves can be memoized.
type recordingResolver struct {
	rt  *Runtime
	res []resolution
}

func (r *recordingResolver) ResolveTable(name, explicit string) (*schema.TableDef, string, error) {
	def, source, err := r.rt.ResolveTable(name, explicit)
	if err == nil {
		r.res = append(r.res, resolution{name: name, explicit: explicit, def: def, source: source})
	}
	return def, source, err
}
