package core

import (
	"repro/internal/logical"
	"repro/internal/lru"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/sql/lexer"
	"repro/internal/sql/parser"
	"repro/internal/value"
)

// A statement reaches the planner through one of two memos in front of
// the parser, consulted in this order. Both are bounded LRUs safe for
// concurrent use, and an entry of either is only as good as the table
// resolutions its build made: it records them, and a session uses it
// only while every one replays to the same definition and source
// (resolutions.valid). Neither keeps an AST: a SELECT becomes a query
// only in Session.prepare (parsed and built) or Session.bind (bound from
// the shape memo), both behind one front end, Session.front, which
// execution, EXPLAIN, Session.Plan and a statement-memo miss share.
//
// stmtMemo maps SQL text to what an exact result-cache probe derives
// from it — the invalidation components and the plan fingerprint of its
// logical build — so a verbatim repeat skips the lexer, the parser, the
// builder and the fingerprint. A repeat that misses the result cache
// goes through the front end like any other statement. Only
// LIMIT/OFFSET-free SELECTs whose key was found in the result cache are
// memoized, so never-repeated statements do not occupy it; there is none
// without a result cache.
//
// shapeMemo maps a SELECT's shape (lexer.Shape: its token stream with
// the literals masked) to its build prepared for binding, so a statement
// that differs from one seen before only in its literals costs one lexer
// pass and a bind instead of a parse, a build and a rendering: its plan
// is the memoized one with the literals of its WHERE and ON comparisons
// bound in, its fingerprint the memoized one with their renderings
// spliced in at the spans that rendering recorded (logical.Skeleton),
// and its plan-cache template the memoized key with the bound slots
// (optimizer.Template.Bind); every other literal must equal the memoized
// statement's. A SELECT that misses fills it when its shape
// was seen before (seenOnce), so a shape that never repeats costs an
// entry, not a skeleton; it holds up to planCacheSize shapes.
type (
	stmtMemo  = lru.Map[string, *memoEntry]
	shapeMemo = lru.Map[string, *shapeEntry]
)

// memoEntry is one memoized statement. It is immutable once stored.
type memoEntry struct {
	sql   string
	canon logical.Canonical // of the build, without options prefix or Shape (no plan retained)
	// optsFP is the options prefix of the session that memoized the
	// statement, and key its full result-cache fingerprint
	// (optsFP+canon.Fingerprint), so a hit under the same prefix builds
	// no key string.
	optsFP, key string
	res         resolutions
}

// shapeEntry is one memoized statement shape. It is immutable once
// stored.
type shapeEntry struct {
	res  resolutions
	skel *logical.Skeleton
	// lits is the memoized statement's literal vector and slot marks the
	// ones skel binds; any other literal of a statement must equal it.
	lits []lexer.Literal
	slot []bool
	// tpl is the build's plan-cache template, whatever its literals.
	tpl *optimizer.Template
	// truncating marks a LIMIT or OFFSET.
	truncating bool
}

// seenOnce is the shape memo's entry for a shape seen once: the next
// statement of that shape, parsed and built, fills the memo.
var seenOnce = &shapeEntry{}

// newShapeEntry memoizes q, the statement whose shape has the literal
// vector lits, parsed into plits (parser.ParseLiterals). It returns nil
// when a literal's parsed value is not the one parser.Value gives its
// token, or when the skeleton cannot be prepared: such a shape is not
// memoized.
func newShapeEntry(q *query, lits []lexer.Literal, plits []*ast.Literal) *shapeEntry {
	if len(lits) != len(plits) {
		return nil
	}
	for i, l := range plits {
		v, ok := parser.Value(lits[i])
		if !ok || l == nil || v.Kind() != l.Val.Kind() || v.SQLLiteral() != l.Val.SQLLiteral() {
			return nil
		}
	}
	skel := logical.NewSkeleton(q.built, q.canon, plits)
	if skel == nil {
		return nil
	}
	e := &shapeEntry{res: q.res, skel: skel, lits: lits, slot: make([]bool, len(lits)), tpl: q.tpl, truncating: q.truncating}
	for _, i := range skel.Slots() {
		e.slot[i] = true
	}
	return e
}

// values returns the values the skeleton binds for lits, a statement of
// the entry's shape, or false when a literal it does not bind differs
// from the memoized one or one it binds does not parse: the statement
// then takes the parser's path, and its error.
func (e *shapeEntry) values(lits []lexer.Literal) ([]value.Value, bool) {
	if len(lits) != len(e.lits) {
		return nil, false
	}
	vals := make([]value.Value, len(lits))
	for i, l := range lits {
		if !e.slot[i] {
			if l != e.lits[i] {
				return nil, false
			}
			continue
		}
		v, ok := parser.Value(l)
		if !ok {
			return nil, false
		}
		vals[i] = v
	}
	return vals, true
}

// resolutions are the table lookups one logical build made.
type resolutions []resolution

// resolution is one table lookup a logical build made.
type resolution struct {
	name, explicit string
	def            *schema.TableDef
	source         string
}

// valid reports whether every table resolution still resolves to the
// same definition and source through rt: a bind that shadows a DB table
// or a rebind under a new definition invalidates it for that lookup.
func (res resolutions) valid(rt *Runtime) bool {
	for _, r := range res {
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
	res resolutions
}

func (r *recordingResolver) ResolveTable(name, explicit string) (*schema.TableDef, string, error) {
	def, source, err := r.rt.ResolveTable(name, explicit)
	if err == nil {
		r.res = append(r.res, resolution{name: name, explicit: explicit, def: def, source: source})
	}
	return def, source, err
}
