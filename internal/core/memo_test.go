package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/simllm"
	"repro/internal/world"
)

// TestStatementMemoAdmission: only LIMIT/OFFSET-free SELECTs whose key
// was found in the result cache are memoized, the memo is an LRU bounded
// by ResultCacheSize, and there is no memo without a result cache.
func TestStatementMemoAdmission(t *testing.T) {
	w := world.Build()
	if rt := runtimeOver(t, simllm.New(simllm.ChatGPT, w, 1), DefaultOptions(), w); rt.memo != nil {
		t.Fatal("a runtime without a result cache has a statement memo")
	}
	opts := resultCacheOptions()
	opts.ResultCacheSize = 2
	rt := runtimeOver(t, simllm.New(simllm.ChatGPT, w, 1), opts, w)
	sess := rt.NewSession()
	query := func(sql string) {
		t.Helper()
		if _, _, err := sess.Query(context.Background(), sql); err != nil {
			t.Fatal(err)
		}
	}

	query(rcQuery)
	if rt.memo.Get(rcQuery) != nil {
		t.Error("a statement was memoized before its key was ever found in the cache")
	}
	query(rcQuery)
	if rt.memo.Get(rcQuery) == nil {
		t.Fatal("an exact hit was not memoized")
	}
	limited := rcQuery + " LIMIT 3"
	query(limited)
	query(limited)
	if rt.memo.Get(limited) != nil {
		t.Error("a LIMIT statement was memoized")
	}
	for _, sql := range []string{
		`SELECT name FROM country WHERE continent = 'Asia'`,
		`SELECT name FROM country WHERE continent = 'Africa'`,
	} {
		query(sql)
		query(sql)
	}
	if n := rt.memo.Len(); n != 2 {
		t.Errorf("memo holds %d entries, want its capacity 2", n)
	}
	if rt.memo.Get(rcQuery) != nil {
		t.Error("the least recently used entry survived past capacity")
	}
}

// TestQueryRejectsStatements: SQL that does not parse and statements
// other than SELECT/EXPLAIN fail with ErrStatement on both entry points,
// with and without the result cache; a planning failure does not.
func TestQueryRejectsStatements(t *testing.T) {
	w := world.Build()
	ctx := context.Background()
	for _, opts := range []Options{DefaultOptions(), resultCacheOptions()} {
		sess := runtimeOver(t, simllm.New(simllm.ChatGPT, w, 1), opts, w).NewSession()
		for _, sql := range []string{"SELEC nonsense", "INSERT INTO country VALUES ('Atlantis')"} {
			if _, _, err := sess.Query(ctx, sql); !errors.Is(err, ErrStatement) {
				t.Errorf("Query(%q) = %v, want ErrStatement", sql, err)
			}
			if _, err := sess.QueryStream(ctx, sql); !errors.Is(err, ErrStatement) {
				t.Errorf("QueryStream(%q) = %v, want ErrStatement", sql, err)
			}
		}
		if _, _, err := sess.Query(ctx, "SELECT name FROM atlantis"); err == nil || errors.Is(err, ErrStatement) {
			t.Errorf("unknown table: err = %v, want a non-statement error", err)
		}
	}
}

// dbCountryRuntime is a result-cache runtime over the simulated model
// with only the DB country table attached.
func dbCountryRuntime(t *testing.T, w *world.World) *Runtime {
	t.Helper()
	rt := NewRuntime(simllm.New(simllm.ChatGPT, w, 1), resultCacheOptions())
	rt.AttachDB(mustDB(t))
	return rt
}

// TestMemoShadowingBind: a statement memoized while "country" resolved
// to the DB table runs against the LLM binding once BindLLMTable shadows
// it — the memoized resolution no longer replays, so the memo misses.
func TestMemoShadowingBind(t *testing.T) {
	w := world.Build()
	ctx := context.Background()
	wantLLM, _ := soloRun(t, w, rcQuery)

	rt := dbCountryRuntime(t, w)
	for i := 0; i < 2; i++ {
		if _, _, err := rt.NewSession().Query(ctx, rcQuery); err != nil {
			t.Fatal(err)
		}
	}
	if e := rt.memo.Get(rcQuery); e == nil || len(e.res) != 1 || e.res[0].source != "DB" {
		t.Fatalf("memo entry = %+v, want one DB resolution", e)
	}
	if err := rt.BindLLMTable(w.Table("country").Def); err != nil {
		t.Fatal(err)
	}
	rel, rep, err := rt.NewSession().Query(ctx, rcQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cached != CacheNone || rep.Stats.Prompts == 0 || !strings.Contains(rep.Plan, "LLMKeyScan") {
		t.Errorf("after the shadowing bind: cached=%q prompts=%d plan:\n%s\nwant a fresh LLM execution",
			rep.Cached, rep.Stats.Prompts, rep.Plan)
	}
	if rel.String() != wantLLM.String() {
		t.Errorf("after the shadowing bind got:\n%s\nwant the LLM relation:\n%s", rel.String(), wantLLM.String())
	}
}

// TestMemoPerSessionRoutes: two sessions that differ only in Routes —
// every prompt role pinned to another backend — get their own relations
// for the same text.
func TestMemoPerSessionRoutes(t *testing.T) {
	w := world.Build()
	ctx := context.Background()
	routes := map[string]string{"keyscan": "b", "fetch": "b", "filter": "b"}
	newRT := func(opts Options) *Runtime {
		t.Helper()
		rt, err := NewRuntimeWithBackends([]BackendDef{
			{Name: "a", Client: simllm.New(simllm.ChatGPT, w, 1)},
			{Name: "b", Client: simllm.New(simllm.GPT3, w, 1)},
		}, "a", nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"country", "city"} {
			if err := rt.BindLLMTable(w.Table(name).Def); err != nil {
				t.Fatal(err)
			}
		}
		return rt
	}
	routed := func(rt *Runtime) *Session {
		s := rt.NewSession()
		o := s.Options()
		o.Routes = routes
		s.SetOptions(o)
		return s
	}

	// References from a runtime without the result cache (no memo).
	ref := newRT(DefaultOptions())
	wantA, _, err := ref.NewSession().Query(ctx, rcQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantB, _, err := routed(ref).Query(ctx, rcQuery)
	if err != nil {
		t.Fatal(err)
	}
	if wantA.String() == wantB.String() {
		t.Fatal("fixture vacuous: both backends return the same relation")
	}

	rt := newRT(resultCacheOptions())
	checkSessions(t, rt, [2]*Session{rt.NewSession(), routed(rt)}, [2]string{wantA.String(), wantB.String()})
}

// checkSessions runs rcQuery on session 0 until it is memoized, then
// alternates the two sessions: each first run of session 1 executes, and
// every later run of either is an exact hit — always of its own relation.
func checkSessions(t *testing.T, rt *Runtime, sess [2]*Session, want [2]string) {
	t.Helper()
	ctx := context.Background()
	for k, step := range []struct {
		i      int
		cached CacheOutcome
	}{{0, CacheNone}, {0, CacheExact}, {1, CacheNone}, {1, CacheExact}, {0, CacheExact}, {1, CacheExact}} {
		rel, rep, err := sess[step.i].Query(ctx, rcQuery)
		if err != nil {
			t.Fatal(err)
		}
		if rel.String() != want[step.i] {
			t.Errorf("session %d got:\n%s\nwant:\n%s", step.i, rel.String(), want[step.i])
		}
		if rep.Cached != step.cached {
			t.Errorf("session %d cached = %q, want %q", step.i, rep.Cached, step.cached)
		}
		if k > 0 && rt.memo.Get(rcQuery) == nil {
			t.Errorf("step %d: the statement is not memoized", k)
		}
	}
}

// TestMemoStaleRebuildFallsBack pins the interleaving where a bind lands
// after a memo entry's resolutions replayed but before a miss rebuilds
// from it: the rebuilt plan reads the new binding, so the memoized key's
// flight must be released rather than filled with the new plan's
// relation. openMemo is called directly to force that order.
func TestMemoStaleRebuildFallsBack(t *testing.T) {
	w := world.Build()
	ctx := context.Background()
	wantLLM, _ := soloRun(t, w, rcQuery)
	wantDB, _, err := dbCountryRuntime(t, w).NewSession().Query(ctx, rcQuery)
	if err != nil {
		t.Fatal(err)
	}

	db := mustDB(t)
	rt := NewRuntime(simllm.New(simllm.ChatGPT, w, 1), resultCacheOptions())
	rt.AttachDB(db)
	for i := 0; i < 2; i++ {
		if _, _, err := rt.NewSession().Query(ctx, rcQuery); err != nil {
			t.Fatal(err)
		}
	}
	e := rt.memo.Get(rcQuery)
	if e == nil {
		t.Fatal("the statement was not memoized")
	}
	// Re-attaching the same store keeps the memoized resolution valid but
	// moves the stamp, so the memoized key misses; the shadowing bind is
	// the one that lands between the replay and the rebuild.
	rt.AttachDB(db)
	if err := rt.BindLLMTable(w.Table("country").Def); err != nil {
		t.Fatal(err)
	}
	st, err := rt.NewSession().openMemo(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rel, _, err := st.drain()
	if err != nil {
		t.Fatal(err)
	}
	if rel.String() != wantLLM.String() {
		t.Errorf("after the shadowing bind got:\n%s\nwant the LLM relation:\n%s", rel.String(), wantLLM.String())
	}

	if rel, _, err = rt.NewSession().Query(ctx, strings.Replace(rcQuery, "country", "DB.country", 1)); err != nil {
		t.Fatal(err)
	}
	if rel.String() != wantDB.String() {
		t.Errorf("the DB-qualified statement was served:\n%s\nwant the DB relation:\n%s", rel.String(), wantDB.String())
	}
}
