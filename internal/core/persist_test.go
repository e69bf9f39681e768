package core

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/simllm"
	"repro/internal/store"
	"repro/internal/world"
)

// persistRuntime builds a runtime over a fresh deterministic backend and
// attaches the durable store at dir. Binds happen before OpenStore, as
// the production boot sequence does.
func persistRuntime(t *testing.T, w *world.World, dir string) (*Runtime, *countingClient) {
	t.Helper()
	client := &countingClient{inner: simllm.New(simllm.ChatGPT, w, 1)}
	rt := runtimeOver(t, client, resultCacheOptions(), w)
	if err := rt.OpenStore(StoreConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	return rt, client
}

// TestWarmStartServesWithoutExecution is the end-to-end warm-restart
// gate at the core level: run a query, drain, reopen from the same data
// directory on a fresh runtime, and the same query costs zero model
// calls, returns the bit-identical relation, and plans over the
// persisted (not default) statistics.
func TestWarmStartServesWithoutExecution(t *testing.T) {
	w := world.Build()
	dir := t.TempDir()
	ctx := context.Background()

	rt1, client1 := persistRuntime(t, w, dir)
	rel1, rep1, err := rt1.NewSession().Query(ctx, rcQuery)
	if err != nil {
		t.Fatal(err)
	}
	if client1.calls.Load() == 0 {
		t.Fatal("cold query issued no model calls")
	}
	snap1 := rt1.Statistics().Snapshot()
	if err := rt1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	rt2, client2 := persistRuntime(t, w, dir)
	defer rt2.CloseStore()
	p := rt2.Stats().Persistence
	if p.WarmRelations != 1 {
		t.Fatalf("warm relations = %d, want 1 (%+v)", p.WarmRelations, p)
	}
	if p.WarmStatsTables == 0 {
		t.Fatalf("no statistics tables restored: %+v", p)
	}
	if got := rt2.Statistics().Snapshot(); !reflect.DeepEqual(got.Tables, snap1.Tables) {
		t.Errorf("restored table stats diverged:\n got %+v\nwant %+v", got.Tables, snap1.Tables)
	}
	if ts := rt2.Statistics().Table("country"); !ts.Seen {
		t.Errorf("country stats not warm: %+v (planner would use defaults)", ts)
	}

	rel2, rep2, err := rt2.NewSession().Query(ctx, rcQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Cached != CacheExact || client2.calls.Load() != 0 || rep2.Stats.Prompts != 0 {
		t.Errorf("warm query not served from the restored cache: cached=%q calls=%d prompts=%d",
			rep2.Cached, client2.calls.Load(), rep2.Stats.Prompts)
	}
	if rel2.String() != rel1.String() {
		t.Errorf("warm relation diverged:\n%s\nwant:\n%s", rel2.String(), rel1.String())
	}
	if rep2.Plan != rep1.Plan {
		t.Errorf("warm plan diverged:\n%s\nwant:\n%s", rep2.Plan, rep1.Plan)
	}
}

// TestWarmLoadDropsCorruptSegments: a data directory whose segments were
// damaged after the drain reopens cleanly — the damaged suffix is
// dropped and counted, nothing corrupt is served, and the store remains
// usable for the next drain cycle.
func TestWarmLoadDropsCorruptSegments(t *testing.T) {
	w := world.Build()
	dir := t.TempDir()
	ctx := context.Background()

	rt1, _ := persistRuntime(t, w, dir)
	rel1, _, err := rt1.NewSession().Query(ctx, rcQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte midway through every segment: everything from the
	// damaged frame on is a torn suffix.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to damage: %v %v", segs, err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rt2, _ := persistRuntime(t, w, dir)
	p := rt2.Stats().Persistence
	if p.Store.DroppedCorrupt == 0 {
		t.Fatalf("damage not detected: %+v", p)
	}
	// Whatever survived must still answer correctly (the backend is
	// deterministic, so any divergence means a corrupt serve).
	rel2, _, err := rt2.NewSession().Query(ctx, rcQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.String() != rel1.String() {
		t.Errorf("post-damage relation diverged:\n%s\nwant:\n%s", rel2.String(), rel1.String())
	}
	if err := rt2.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Third generation: the repaired store round-trips again.
	rt3, client3 := persistRuntime(t, w, dir)
	defer rt3.CloseStore()
	if p := rt3.Stats().Persistence; p.WarmRelations != 1 {
		t.Fatalf("repaired store did not warm-load: %+v", p)
	}
	if _, rep, err := rt3.NewSession().Query(ctx, rcQuery); err != nil || rep.Cached != CacheExact || client3.calls.Load() != 0 {
		t.Errorf("repaired store not serving warm: %v %+v calls=%d", err, rep, client3.calls.Load())
	}
}

// TestStaleEpochStampNeverServed pins the crash-ordering guarantee: an
// epoch bump is made durable before its relation tombstones need to be
// (bumpComponent fsyncs the epoch table; relation deletes may sit in OS
// buffers). Simulate the worst crash — bumped epochs on disk, the
// stale relation still present — and the warm load must reject the
// relation against the merged epoch table.
func TestStaleEpochStampNeverServed(t *testing.T) {
	w := world.Build()
	dir := t.TempDir()
	ctx := context.Background()

	rt1, _ := persistRuntime(t, w, dir)
	if _, _, err := rt1.NewSession().Query(ctx, rcQuery); err != nil {
		t.Fatal(err)
	}
	epochs := rt1.Stats().TableEpochs
	if err := rt1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Crash replica: the bump reached the durable epoch table but the
	// relation's tombstone was lost.
	epochs["llm:country"]++
	payload, err := json.Marshal(epochs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(kindEpochs, metaKey, "", payload, true); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rt2, client2 := persistRuntime(t, w, dir)
	defer rt2.CloseStore()
	p := rt2.Stats().Persistence
	if p.WarmRelations != 0 || p.DroppedStale == 0 {
		t.Fatalf("stale relation admitted: %+v", p)
	}
	// The merged epoch survived into the live table and the query
	// re-executes rather than serving the pre-bump relation.
	if got := rt2.Stats().TableEpochs["llm:country"]; got != epochs["llm:country"] {
		t.Errorf("persisted bump not merged: llm:country = %d, want %d", got, epochs["llm:country"])
	}
	if _, rep, err := rt2.NewSession().Query(ctx, rcQuery); err != nil || rep.Cached != CacheNone || client2.calls.Load() == 0 {
		t.Errorf("stale-epoch query served warm: %v cached=%q calls=%d", err, rep.Cached, client2.calls.Load())
	}
}

// TestPostRestartRebindInvalidatesWarmLoad: a warm-loaded relation is
// still subject to live invalidation — a rebind after the restart drops
// it from memory AND from disk, so a third generation cannot resurrect
// it either.
func TestPostRestartRebindInvalidatesWarmLoad(t *testing.T) {
	w := world.Build()
	dir := t.TempDir()
	ctx := context.Background()

	rt1, _ := persistRuntime(t, w, dir)
	if _, _, err := rt1.NewSession().Query(ctx, rcQuery); err != nil {
		t.Fatal(err)
	}
	if err := rt1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	rt2, client2 := persistRuntime(t, w, dir)
	if p := rt2.Stats().Persistence; p.WarmRelations != 1 {
		t.Fatalf("fixture vacuous, nothing warm-loaded: %+v", p)
	}
	if err := rt2.BindLLMTable(w.Table("country").Def); err != nil {
		t.Fatal(err)
	}
	if _, rep, err := rt2.NewSession().Query(ctx, rcQuery); err != nil || rep.Cached != CacheNone || client2.calls.Load() == 0 {
		t.Errorf("rebind did not invalidate the warm-loaded entry: %v cached=%q calls=%d",
			err, rep.Cached, client2.calls.Load())
	}
	if err := rt2.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// The re-executed relation persisted under the bumped stamp and
	// warm-loads; the stale one is gone for good.
	rt3, _ := persistRuntime(t, w, dir)
	defer rt3.CloseStore()
	if p := rt3.Stats().Persistence; p.WarmRelations != 1 || p.DroppedStale != 0 {
		t.Errorf("third generation saw stale state: %+v", p)
	}
	if got := rt3.Stats().TableEpochs["llm:country"]; got != 2 {
		t.Errorf("rebind epoch lost across restart: llm:country = %d, want 2", got)
	}
}

// TestValueCodecRoundTrip covers the persisted value encoding with the
// payloads value.ParseAs would mangle: whitespace-significant strings,
// null-words as data, and floats needing full precision.
func TestValueCodecRoundTrip(t *testing.T) {
	w := world.Build()
	dir := t.TempDir()
	ctx := context.Background()

	// A projection keeps raw strings; the deterministic backend includes
	// values with spaces. Any trimming or null-folding in the codec
	// diverges the relation string.
	q := `SELECT name, capital FROM country`
	rt1, _ := persistRuntime(t, w, dir)
	rel1, _, err := rt1.NewSession().Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rel1.String(), " ") {
		t.Fatal("fixture vacuous: no whitespace-bearing values")
	}
	if err := rt1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	rt2, client2 := persistRuntime(t, w, dir)
	defer rt2.CloseStore()
	rel2, _, err := rt2.NewSession().Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if client2.calls.Load() != 0 {
		t.Errorf("warm query re-executed (%d calls)", client2.calls.Load())
	}
	if rel2.String() != rel1.String() {
		t.Errorf("codec round-trip diverged:\n%s\nwant:\n%s", rel2.String(), rel1.String())
	}
}

// TestDurableEpochsNeverLag: concurrent bumps on distinct tables leave
// the durable epoch table equal to the live one once they return, alone
// (every other round) and racing back-to-back flushes as the snapshot
// ticker would. A table copied before persistMu could be written after a
// newer one, and then the store would lag a bump that had already
// returned.
func TestDurableEpochsNeverLag(t *testing.T) {
	rt := NewRuntime(nil, DefaultOptions())
	if err := rt.OpenStore(StoreConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	defer rt.CloseStore()
	const rounds, tables, bumps = 200, 4, 20
	lagging := 0
	for round := 0; round < rounds; round++ {
		var bumpers, flusher sync.WaitGroup
		var done atomic.Bool
		if round%2 == 1 {
			flusher.Add(1)
			go func() {
				defer flusher.Done()
				for !done.Load() {
					if err := rt.FlushStore(); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		for i := 0; i < tables; i++ {
			bumpers.Add(1)
			go func(table string) {
				defer bumpers.Done()
				for j := 0; j < bumps; j++ {
					rt.PrimeTableKeys(table, j+1)
				}
			}("t" + strconv.Itoa(i))
		}
		bumpers.Wait()
		done.Store(true)
		flusher.Wait()
		rt.persistMu.Lock()
		rec, ok := rt.pstore.Get(kindEpochs, metaKey)
		rt.persistMu.Unlock()
		if !ok {
			t.Fatal("no durable epoch table")
		}
		var stored map[string]uint64
		if err := json.Unmarshal(rec.Payload, &stored); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stored, rt.tableEpochs()) {
			lagging++
		}
	}
	if lagging != 0 {
		t.Errorf("the durable epoch table lagged the live one in %d of %d rounds", lagging, rounds)
	}
}

// galoisRuntime builds a runtime shaped like galois.yaml — "cheap" and
// "strong" ChatGPT backends failing over to each other, strong the
// default, with the given role routes — binds the schema and opens the
// durable store at dir.
func galoisRuntime(t *testing.T, w *world.World, dir string, routes map[string]string) *Runtime {
	t.Helper()
	rt, err := NewRuntimeWithBackends([]BackendDef{
		{Name: "cheap", Client: simllm.New(simllm.ChatGPT, w, 1), CostWeight: 0.25, Fallback: []string{"strong"}},
		{Name: "strong", Client: simllm.New(simllm.ChatGPT, w, 1), Fallback: []string{"cheap"}},
	}, "strong", routes, resultCacheOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"country", "city", "mayor", "stadium", "mountain"} {
		if err := rt.BindLLMTable(w.Table(name).Def); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.OpenStore(StoreConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestPersistedRelationsBoundToDeclaration: a persisted relation is what
// the declared backends answered, so a restart under another backend
// declaration — a verify route added, or another model altogether —
// drops it (counted stale) and re-executes, while the planner's
// statistics still load. The same declaration warm-loads as before.
func TestPersistedRelationsBoundToDeclaration(t *testing.T) {
	w := world.Build()
	ctx := context.Background()
	routes := map[string]string{"keyscan": "cheap", "filter": "cheap"}
	verified := map[string]string{"keyscan": "cheap", "filter": "cheap", "verify": "cheap"}
	for _, arm := range []struct {
		name   string
		reopen func(dir string) *Runtime
		warm   int
	}{
		{"same declaration", func(dir string) *Runtime { return galoisRuntime(t, w, dir, routes) }, 1},
		{"verify route added", func(dir string) *Runtime { return galoisRuntime(t, w, dir, verified) }, 0},
		{"single flan client", func(dir string) *Runtime {
			rt := runtimeOver(t, simllm.New(simllm.Flan, w, 1), resultCacheOptions(), w)
			if err := rt.OpenStore(StoreConfig{Dir: dir}); err != nil {
				t.Fatal(err)
			}
			return rt
		}, 0},
	} {
		t.Run(arm.name, func(t *testing.T) {
			dir := t.TempDir()
			rt1 := galoisRuntime(t, w, dir, routes)
			if _, _, err := rt1.NewSession().Query(ctx, rcQuery); err != nil {
				t.Fatal(err)
			}
			if err := rt1.CloseStore(); err != nil {
				t.Fatal(err)
			}

			rt2 := arm.reopen(dir)
			defer rt2.CloseStore()
			p := rt2.Stats().Persistence
			if p.WarmRelations != arm.warm || p.DroppedStale != 1-arm.warm {
				t.Fatalf("warm relations = %d, dropped stale = %d; want %d and %d (%+v)", p.WarmRelations, p.DroppedStale, arm.warm, 1-arm.warm, p)
			}
			if p.WarmStatsTables == 0 {
				t.Errorf("statistics not restored: %+v", p)
			}
			_, rep, err := rt2.NewSession().Query(ctx, rcQuery)
			if err != nil {
				t.Fatal(err)
			}
			if hit := rep.Cached == CacheExact && rep.Stats.Prompts == 0; hit != (arm.warm == 1) {
				t.Errorf("cached=%q prompts=%d, want a warm hit: %v", rep.Cached, rep.Stats.Prompts, arm.warm == 1)
			}
		})
	}
}
