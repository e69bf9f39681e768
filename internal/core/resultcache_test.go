package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/memdb"
	"repro/internal/rescache"
	"repro/internal/schema"
	"repro/internal/simllm"
	"repro/internal/spider"
	"repro/internal/world"
)

// resultCacheOptions is the shared configuration of these tests: result
// cache on, prompt cache off (so model-call counts and relation contents
// are attributable to the result cache alone, and a backend swap cannot
// leak stale completions through the prompt tier).
func resultCacheOptions() Options {
	opts := DefaultOptions()
	opts.CacheEnabled = false
	opts.ResultCacheEnabled = true
	return opts
}

// countingClient counts the model calls that actually reach the backend.
type countingClient struct {
	inner llm.Client
	calls atomic.Int64
}

func (c *countingClient) Name() string { return c.inner.Name() }
func (c *countingClient) Complete(ctx context.Context, p string) (string, error) {
	c.calls.Add(1)
	return c.inner.Complete(ctx, p)
}

const rcQuery = `SELECT name FROM country WHERE continent = 'Europe'`

// TestResultCacheHitServesWithoutExecution: the second identical query
// is served from the result cache — zero prompts, zero model calls, the
// bit-identical relation, and the populating run's plan.
func TestResultCacheHitServesWithoutExecution(t *testing.T) {
	w := world.Build()
	client := &countingClient{inner: simllm.New(simllm.ChatGPT, w, 1)}
	rt := runtimeOver(t, client, resultCacheOptions(), w)
	ctx := context.Background()

	rel1, rep1, err := rt.NewSession().Query(ctx, rcQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Cached != CacheNone {
		t.Errorf("cold query reported cached = %q", rep1.Cached)
	}
	coldCalls := client.calls.Load()
	if coldCalls == 0 || rep1.Stats.Prompts == 0 {
		t.Fatalf("cold query issued no model calls (%d calls, %d prompts)", coldCalls, rep1.Stats.Prompts)
	}

	rel2, rep2, err := rt.NewSession().Query(ctx, rcQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Cached != CacheExact {
		t.Errorf("repeated query cached = %q, want %q", rep2.Cached, CacheExact)
	}
	if rep2.Stats.Prompts != 0 || client.calls.Load() != coldCalls {
		t.Errorf("cached hit cost prompts: %d prompts, %d extra calls",
			rep2.Stats.Prompts, client.calls.Load()-coldCalls)
	}
	if rel2.String() != rel1.String() {
		t.Errorf("cached relation diverged:\n%s\nwant:\n%s", rel2.String(), rel1.String())
	}
	if rep2.Plan != rep1.Plan {
		t.Errorf("cached plan diverged:\n%s\nwant:\n%s", rep2.Plan, rep1.Plan)
	}
	st := rt.Stats().ResultCacheStats
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("result cache stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// TestResultCacheEpochInvalidation: BindLLMTable and PrimeTableKeys on a
// table the query reads bump that table's epoch and force re-execution —
// while rebinding an unrelated table or attaching the store leaves the
// entry valid: invalidation is per component, not global.
func TestResultCacheEpochInvalidation(t *testing.T) {
	w := world.Build()
	client := &countingClient{inner: simllm.New(simllm.ChatGPT, w, 1)}
	rt := runtimeOver(t, client, resultCacheOptions(), w)
	ctx := context.Background()

	// fn bumps the epoch of comp; rcQuery reads only LLM.country, so its
	// cached relation must survive every other bump.
	check := func(name, comp string, fn func()) {
		t.Helper()
		if _, _, err := rt.NewSession().Query(ctx, rcQuery); err != nil {
			t.Fatal(err)
		}
		before := client.calls.Load()
		epochBefore := rt.Stats().TableEpochs[comp]
		fn()
		if got := rt.Stats().TableEpochs[comp]; got <= epochBefore {
			t.Fatalf("%s did not bump table_epochs[%s]: %d -> %d", name, comp, epochBefore, got)
		}
		_, rep, err := rt.NewSession().Query(ctx, rcQuery)
		if err != nil {
			t.Fatal(err)
		}
		if comp == "llm:country" {
			if rep.Cached != CacheNone || client.calls.Load() == before {
				t.Errorf("%s: query after the bump was served from the cache", name)
			}
		} else {
			if rep.Cached != CacheExact || client.calls.Load() != before {
				t.Errorf("%s: unrelated bump invalidated the entry (cached=%q, %d extra calls)",
					name, rep.Cached, client.calls.Load()-before)
			}
		}
	}

	check("PrimeTableKeys(country)", "llm:country", func() { rt.PrimeTableKeys("country", 50) })
	check("BindLLMTable(country)", "llm:country", func() {
		if err := rt.BindLLMTable(w.Table("country").Def); err != nil {
			t.Fatal(err)
		}
	})
	check("BindLLMTable(city)", "llm:city", func() {
		if err := rt.BindLLMTable(w.Table("city").Def); err != nil {
			t.Fatal(err)
		}
	})
	check("AttachDB", "db", func() { rt.AttachDB(mustDB(t)) })

	if eps := rt.Stats().TableEpochs; eps["llm:country"] == 0 || eps["llm:city"] == 0 || eps["db"] == 0 {
		t.Errorf("per-table epochs not tracked: %v", eps)
	}
}

// TestResultCacheLimitBypass: LIMIT-bearing statements never populate
// (or consult) the cache — a truncated relation must not be served as a
// complete one.
func TestResultCacheLimitBypass(t *testing.T) {
	w := world.Build()
	rt := runtimeOver(t, simllm.New(simllm.ChatGPT, w, 1), resultCacheOptions(), w)
	ctx := context.Background()

	// OFFSET without LIMIT also truncates (the builder lowers it to a
	// Limit node), so it must bypass too.
	for _, truncated := range []string{rcQuery + ` LIMIT 3`, rcQuery + ` OFFSET 2`} {
		for i := 0; i < 2; i++ {
			_, rep, err := rt.NewSession().Query(ctx, truncated)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Cached != CacheNone {
				t.Fatalf("run %d of %q was served from the result cache (%q)", i+1, truncated, rep.Cached)
			}
		}
	}
	if st := rt.Stats().ResultCacheStats; st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Errorf("truncating queries touched the result cache: %+v", st)
	}
}

// slowClient delays completions so concurrent identical queries overlap
// long enough for the singleflight to be exercised.
type slowClient struct {
	inner llm.Client
	delay time.Duration
}

func (s *slowClient) Name() string { return s.inner.Name() }
func (s *slowClient) Complete(ctx context.Context, p string) (string, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return "", ctx.Err()
	}
	return s.inner.Complete(ctx, p)
}

// streamAll drains one streamed query the way a wire client does: Next
// to io.EOF, then Finish.
func streamAll(ctx context.Context, s *Session, sql string) (*schema.Relation, *Report, error) {
	st, err := s.QueryStream(ctx, sql)
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	rel := schema.NewRelation(st.Schema())
	for {
		row, _, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		rel.Append(row)
	}
	rep, err := st.Finish()
	return rel, rep, err
}

// soloRun executes sql once on a fresh, identically seeded runtime and
// returns the relation and the model calls it cost.
func soloRun(t *testing.T, w *world.World, sql string) (*schema.Relation, int64) {
	t.Helper()
	client := &countingClient{inner: simllm.New(simllm.ChatGPT, w, 1)}
	rel, _, err := runtimeOver(t, client, resultCacheOptions(), w).NewSession().Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	return rel, client.calls.Load()
}

// TestResultCacheSingleflightStorm: K concurrent identical queries cost
// exactly one execution's model calls in every mix of buffered and
// streamed callers — a streamed miss leads the same flight a buffered
// one does — and every caller receives the identical relation.
func TestResultCacheSingleflightStorm(t *testing.T) {
	w := world.Build()
	soloRel, soloCalls := soloRun(t, w, rcQuery)

	const k = 12
	for _, tc := range []struct {
		name     string
		streamed func(i int) bool
	}{
		{"buffered", func(int) bool { return false }},
		{"streamed", func(int) bool { return true }},
		{"mixed", func(i int) bool { return i%2 == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client := &countingClient{inner: &slowClient{inner: simllm.New(simllm.ChatGPT, w, 1), delay: time.Millisecond}}
			rt := runtimeOver(t, client, resultCacheOptions(), w)
			rels := make([]string, k)
			var cachedCount atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < k; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					run := rt.NewSession().Query
					if tc.streamed(i) {
						run = func(ctx context.Context, sql string) (*schema.Relation, *Report, error) {
							return streamAll(ctx, rt.NewSession(), sql)
						}
					}
					rel, rep, err := run(context.Background(), rcQuery)
					if err != nil {
						t.Error(err)
						return
					}
					rels[i] = rel.String()
					if rep.Cached == CacheExact {
						cachedCount.Add(1)
					}
				}(i)
			}
			wg.Wait()

			if got := client.calls.Load(); got != soloCalls {
				t.Errorf("%d concurrent identical queries cost %d model calls, want %d (one execution)", k, got, soloCalls)
			}
			for i, r := range rels {
				if r != soloRel.String() {
					t.Errorf("caller %d diverged from the solo run:\n%s", i, r)
				}
			}
			if cachedCount.Load() != k-1 {
				t.Errorf("%d of %d callers were cached, want %d (all but the leader)", cachedCount.Load(), k, k-1)
			}
			if st := rt.Stats().ResultCacheStats; st.Misses != 1 || st.Hits != k-1 {
				t.Errorf("result cache stats = %+v, want 1 miss / %d hits", st, k-1)
			}
		})
	}
}

// TestResultCacheAbandonedLeader: a streamed leader closed after one row
// while buffered followers wait on its flight must not poison the key
// or cache its partial relation. One follower re-leads, every follower
// receives the solo relation, and the runtime drains.
func TestResultCacheAbandonedLeader(t *testing.T) {
	w := world.Build()
	soloRel, _ := soloRun(t, w, rcQuery)

	client := &countingClient{inner: &slowClient{inner: simllm.New(simllm.ChatGPT, w, 1), delay: time.Millisecond}}
	rt := runtimeOver(t, client, resultCacheOptions(), w)
	baseline := runtime.NumGoroutine()
	leader, err := rt.NewSession().QueryStream(context.Background(), rcQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := leader.Next(); err != nil {
		t.Fatal(err)
	}

	const k = 4
	rels := make([]string, k)
	outcomes := make([]CacheOutcome, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel, rep, err := rt.NewSession().Query(context.Background(), rcQuery)
			if err != nil {
				t.Error(err)
				return
			}
			rels[i], outcomes[i] = rel.String(), rep.Cached
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the followers reach the flight
	leader.Close()
	wg.Wait()

	relead := 0
	for i := range rels {
		if rels[i] != soloRel.String() {
			t.Errorf("follower %d diverged from the solo run:\n%s", i, rels[i])
		}
		if outcomes[i] == CacheNone {
			relead++
		}
	}
	if relead != 1 {
		t.Errorf("%d followers executed after the leader was abandoned, want exactly 1", relead)
	}
	if st := rt.Stats().ResultCacheStats; st.Misses != 2 || st.Hits != k-1 {
		t.Errorf("result cache stats = %+v, want 2 misses (leader, re-leader) / %d hits", st, k-1)
	}
	drainedRuntime(t, rt, baseline)
}

// TestResultCacheLeaderSettlesAtEOF: a streamed leader hands its
// relation to the cache the moment the executor reports io.EOF, not when
// its consumer gets round to Finish — an identical query issued in
// between is an exact hit, not a wait on the leader's consumer.
func TestResultCacheLeaderSettlesAtEOF(t *testing.T) {
	w := world.Build()
	soloRel, _ := soloRun(t, w, rcQuery)
	rt := runtimeOver(t, simllm.New(simllm.ChatGPT, w, 1), resultCacheOptions(), w)

	leader, err := rt.NewSession().QueryStream(context.Background(), rcQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for {
		if _, _, err := leader.Next(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rel, rep, err := rt.NewSession().Query(ctx, rcQuery)
	if err != nil {
		t.Fatalf("identical query while the leader awaits Finish: %v", err)
	}
	if rep.Cached != CacheExact || rel.String() != soloRel.String() {
		t.Errorf("identical query cached = %q with %d rows, want an exact hit on the %d-row relation",
			rep.Cached, rel.Cardinality(), soloRel.Cardinality())
	}
	if _, err := leader.Finish(); err != nil {
		t.Fatal(err)
	}
}

// failFirstClient holds the first call until released and then fails
// it; every later call passes through.
type failFirstClient struct {
	inner   llm.Client
	started chan struct{}
	release chan struct{}
	used    atomic.Bool
}

func (f *failFirstClient) Name() string { return f.inner.Name() }

func (f *failFirstClient) Complete(ctx context.Context, p string) (string, error) {
	if f.used.CompareAndSwap(false, true) {
		close(f.started)
		<-f.release
		return "", llm.Permanent(errors.New("endpoint down"))
	}
	return f.inner.Complete(ctx, p)
}

// TestResultCacheLeaderOpenFailure: a leader whose open fails after
// Lookup handed it the key's flight — ORDER BY drains its input at open,
// and the first model call errors — must settle the flight, so a
// follower waiting on it takes over as leader instead of blocking.
func TestResultCacheLeaderOpenFailure(t *testing.T) {
	w := world.Build()
	const sql = rcQuery + ` ORDER BY name`
	soloRel, _ := soloRun(t, w, sql)

	client := &failFirstClient{inner: simllm.New(simllm.ChatGPT, w, 1), started: make(chan struct{}), release: make(chan struct{})}
	rt := runtimeOver(t, client, resultCacheOptions(), w)
	baseline := runtime.NumGoroutine()
	leaderErr := make(chan error, 1)
	go func() {
		st, err := rt.NewSession().QueryStream(context.Background(), sql)
		if st != nil {
			st.Close()
		}
		leaderErr <- err
	}()
	<-client.started // the leader holds the flight, blocked inside its open

	type result struct {
		rel *schema.Relation
		rep *Report
		err error
	}
	followed := make(chan result, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() {
		rel, rep, err := rt.NewSession().Query(ctx, sql)
		followed <- result{rel, rep, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the follower reach the flight
	close(client.release)

	if err := <-leaderErr; err == nil {
		t.Fatal("the leader's open succeeded; want the injected model failure")
	}
	r := <-followed
	if r.err != nil {
		t.Fatalf("follower after a failed leader open: %v", r.err)
	}
	if r.rep.Cached != CacheNone || r.rel.String() != soloRel.String() {
		t.Errorf("follower cached = %q with %d rows, want a fresh execution of the solo relation (%d rows)",
			r.rep.Cached, r.rel.Cardinality(), soloRel.Cardinality())
	}
	if st := rt.Stats().ResultCacheStats; st.Misses != 2 || st.Hits != 0 {
		t.Errorf("result cache stats = %+v, want 2 misses (failed leader, re-leader) / 0 hits", st)
	}
	drainedRuntime(t, rt, baseline)
}

// TestExactHitAllocs pins the allocation count of an exact-hit Query
// from SQL text — hot repeat traffic's whole engine path — at 3: the
// stamp, the Stream and the Report. The statement memo skips parse,
// build and fingerprint and keeps the full key, and the resident
// relation is handed back without a copy (109 allocs before all three).
func TestExactHitAllocs(t *testing.T) {
	w := world.Build()
	opts := DefaultOptions()
	opts.ResultCacheEnabled = true
	sess := runtimeOver(t, simllm.New(simllm.ChatGPT, w, 1), opts, w).NewSession()
	ctx := context.Background()
	for i := 0; i < 2; i++ { // execute, then hit once to memoize
		if _, _, err := sess.Query(ctx, rcQuery); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, rep, err := sess.Query(ctx, rcQuery)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cached != CacheExact {
			t.Fatalf("repeat query cached = %q, want %q", rep.Cached, CacheExact)
		}
	})
	if allocs > 3 {
		t.Errorf("exact-hit Query = %.0f allocs, want <= 3", allocs)
	}
}

// TestResultFingerprintOptionSetsUnambiguous: distinct per-conjunct
// option sets must never collide in the fingerprint (conjunct keys
// contain spaces, so a plain join would let {"a b","c"} and {"a","b c"}
// alias each other — and with them, cached relations across sessions).
func TestResultFingerprintOptionSetsUnambiguous(t *testing.T) {
	w := world.Build()
	rt := runtimeOver(t, simllm.New(simllm.ChatGPT, w, 1), resultCacheOptions(), w)

	fingerprint := func(set map[string]bool) string {
		s := rt.NewSession()
		opts := s.Options()
		opts.Optimizer.DisableLLMFilter = set
		s.SetOptions(opts)
		plan, err := s.Plan(rcQuery)
		if err != nil {
			t.Fatal(err)
		}
		return s.res.key + logical.Fingerprint(plan)
	}

	a := fingerprint(map[string]bool{"a b": true, "c": true})
	b := fingerprint(map[string]bool{"a": true, "b c": true})
	if a == b {
		t.Error("distinct option sets produced the same result-cache fingerprint")
	}
	if a != fingerprint(map[string]bool{"c": true, "a b": true}) {
		t.Error("option-set fingerprint depends on map iteration order")
	}
}

// versionedClient delegates to one of two deterministic backends. The
// stale-result test flips the version together with a BindLLMTable epoch
// bump, modelling a rebinding that changes what the LLM side answers.
type versionedClient struct {
	v       atomic.Int32
	clients [2]llm.Client
}

func (c *versionedClient) Name() string { return "versioned" }
func (c *versionedClient) Complete(ctx context.Context, p string) (string, error) {
	return c.clients[c.v.Load()].Complete(ctx, p)
}

// TestResultCacheNoStaleAcrossEpochBump is the -race regression for the
// invalidation contract: a storm of identical queries runs while table
// bindings churn concurrently, the backend is swapped together with a
// BindLLMTable bump between phases, and after every bump each newly
// issued query must observe the new backend's relation — a stale cached
// relation must never be served across the epoch. The statement is
// memoized before the first swap, and the rebinds keep its resolutions
// intact, so every storm query takes the memoized path.
func TestResultCacheNoStaleAcrossEpochBump(t *testing.T) {
	w := world.Build()
	ctx := context.Background()

	// Reference relations per version, computed on pinned runtimes.
	want := [2]string{}
	for v := 0; v < 2; v++ {
		client := &versionedClient{clients: [2]llm.Client{
			simllm.New(simllm.ChatGPT, w, 1), simllm.New(simllm.GPT3, w, 1),
		}}
		client.v.Store(int32(v))
		rel, _, err := runtimeOver(t, client, resultCacheOptions(), w).NewSession().Query(ctx, rcQuery)
		if err != nil {
			t.Fatal(err)
		}
		want[v] = rel.String()
	}
	if want[0] == want[1] {
		t.Fatal("fixture vacuous: both backends return the same relation")
	}

	client := &versionedClient{clients: [2]llm.Client{
		simllm.New(simllm.ChatGPT, w, 1), simllm.New(simllm.GPT3, w, 1),
	}}
	rt := runtimeOver(t, client, resultCacheOptions(), w)
	for i := 0; i < 2; i++ {
		if _, _, err := rt.NewSession().Query(ctx, rcQuery); err != nil {
			t.Fatal(err)
		}
	}
	memoized := rt.memo.Get(rcQuery)
	if memoized == nil {
		t.Fatal("the statement was not memoized")
	}

	storm := func(version int32) {
		t.Helper()
		const k = 8
		var wg sync.WaitGroup
		// Unrelated concurrent binds stress epoch bumps racing the storm:
		// under per-table epochs they must leave this query's entries
		// untouched — and must never let a stale relation through.
		stop := make(chan struct{})
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					if err := rt.BindLLMTable(w.Table("mountain").Def); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rel, _, err := rt.NewSession().Query(ctx, rcQuery)
				if err != nil {
					t.Error(err)
					return
				}
				if got := rel.String(); got != want[version] {
					t.Errorf("version %d storm served a stale relation:\n%s\nwant:\n%s", version, got, want[version])
				}
			}()
		}
		wg.Wait()
		close(stop)
	}

	for round := 0; round < 3; round++ {
		for v := int32(0); v < 2; v++ {
			// Swap the backend, then publish the change with the bump: a
			// query issued after BindLLMTable returns must see version v.
			client.v.Store(v)
			if err := rt.BindLLMTable(w.Table("country").Def); err != nil {
				t.Fatal(err)
			}
			storm(v)
		}
	}
	if rt.memo.Get(rcQuery) != memoized {
		t.Error("the storm left the memoized path: its memo entry was rebuilt")
	}
}

// digestSink records, per key, the digest of the relation the result
// cache made resident — taken the moment it was stored.
type digestSink struct {
	mu sync.Mutex
	at map[rescache.Key]string
}

func (d *digestSink) StoreEntry(key rescache.Key, e *rescache.Entry) {
	digest := relDigest(e.Rel)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.at[key] = digest
}

func (d *digestSink) DropEntry(rescache.Key) {}

func relDigest(r *schema.Relation) string {
	sum := sha256.Sum256([]byte(r.String()))
	return hex.EncodeToString(sum[:])
}

// TestResidentRelationsImmutable: the result cache hands its resident
// relations out uncopied — to exact hits, flight followers and residual
// plans — so nothing downstream may modify them. After the seeded
// subsumption pairs (residual plans over resident relations) and a hot
// corpus pass (every statement executed, then replayed as an exact hit,
// buffered and streamed), every resident relation must still digest to
// what it digested to when it became resident.
func TestResidentRelationsImmutable(t *testing.T) {
	w := world.Build()
	db := memdb.New()
	for _, name := range w.Tables() {
		if err := db.LoadRelation(w.Table(name).Def, w.Relation(name)); err != nil {
			t.Fatal(err)
		}
	}
	opts := resultCacheOptions()
	opts.Optimizer.CostBased = false
	rt := NewRuntime(simllm.New(simllm.ChatGPT, w, 1), opts)
	rt.AttachDB(db)
	for _, name := range []string{"country", "city", "mayor", "airport", "singer", "stadium", "mountain"} {
		if err := rt.BindLLMTable(w.Table(name).Def); err != nil {
			t.Fatal(err)
		}
	}
	sink := &digestSink{at: map[rescache.Key]string{}}
	rt.resultCache.SetSink(sink)
	ctx := context.Background()

	n := 80
	if testing.Short() {
		n = 16
	}
	gen := difftest.New(1234)
	for i := 0; i < n; i++ {
		p := gen.Pair()
		for _, sql := range []string{p.Parent, p.Child} {
			if _, _, err := rt.NewSession().Query(ctx, sql); err != nil {
				t.Fatalf("pair %d %q: %v", i, sql, err)
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, q := range spider.Queries() {
			run := rt.NewSession().Query
			if pass == 1 {
				run = func(ctx context.Context, sql string) (*schema.Relation, *Report, error) {
					return streamAll(ctx, rt.NewSession(), sql)
				}
			}
			if _, _, err := run(ctx, q.SQL); err != nil {
				t.Fatalf("corpus %d %q: %v", q.ID, q.SQL, err)
			}
		}
	}

	st := rt.Stats().ResultCacheStats
	if st.Hits == 0 || st.SubsumedHits == 0 {
		t.Fatalf("fixture vacuous: %+v, want exact and subsumed hits", st)
	}
	dump := rt.resultCache.Dump()
	if len(dump) == 0 {
		t.Fatal("nothing resident")
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, d := range dump {
		want, ok := sink.at[d.Key]
		if !ok {
			t.Errorf("resident entry %.60q was never stored through the sink", d.Key.Fingerprint)
			continue
		}
		if got := relDigest(d.Entry.Rel); got != want {
			t.Errorf("resident relation changed after insert: %.60q\n%s", d.Key.Fingerprint, d.Entry.Rel.String())
		}
	}
}

// TestHitBodyOnlyOnExactHits: an exact hit's report and stream expose
// its entry's encoded-body slots, and a body attached through one hit is
// what the next hit finds; a miss and a subsumed hit expose none, and
// the persistence codec ignores kept bodies.
func TestHitBodyOnlyOnExactHits(t *testing.T) {
	w := world.Build()
	sess := runtimeOver(t, simllm.New(simllm.ChatGPT, w, 1), resultCacheOptions(), w).NewSession()
	ctx := context.Background()
	// query runs sql as a drained stream and returns the stream's hit body.
	query := func(sql string, want CacheOutcome) *HitBody {
		t.Helper()
		st, err := sess.QueryStream(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		_, rep, err := st.drain()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cached != want {
			t.Fatalf("%s: cached = %q, want %q", sql, rep.Cached, want)
		}
		return st.Hit()
	}
	if query(rcQuery, CacheNone) != nil {
		t.Error("a miss exposes a hit body")
	}
	hit := query(rcQuery, CacheExact)
	if hit == nil {
		t.Fatal("an exact hit exposes no hit body")
	}
	if b, keep := hit.Cached(0); b != nil || !keep {
		t.Fatalf("exact hit slot 0 = %q (keep %v), want an empty slot", b, keep)
	}
	if got := string(hit.Attach(0, []byte("encoded"))); got != "encoded" {
		t.Fatalf("attach returned %q", got)
	}
	st, err := sess.QueryStream(ctx, rcQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if h := st.Hit(); h == nil {
		t.Error("the next exact hit's stream exposes no hit body")
	} else if b, _ := h.Cached(0); string(b) != "encoded" {
		t.Error("the next exact hit's stream does not find the attached body")
	}
	if query(rcQuery+` LIMIT 3`, CacheSubsumed) != nil {
		t.Error("a subsumed hit exposes a hit body")
	}

	// Bodies are never persisted: the codec writes the entry as if it
	// had none, and a decoded entry has empty slots.
	e := hit.entry
	withBody, err := encodeEntry(hit.key, e)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := encodeEntry(hit.key, &rescache.Entry{Rel: e.Rel, Plan: e.Plan, Tables: e.Tables, Prod: e.Prod})
	if err != nil {
		t.Fatal(err)
	}
	if string(withBody) != string(bare) {
		t.Error("the persisted form of an entry includes its kept body")
	}
	_, loaded, err := decodeEntry(withBody)
	if err != nil {
		t.Fatal(err)
	}
	if b, keep := loaded.Body(0); b != nil || !keep {
		t.Errorf("decoded entry slot 0 = %q (keep %v), want an empty slot", b, keep)
	}
}
