package llm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// seed puts the completion out of prompt, a raw-text prompt of class,
// into the cache through fetch, as a model miss.
func seed(c *Cache, model string, class PromptClass, prompt, out string) {
	_, _, _, _ = c.fetch(context.Background(), model, classTemplate(class), prompt, func() (string, error) { return out, nil })
}

// classTemplate is the template of a raw-text prompt of class: no text
// around the key.
func classTemplate(class PromptClass) *Template { return NewTemplate("", "", class) }

// get returns the resident completion of the raw-text prompt, counting a
// hit. Every class's template has the same id and text, so any serves.
func get(c *Cache, model, prompt string) (string, bool) {
	out, _, ok := c.hit(model, classTemplate(PromptClass{}), prompt)
	return out, ok
}

func TestCacheGetPut(t *testing.T) {
	c := NewCache(4)
	if _, ok := get(c, "m", "p"); ok {
		t.Fatal("empty cache must miss")
	}
	seed(c, "m", PromptClass{}, "p", "out")
	if got, ok := get(c, "m", "p"); !ok || got != "out" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// The same prompt under another model is a different entry.
	if _, ok := get(c, "other", "p"); ok {
		t.Error("model name must be part of the key")
	}
	seed(c, "m", PromptClass{}, "p", "updated")
	if got, _ := get(c, "m", "p"); got != "out" {
		t.Errorf("a resident completion must be served, not fetched again, got %q", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	seed(c, "m", PromptClass{}, "a", "1")
	seed(c, "m", PromptClass{}, "b", "2")
	// Touch a so b becomes the least recently used.
	if _, ok := get(c, "m", "a"); !ok {
		t.Fatal("a must be resident")
	}
	seed(c, "m", PromptClass{}, "c", "3")
	if _, ok := get(c, "m", "b"); ok {
		t.Error("b was least recently used and must be evicted")
	}
	if _, ok := get(c, "m", "a"); !ok {
		t.Error("a was touched and must survive")
	}
	if _, ok := get(c, "m", "c"); !ok {
		t.Error("c was just inserted and must be resident")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, capacity is 2", c.Len())
	}
}

func TestCacheDefaultCapacity(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < DefaultCacheSize+10; i++ {
		seed(c, "m", PromptClass{}, fmt.Sprintf("p%d", i), "out")
	}
	if c.Len() != DefaultCacheSize {
		t.Errorf("Len = %d, want %d", c.Len(), DefaultCacheSize)
	}
}

// TestCacheSingleflight: concurrent identical prompts must produce exactly
// one client call; everyone gets the same answer. Run with -race.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(8)
	var calls int32
	gate := make(chan struct{})

	const goroutines = 16
	var wg sync.WaitGroup
	outs := make([]string, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g], _, _, errs[g] = c.fetch(context.Background(), "m", rawText, "same prompt", func() (string, error) {
				<-gate // hold the flight open until all callers joined
				atomic.AddInt32(&calls, 1)
				return "answer", nil
			})
		}(g)
	}
	close(gate)
	wg.Wait()

	if calls != 1 {
		t.Errorf("client called %d times, singleflight requires exactly 1", calls)
	}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil || outs[g] != "answer" {
			t.Fatalf("goroutine %d: %q, %v", g, outs[g], errs[g])
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != goroutines-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", s, goroutines-1)
	}
	checkQuiescent(t, c)
}

func TestCacheFetchStatsCounters(t *testing.T) {
	c := NewCache(8)
	fetch := func(prompt string) {
		if _, _, _, err := c.fetch(context.Background(), "m", rawText, prompt, func() (string, error) {
			return "out", nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	fetch("a") // miss
	fetch("a") // hit
	fetch("a") // hit
	fetch("b") // miss
	s := c.Stats()
	if s.Misses != 2 || s.Hits != 2 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 2/2/2", s)
	}
}

func TestCacheFetchDoesNotCacheErrors(t *testing.T) {
	c := NewCache(8)
	boom := errors.New("boom")
	if _, _, issued, err := c.fetch(context.Background(), "m", rawText, "p", func() (string, error) {
		return "", boom
	}); !issued || !errors.Is(err, boom) {
		t.Fatalf("issued=%v err=%v", issued, err)
	}
	if c.Len() != 0 {
		t.Error("errors must not be cached")
	}
	// The next fetch must retry the model.
	out, _, issued, err := c.fetch(context.Background(), "m", rawText, "p", func() (string, error) {
		return "recovered", nil
	})
	if err != nil || !issued || out != "recovered" {
		t.Fatalf("retry = %q, issued=%v, %v", out, issued, err)
	}
}

// TestCacheFetchRetriesAfterLeaderFailure: a joiner whose leader fails
// (e.g. the leader's own query was canceled) must not inherit that
// error — it retries and gets a real answer.
func TestCacheFetchRetriesAfterLeaderFailure(t *testing.T) {
	c := NewCache(8)
	leaderStarted := make(chan struct{})
	release := make(chan struct{})

	go func() {
		c.fetch(context.Background(), "m", rawText, "p", func() (string, error) {
			close(leaderStarted)
			<-release
			return "", context.Canceled // the leader's query went away
		})
	}()
	<-leaderStarted

	done := make(chan struct{})
	var out string
	var err error
	go func() {
		defer close(done)
		out, _, _, err = c.fetch(context.Background(), "m", rawText, "p", func() (string, error) {
			return "answer", nil
		})
	}()
	close(release)
	<-done

	if err != nil {
		t.Fatalf("joiner inherited the leader's failure: %v", err)
	}
	if out != "answer" {
		t.Fatalf("joiner got %q, want its own retried answer", out)
	}
}

// TestWaveCanceledContext: a wave on a cancelled query must
// yield an error, never a silently partial answer set.
func TestWaveCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prompts := make([]string, 10)
	for i := range prompts {
		prompts[i] = fmt.Sprintf("p%d", i)
	}
	for _, cache := range []*Cache{nil, NewCache(8)} {
		tn := waveTenant(ctx, cache, 2)
		if out, err := runWave(tn, &echoClient{}, prompts); err == nil {
			t.Errorf("cancelled wave (cache %v) returned %d outputs with nil error", cache != nil, len(out))
		}
		tn.Close()
	}
}

// TestCompleteCachedUsage: a repeated prompt through the cache is one
// model call; the tenant counts the miss and the hit, and the hit costs
// zero simulated time.
func TestCompleteCachedUsage(t *testing.T) {
	client := &echoClient{}
	tn := waveTenant(context.Background(), NewCache(8), 4)

	first, _, err := tn.Single().Submit(client, nil, "hello world", 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := tn.Single().Submit(client, nil, "hello world", 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("cached answer diverged: %q vs %q", first, second)
	}
	if client.calls != 1 {
		t.Errorf("client called %d times, want 1", client.calls)
	}
	s := tn.Usage()
	if s.Prompts != 1 || s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Errorf("usage = %+v", s)
	}
	if want := promptLatency(2, 3); s.SimulatedLatency != want {
		t.Errorf("latency = %v, want the single call's %v", s.SimulatedLatency, want)
	}
}

// TestCompleteCachedNilCache: without a cache every prompt goes straight
// to the model and no cache counters move.
func TestCompleteCachedNilCache(t *testing.T) {
	client := &echoClient{}
	tn := waveTenant(context.Background(), nil, 1)
	out, _, err := tn.Single().Submit(client, nil, "p", 0).Wait()
	if err != nil || !strings.HasPrefix(out, "echo:") {
		t.Fatalf("nil cache must pass through: %q, %v", out, err)
	}
	if client.calls != 1 {
		t.Errorf("calls = %d", client.calls)
	}
	if s := tn.Usage(); s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Errorf("cacheless prompt moved cache counters: %+v", s)
	}
}

// TestWaveCachedDedup: a wave of N prompts with K distinct
// strings issues exactly K client calls, answers stay aligned, the
// tenant counts K misses and N−K hits, and the wave is priced on the K
// issued prompts only.
func TestWaveCachedDedup(t *testing.T) {
	client := &echoClient{}
	tn := waveTenant(context.Background(), NewCache(64), 4)

	prompts := []string{"a", "b", "a", "c", "b", "a", "a", "c"}
	out, err := runWave(tn, client, prompts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range prompts {
		if out[i] != "echo: "+p {
			t.Fatalf("output %d misaligned: %q", i, out[i])
		}
	}
	if client.calls != 3 {
		t.Errorf("client called %d times, want 3 distinct prompts", client.calls)
	}
	s := tn.Usage()
	if s.Prompts != 3 || s.CacheMisses != 3 || s.CacheHits != len(prompts)-3 {
		t.Errorf("stats = %+v", s)
	}
	// Three issued prompts fit one round of four.
	if want := promptLatency(1, 2); tn.Stats().Makespan() != want {
		t.Errorf("wave latency = %v, want one round %v", tn.Stats().Makespan(), want)
	}
}

// TestWaveCachedCrossWave: a second wave over prompts the cache
// already holds issues zero client calls and costs zero simulated time.
func TestWaveCachedCrossWave(t *testing.T) {
	client := &echoClient{}
	tn := waveTenant(context.Background(), NewCache(64), 2)

	prompts := []string{"a", "b", "c"}
	if _, err := runWave(tn, client, prompts); err != nil {
		t.Fatal(err)
	}
	warm := tn.Usage()
	if _, err := runWave(tn, client, prompts); err != nil {
		t.Fatal(err)
	}
	if client.calls != 3 {
		t.Errorf("second wave re-issued prompts: %d calls", client.calls)
	}
	s := tn.Usage()
	if s.Prompts != warm.Prompts {
		t.Errorf("cached wave must not issue prompts: %d vs %d", s.Prompts, warm.Prompts)
	}
	if s.SimulatedLatency != warm.SimulatedLatency {
		t.Errorf("cached wave must cost zero simulated time: %v vs %v", s.SimulatedLatency, warm.SimulatedLatency)
	}
	if s.CacheHits != 3 {
		t.Errorf("cache hits = %d, want 3", s.CacheHits)
	}
}

// TestWaveCachedConcurrent hammers one cache from many queries'
// waves with overlapping prompt sets on one scheduler; under -race this
// exercises the singleflight and LRU paths concurrently.
func TestWaveCachedConcurrent(t *testing.T) {
	client := &echoClient{}
	cache := NewCache(128)
	s := NewScheduler(cache, 4)

	const queries = 8
	var wg sync.WaitGroup
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			prompts := make([]string, 20)
			for i := range prompts {
				prompts[i] = fmt.Sprintf("p%02d", (q+i)%10)
			}
			tn := s.Tenant(context.Background(), "")
			tn.SetWaves(4)
			defer tn.Close()
			out, err := runWave(tn, client, prompts)
			if err != nil {
				t.Error(err)
				return
			}
			for i, o := range out {
				if o != "echo: "+prompts[i] {
					t.Errorf("query %d output %d misaligned: %q", q, i, o)
					return
				}
			}
		}(q)
	}
	wg.Wait()

	// Ten distinct prompts exist in total; every call past the first ten
	// must have been served by the cache or a shared flight.
	if client.calls != 10 {
		t.Errorf("client called %d times, want 10 distinct prompts", client.calls)
	}
	checkQuiescent(t, cache)
}

// checkResidency asserts the class-count invariant: the per-class
// resident counts sum to Len, each equals what Resident reports, no zero
// or negative count is retained, and every filter family holds exactly
// the sum of its classes.
func checkResidency(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	sum := 0
	counts := make(map[classKey]int, len(c.resident)+len(c.families))
	families := map[classKey]int{}
	for ck, n := range c.resident {
		if n <= 0 {
			t.Errorf("class %+v retained with count %d", ck, n)
		}
		sum += n
		counts[ck] = n
		if fam, ok := ck.class.family(); ok {
			families[classKey{ck.model, fam}] += n
		}
	}
	if len(c.families) != len(families) {
		t.Errorf("%d filter families retained, the classes make %d", len(c.families), len(families))
	}
	for ck, n := range families {
		if c.families[ck] != n {
			t.Errorf("family %+v counts %d, its classes sum to %d", ck, c.families[ck], n)
		}
		counts[ck] = n
	}
	entries := c.lru.Len()
	c.mu.Unlock()
	if sum != entries {
		t.Errorf("Σ resident = %d, Len = %d", sum, entries)
	}
	for ck, n := range counts {
		if got := c.Resident(ck.model, ck.class); got != n {
			t.Errorf("Resident(%+v) = %d, want %d", ck, got, n)
		}
	}
}

// checkQuiescent asserts, once every call has settled, the substrate's
// invariants (no pending entry; the ring, the count and the map agree)
// and the class counts' (checkResidency).
func checkQuiescent(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	err := c.lru.CheckQuiescent()
	c.mu.Unlock()
	if err != nil {
		t.Error(err)
	}
	checkResidency(t, c)
}

// residencyOp applies one random seeding or failing fetch over a small
// key space of two models and five classes (the zero class included), so
// inserts, hits, failures and evictions all occur.
func residencyOp(c *Cache, rng *rand.Rand) {
	classes := []PromptClass{{}, FetchClass("city", "population"), FetchClass("city", "mayor"),
		FilterClass("city", "population", ">", "5"), FilterClass("city", "population", ">", "7")}
	model := []string{"m1", "m2"}[rng.Intn(2)]
	class := classes[rng.Intn(len(classes))]
	prompt := fmt.Sprintf("key %d of %v", rng.Intn(12), class)
	if rng.Intn(2) == 0 {
		seed(c, model, class, prompt, "out")
		return
	}
	_, _, _, _ = c.fetch(context.Background(), model, classTemplate(class), prompt, func() (string, error) {
		if rng.Intn(8) == 0 {
			return "", errors.New("boom") // errors are never cached
		}
		return "out", nil
	})
}

// TestCacheResidencyInvariant: after every step of random fetch / evict
// sequences, at several capacities, the per-class counts match the
// resident entries exactly.
func TestCacheResidencyInvariant(t *testing.T) {
	for _, capacity := range []int{1, 3, 16, 200} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		c := NewCache(capacity)
		for i := 0; i < 3000; i++ {
			residencyOp(c, rng)
			checkResidency(t, c)
			if t.Failed() {
				t.Fatalf("capacity %d: invariant broken at step %d", capacity, i)
			}
		}
	}
	// A class whose last entry is evicted disappears.
	c := NewCache(1)
	seed(c, "m", FetchClass("city", "population"), "a", "1")
	seed(c, "m", FetchClass("city", "mayor"), "b", "2")
	if got := c.Resident("m", FetchClass("city", "population")); got != 0 {
		t.Errorf("evicted class still reports %d resident", got)
	}
	if got := c.Resident("m", FetchClass("CITY", "Mayor")); got != 1 {
		t.Errorf("class names are case-insensitive: got %d resident, want 1", got)
	}
	// A filter family adds up its literals and ignores the fetch class.
	c = NewCache(8)
	seed(c, "m", FilterClass("city", "population", ">", "5"), "a", "yes")
	seed(c, "m", FilterClass("city", "population", "<", "7"), "b", "no")
	seed(c, "m", FetchClass("city", "population"), "c", "9")
	if got := c.Resident("m", FilterFamily("City", "population")); got != 2 {
		t.Errorf("filter family holds %d completions, want 2", got)
	}
}

// TestCacheResidencyConcurrent runs the same random traffic from many
// goroutines (meaningful under -race) and checks the invariant holds
// once they quiesce.
func TestCacheResidencyConcurrent(t *testing.T) {
	c := NewCache(24)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				residencyOp(c, rng)
				if i%64 == 0 {
					c.Resident("m1", FetchClass("city", "population"))
				}
			}
		}(int64(g))
	}
	wg.Wait()
	checkQuiescent(t, c)
}

// fetchResult is what one fetch returned.
type fetchResult struct {
	out    string
	val    any
	issued bool
	err    error
}

// heldFetch starts a fetch of key instantiating tp whose model call
// blocks until answer is sent to, or fails when it is closed, and waits
// until the call is at the model: the cache then holds a pending entry
// for the key.
func heldFetch(c *Cache, tp *Template, key string) (answer chan<- fetchResult, got <-chan fetchResult) {
	ans, res, atModel := make(chan fetchResult, 1), make(chan fetchResult, 1), make(chan struct{})
	go func() {
		out, val, issued, err := c.fetch(context.Background(), "m", tp, key, func() (string, error) {
			close(atModel)
			a, ok := <-ans
			if !ok {
				return "", errors.New("model down")
			}
			return a.out, a.err
		})
		res <- fetchResult{out, val, issued, err}
	}()
	<-atModel
	return ans, res
}

// joiners starts n fetches of key instantiating tp whose own model calls
// answer with answer, and waits until one of them waits on the pending
// entry (the first joiner makes its done channel).
func joiners(t *testing.T, c *Cache, tp *Template, key, answer string, n int) <-chan fetchResult {
	t.Helper()
	res := make(chan fetchResult, n)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	for i := 0; i < n; i++ {
		go func() {
			out, val, issued, err := c.fetch(ctx, "m", tp, key, func() (string, error) { return answer, nil })
			res <- fetchResult{out, val, issued, err}
		}()
	}
	waitDrained(t, "joiners", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.lru.Joined(cacheKey{"m", tp.id, key})
	})
	return res
}

// TestPendingEntryInvisible: a call in flight is a pending entry that no
// lookup, count, walk or eviction sees; it becomes resident, with its
// decoded slot, only when the call succeeds.
func TestPendingEntryInvisible(t *testing.T) {
	class := FetchClass("city", "population")
	tp := withDecoder(NewTemplate("population of ", "?", class), "len", func(s string) any { return len(s) })
	c := NewCache(2)
	answer, got := heldFetch(c, tp, "Oslo")

	if _, _, ok := c.hit("m", tp, "Oslo"); ok {
		t.Error("hit sees a pending entry")
	}
	raw := classTemplate(class)
	rawAnswer, rawGot := heldFetch(c, raw, "Bergen")
	if _, _, ok := c.hit("m", raw, "Bergen"); ok {
		t.Error("a raw-text hit sees a pending entry")
	}
	// Fill the cache past its capacity: evictions must not touch the two
	// pending entries.
	for i := 0; i < 5; i++ {
		seed(c, "m", PromptClass{}, fmt.Sprintf("filler %d", i), "x")
	}
	if n, s := c.Len(), c.Stats(); n != 2 || s.Entries != 2 || s.Hits != 0 || s.Misses != 7 {
		t.Errorf("Len = %d, stats %+v; want the two fillers resident and seven misses", n, s)
	}
	if n := c.Resident("m", class); n != 0 {
		t.Errorf("Resident = %d while both calls are in flight", n)
	}
	c.EachDecoded(func(out string, _, _ any) { t.Errorf("EachDecoded walks %q", out) })
	checkResidency(t, c)

	answer <- fetchResult{out: "372000"}
	rawAnswer <- fetchResult{out: "285000"}
	if r := <-got; r.err != nil || r.out != "372000" || r.val != 6 || !r.issued {
		t.Errorf("leader = %+v", r)
	}
	if r := <-rawGot; r.err != nil || r.out != "285000" {
		t.Errorf("raw leader = %+v", r)
	}
	if out, val, ok := c.hit("m", tp, "Oslo"); !ok || out != "372000" || val != 6 {
		t.Errorf("settled hit = %q, %v, %v", out, val, ok)
	}
	if out, _, ok := c.hit("m", raw, "Bergen"); !ok || out != "285000" {
		t.Errorf("settled raw-text hit = %q, %v", out, ok)
	}
	if n := c.Resident("m", class); n != 2 {
		t.Errorf("Resident = %d after both calls settled, want 2", n)
	}
	walked := 0
	c.EachDecoded(func(out string, slot, fresh any) {
		if walked++; slot != fresh {
			t.Errorf("slot %v, fresh %v", slot, fresh)
		}
	})
	if walked != 1 {
		t.Errorf("EachDecoded walked %d entries, want the one decoded", walked)
	}
	checkResidency(t, c)
}

// TestFailingLeaderCachesNothing: a leader whose call fails leaves no
// entry behind, and its joiners retry: one of them leads a fresh call
// while the others join it, so the failure costs exactly one more call.
func TestFailingLeaderCachesNothing(t *testing.T) {
	c := NewCache(8)
	answer, got := heldFetch(c, rawText, "p")
	const n = 4
	waiting := joiners(t, c, rawText, "p", "answer", n)
	close(answer) // the leader's call fails
	if r := <-got; !r.issued || r.err == nil {
		t.Fatalf("leader = %+v, want its failure", r)
	}
	for i := 0; i < n; i++ {
		if r := <-waiting; r.err != nil || r.out != "answer" {
			t.Errorf("joiner %d = %+v, want its retried answer", i, r)
		}
	}
	if s := c.Stats(); s.Misses != 2 || s.Hits != n-1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want the failed and the retried call, %d hits and one entry", s, n-1)
	}
	checkResidency(t, c)

	// Without joiners a failure leaves the key absent.
	answer, got = heldFetch(c, rawText, "q")
	answer <- fetchResult{err: errors.New("boom")}
	<-got
	if c.Len() != 1 {
		t.Errorf("Len = %d after a failed call, want 1", c.Len())
	}
	checkQuiescent(t, c) // no pending entry left behind
}

// TestCollisionBesidePendingEntry: a template colliding with a pending
// entry runs its own call beside it, uncached, and neither template
// receives the other's answer.
func TestCollisionBesidePendingEntry(t *testing.T) {
	a, b := collidingTemplates()
	c := NewCache(8)
	answer, got := heldFetch(c, a, "Paris")
	out, _, issued, err := c.fetch(context.Background(), "m", b, "Paris", func() (string, error) { return "mayor", nil })
	if err != nil || !issued || out != "mayor" {
		t.Fatalf("colliding fetch = %q, %v, %v; want its own call", out, issued, err)
	}
	answer <- fetchResult{out: "population"}
	if r := <-got; r.out != "population" {
		t.Errorf("leader got %q", r.out)
	}
	if out, _, ok := c.hit("m", a, "Paris"); !ok || out != "population" {
		t.Errorf("a's hit = %q, %v", out, ok)
	}
	if _, _, ok := c.hit("m", b, "Paris"); ok {
		t.Error("b hit a's entry")
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 1 {
		t.Errorf("stats = %+v, want two calls and a's entry alone", s)
	}
	checkQuiescent(t, c)
}

// TestJoinerReadsSettledFields: joiners read the answer of the call they
// joined without the lock, while a colliding template takes the entry
// over and the key is fetched again. Under -race this fails if a takeover
// or an insert rewrote the joined entry instead of replacing it.
func TestJoinerReadsSettledFields(t *testing.T) {
	a, b := collidingTemplates()
	c := NewCache(4)
	for round := 0; round < 100; round++ {
		key := fmt.Sprintf("k%d", round%3)
		answer, got := heldFetch(c, a, key)
		waiting := joiners(t, c, a, key, "unused", 1)
		answer <- fetchResult{out: "a-answer"}
		if r := <-got; r.out != "a-answer" {
			t.Fatalf("round %d: leader got %q", round, r.out)
		}
		// The joiner may not have read its answer yet: take the settled
		// entry over at once, put a back, and take it over again.
		for _, tp := range []*Template{b, a, b} {
			want := map[*Template]string{a: "a-again", b: "b-answer"}[tp]
			if out, _, _, err := c.fetch(context.Background(), "m", tp, key, func() (string, error) { return want, nil }); err != nil || out != want {
				t.Fatalf("round %d: fetch = %q, %v; want %q", round, out, err, want)
			}
		}
		if r := <-waiting; r.err != nil || r.out != "a-answer" || r.issued {
			t.Fatalf("round %d: joiner = %+v, want the joined call's answer", round, r)
		}
	}
	checkQuiescent(t, c)
}
