package rescache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logical"
	"repro/internal/schema"
	"repro/internal/value"
)

// rel builds a one-column relation holding the given strings.
func rel(cells ...string) *schema.Relation {
	r := schema.NewRelation(schema.New(schema.Column{Name: "v", Type: value.KindString}))
	for _, c := range cells {
		r.Append(schema.Tuple{value.Text(c)})
	}
	return r
}

func entry(cells ...string) *Entry { return &Entry{Rel: rel(cells...), Plan: "plan"} }

// entryT is entry with an explicit (sorted) component set.
func entryT(tables []string, cells ...string) *Entry {
	e := entry(cells...)
	e.Tables = tables
	return e
}

// conjs returns a consumer's conjuncts with the given texts, as a probe
// reads them.
func conjs(texts ...string) []logical.Conjunct {
	out := make([]logical.Conjunct, len(texts))
	for i, t := range texts {
		out[i].Text = t
	}
	return out
}

// fill is one full two-phase read: the cached or shared entry when
// Lookup finds one, otherwise e, settled as this caller's result. The
// bool reports whether the result came from the cache or a flight.
func fill(c *Cache, key Key, e *Entry) (*Entry, bool, error) {
	got, lead, err := c.Lookup(context.Background(), key)
	if err != nil || lead == nil {
		return got, err == nil, err
	}
	lead.Settle(e, nil)
	return e, false, nil
}

func fetch(t *testing.T, c *Cache, key Key, e *Entry) (*Entry, bool) {
	t.Helper()
	got, cached, err := fill(c, key, e)
	if err != nil {
		t.Fatal(err)
	}
	return got, cached
}

// checkQuiescent asserts, once every flight has settled, the substrate's
// invariants (no pending node; the ring, the count, the map and the byte
// total agree) and the cache's own: every resident producer is filed in
// the conjunct index exactly once, in its group under its first conjunct
// (or on the free list), the index holds nothing else and no empty list
// or group, and every kept body is charged to a resident entry — the
// charges are the entries' approxBytes plus their kept bodies.
func checkQuiescent(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.lru.CheckQuiescent(); err != nil {
		t.Error(err)
	}
	want, producers, filed := 0, 0, 0
	for n := range c.lru.Coldest() {
		want += approxBytes(n.Val)
		for slot := range BodySlots {
			b, _ := n.Val.Body(slot)
			want += len(b)
		}
		if n.Val.Prod != nil {
			producers++
		}
	}
	for gk, g := range c.groups {
		if len(g) == 0 {
			t.Errorf("empty group %+v left in the index", gk)
		}
		for text, list := range g {
			if len(list) == 0 {
				t.Errorf("empty list %q left in group %+v", text, gk)
			}
			for _, n := range list {
				filed++
				if !n.Resident() || n.Val.Prod == nil || groupOf(n) != gk || filedUnder(n.Val.Prod) != text {
					t.Errorf("entry %v misfiled under %q in group %+v", n.Key, text, gk)
				}
			}
		}
	}
	if want != c.lru.Bytes() || filed != producers {
		t.Errorf("resident entries and bodies make %d bytes, charged %d; %d filed of %d resident producers",
			want, c.lru.Bytes(), filed, producers)
	}
}

// epochs is a test stand-in for the runtime's per-component epoch store:
// current renders a stamp, bump advances one component and invalidates.
type epochs struct {
	mu sync.Mutex
	m  map[string]uint64
}

func newEpochs() *epochs { return &epochs{m: map[string]uint64{}} }

func (e *epochs) current(tables []string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var b strings.Builder
	for _, t := range tables {
		fmt.Fprintf(&b, "%s=%d;", t, e.m[t])
	}
	return b.String()
}

func (e *epochs) bump(c *Cache, comp string) {
	e.mu.Lock()
	e.m[comp]++
	e.mu.Unlock()
	c.InvalidateComponent(comp)
}

func TestFetchPopulatesAndHits(t *testing.T) {
	c := New(Config{Capacity: 4})
	key := Key{Fingerprint: "q1"}

	got, cached := fetch(t, c, key, entry("a", "b"))
	if cached {
		t.Error("first fetch reported cached")
	}
	if got.Rel.Cardinality() != 2 {
		t.Errorf("leader got %d rows", got.Rel.Cardinality())
	}

	got2, cached2 := fetch(t, c, key, entry("MUST NOT RUN"))
	if !cached2 {
		t.Error("second fetch missed")
	}
	if got2.Rel.String() != got.Rel.String() {
		t.Errorf("hit diverged: %q vs %q", got2.Rel.String(), got.Rel.String())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1/1/1", st)
	}
	if st.Bytes <= 0 {
		t.Errorf("resident bytes = %d, want > 0", st.Bytes)
	}
}

// TestReadsShareResidentEntry: the cache copies nothing. Hits, flight
// followers and Subsumed all hand out the entry the leader settled —
// which is why served relations are read-only.
func TestReadsShareResidentEntry(t *testing.T) {
	c := New(Config{Capacity: 4})
	key := Key{Fingerprint: "q"}
	_, lead, err := c.Lookup(context.Background(), key)
	if err != nil || lead == nil {
		t.Fatalf("first lookup: lead=%v err=%v", lead, err)
	}
	// A concurrent reader follows the flight, or hits if it arrives
	// after Settle; either way it must get the settled entry.
	follower := make(chan *Entry, 1)
	go func() {
		got, _, _ := c.Lookup(context.Background(), key)
		follower <- got
	}()
	settled := entry("shared")
	lead.Settle(settled, nil)

	if got := <-follower; got != settled {
		t.Errorf("follower got %p, want the settled entry %p", got, settled)
	}
	if got, _ := fetch(t, c, key, entry("MUST NOT RUN")); got != settled {
		t.Errorf("hit got %p, want the settled entry %p", got, settled)
	}
	if got, ok := c.Subsumed(key); !ok || got != settled {
		t.Errorf("Subsumed got %p (ok=%v), want the settled entry %p", got, ok, settled)
	}
}

func TestStampKeysAreDistinct(t *testing.T) {
	c := New(Config{Capacity: 4})
	if _, cached := fetch(t, c, Key{Fingerprint: "q", Stamp: "llm:city=0;"}, entry("old")); cached {
		t.Fatal("unexpected hit")
	}
	// Same fingerprint, newer stamp: must miss and recompute.
	got, cached := fetch(t, c, Key{Fingerprint: "q", Stamp: "llm:city=1;"}, entry("new"))
	if cached {
		t.Error("lookup at a newer stamp hit a stale entry")
	}
	if got.Rel.Rows[0][0].String() != "new" {
		t.Errorf("got %q", got.Rel.Rows[0][0].String())
	}
}

// TestInvalidateComponentSelective: rebinding one table must evict only
// the entries reading it; entries over other tables keep hitting.
func TestInvalidateComponentSelective(t *testing.T) {
	ep := newEpochs()
	c := New(Config{Capacity: 8, CurrentStamp: ep.current})
	city, country := []string{"llm:city"}, []string{"llm:country"}
	both := []string{"llm:city", "llm:country"}

	fetch(t, c, Key{Fingerprint: "city", Stamp: ep.current(city)}, entryT(city, "c"))
	fetch(t, c, Key{Fingerprint: "country", Stamp: ep.current(country)}, entryT(country, "n"))
	fetch(t, c, Key{Fingerprint: "join", Stamp: ep.current(both)}, entryT(both, "j"))

	ep.bump(c, "llm:city")
	if got := c.Len(); got != 1 {
		t.Fatalf("after bumping llm:city len = %d, want 1 (only the country entry)", got)
	}
	if _, cached := fetch(t, c, Key{Fingerprint: "country", Stamp: ep.current(country)}, entry("MUST NOT RUN")); !cached {
		t.Error("country entry was invalidated by a city rebind")
	}
	// City and join lookups at the new stamp must recompute.
	if _, cached := fetch(t, c, Key{Fingerprint: "city", Stamp: ep.current(city)}, entryT(city, "c2")); cached {
		t.Error("city entry survived its component bump")
	}
	if _, cached := fetch(t, c, Key{Fingerprint: "join", Stamp: ep.current(both)}, entryT(both, "j2")); cached {
		t.Error("join entry survived its component bump")
	}
}

// TestStaleInsertDropped: an execution that straddles a bump must not
// resurrect a stale relation — its insert is validated against the
// current stamp and dropped.
func TestStaleInsertDropped(t *testing.T) {
	ep := newEpochs()
	c := New(Config{Capacity: 8, CurrentStamp: ep.current})
	city := []string{"llm:city"}
	key := Key{Fingerprint: "q", Stamp: ep.current(city)}

	_, lead, err := c.Lookup(context.Background(), key)
	if err != nil || lead == nil {
		t.Fatalf("first lookup: lead=%v err=%v", lead, err)
	}
	// The bump lands while this execution is in flight.
	ep.bump(c, "llm:city")
	lead.Settle(entryT(city, "stale"), nil)
	if c.Len() != 0 {
		t.Errorf("stale insert was retained (len = %d)", c.Len())
	}
}

// TestInvalidateKeepsCurrentEntries: an insert that raced the bump but
// landed already re-stamped is valid and must survive the invalidation
// scan.
func TestInvalidateKeepsCurrentEntries(t *testing.T) {
	ep := newEpochs()
	c := New(Config{Capacity: 8, CurrentStamp: ep.current})
	city := []string{"llm:city"}
	ep.m["llm:city"] = 3
	fetch(t, c, Key{Fingerprint: "q", Stamp: ep.current(city)}, entryT(city, "fresh"))
	// A bump-less invalidation scan (as if the epoch write already
	// happened before the insert): the entry's stamp is current, keep it.
	c.InvalidateComponent("llm:city")
	if c.Len() != 1 {
		t.Errorf("current-stamp entry was evicted (len = %d)", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{Capacity: 2})
	fetch(t, c, Key{Fingerprint: "a"}, entry("a"))
	fetch(t, c, Key{Fingerprint: "b"}, entry("b"))
	// Touch a so b is the LRU victim.
	fetch(t, c, Key{Fingerprint: "a"}, entry("MUST NOT RUN"))
	fetch(t, c, Key{Fingerprint: "c"}, entry("c"))
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, cached := fetch(t, c, Key{Fingerprint: "a"}, entry("a2")); !cached {
		t.Error("recently used entry was evicted")
	}
	if _, cached := fetch(t, c, Key{Fingerprint: "b"}, entry("b2")); cached {
		t.Error("LRU entry survived over capacity")
	}
}

// TestByteBudgetEviction: the byte cap evicts from the LRU cold end even
// when the entry capacity is not reached, and a single entry larger than
// the whole budget is not cached at all.
func TestByteBudgetEviction(t *testing.T) {
	// Measure one entry's approximate size through a throwaway cache.
	probe := New(Config{Capacity: 4})
	fetch(t, probe, Key{Fingerprint: "probe"}, entry("xxxxxxxxxxxxxxxx"))
	one := probe.Stats().Bytes
	if one <= 0 {
		t.Fatalf("probe bytes = %d", one)
	}

	c := New(Config{Capacity: 16, MaxBytes: one + one/2})
	fetch(t, c, Key{Fingerprint: "a"}, entry("xxxxxxxxxxxxxxxx"))
	fetch(t, c, Key{Fingerprint: "b"}, entry("xxxxxxxxxxxxxxxx"))
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (byte budget holds one entry)", c.Len())
	}
	if _, cached := fetch(t, c, Key{Fingerprint: "b"}, entry("MUST NOT RUN")); !cached {
		t.Error("newest entry was the byte-eviction victim")
	}
	if st := c.Stats(); st.Bytes > one+one/2 {
		t.Errorf("resident bytes %d exceed the budget %d", st.Bytes, one+one/2)
	}

	tiny := New(Config{Capacity: 16, MaxBytes: one - 1})
	fetch(t, tiny, Key{Fingerprint: "big"}, entry("xxxxxxxxxxxxxxxx"))
	if tiny.Len() != 0 {
		t.Errorf("oversized entry was cached (len = %d)", tiny.Len())
	}
}

// TestCandidatesAndSubsumed: the conjunct index returns only
// producer-capable entries of the exact table set and stamp whose
// conjuncts the consumer's contain, smallest relation first, and
// Subsumed counts its own statistic.
func TestCandidatesAndSubsumed(t *testing.T) {
	c := New(Config{Capacity: 8})
	city := []string{"llm:city"}
	prod := func(conjs ...string) *Producer {
		return &Producer{Opts: "o|", FromKey: "from", FromLabel: "LLM.city AS c", Conjuncts: conjs}
	}
	big := entryT(city, "a", "b", "c")
	big.Prod = prod()
	small := entryT(city, "a")
	small.Prod = prod("c.pop > 5")
	plain := entryT(city, "x") // no producer: exact-only entry
	other := entryT([]string{"llm:country"}, "y")
	other.Prod = prod()

	fetch(t, c, Key{Fingerprint: "big", Stamp: "s"}, big)
	fetch(t, c, Key{Fingerprint: "small", Stamp: "s"}, small)
	fetch(t, c, Key{Fingerprint: "plain", Stamp: "s"}, plain)
	stale := entryT(city, "a", "b", "c")
	stale.Prod = prod()
	fetch(t, c, Key{Fingerprint: "stale", Stamp: "old"}, stale)
	fetch(t, c, Key{Fingerprint: "other", Stamp: "s"}, other)

	if got := c.Subsumers(city, "s", "o|", "from", nil); len(got) != 1 || got[0].Key.Fingerprint != "big" {
		t.Errorf("a consumer without c.pop > 5 got %v, want only big", got)
	}
	got := c.Subsumers(city, "s", "o|", "from", conjs("c.pop > 5"))
	if len(got) != 2 {
		t.Fatalf("candidates = %d, want 2", len(got))
	}
	if got[0].Key.Fingerprint != "small" || got[1].Key.Fingerprint != "big" {
		t.Errorf("candidate order = %q, %q; want small, big", got[0].Key.Fingerprint, got[1].Key.Fingerprint)
	}
	if got[0].Rows != 1 || got[1].Rows != 3 {
		t.Errorf("candidate rows = %d, %d", got[0].Rows, got[1].Rows)
	}
	if got[1].Prod.FromLabel != "LLM.city AS c" {
		t.Errorf("producer metadata lost: %+v", got[1].Prod)
	}
	if len(got[0].Residual) != 0 || len(got[1].Residual) != 1 || got[1].Residual[0].Text != "c.pop > 5" {
		t.Errorf("residuals %v, %v; want none for small and c.pop > 5 for big", got[0].Residual, got[1].Residual)
	}

	e, ok := c.Subsumed(Key{Fingerprint: "big", Stamp: "s"})
	if !ok || e.Rel.Cardinality() != 3 {
		t.Fatalf("Subsumed: ok=%v entry=%v", ok, e)
	}
	if e2, _ := c.Subsumed(Key{Fingerprint: "big", Stamp: "s"}); e2 != e {
		t.Error("Subsumed handed out a copy of the resident entry")
	}
	if _, ok := c.Subsumed(Key{Fingerprint: "gone", Stamp: "s"}); ok {
		t.Error("Subsumed found a nonexistent entry")
	}
	st := c.Stats()
	if st.SubsumedHits != 2 {
		t.Errorf("subsumed hits = %d, want 2", st.SubsumedHits)
	}
	if st.Hits != 0 {
		t.Errorf("exact hits = %d, want 0 (Subsumed must not count as exact)", st.Hits)
	}
}

// TestSingleflight: concurrent identical lookups share one computation.
func TestSingleflight(t *testing.T) {
	c := New(Config{Capacity: 4})
	var calls atomic.Int32
	release := make(chan struct{})
	const k = 16
	var wg sync.WaitGroup
	rels := make([]*Entry, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, lead, err := c.Lookup(context.Background(), Key{Fingerprint: "q"})
			if err != nil {
				t.Error(err)
				return
			}
			if lead != nil {
				calls.Add(1)
				<-release
				got = entry("shared")
				lead.Settle(got, nil)
			}
			rels[i] = got
		}(i)
	}
	// The leader blocks until released; every other goroutine either
	// waits on its flight or hits the populated entry afterwards.
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("%d computations for %d concurrent identical fetches, want 1", n, k)
	}
	for i, e := range rels {
		if e == nil || e.Rel.Rows[0][0].String() != "shared" {
			t.Fatalf("goroutine %d got %v", i, e)
		}
	}
	st := c.Stats()
	if st.Hits != k-1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want %d hits / 1 miss", st, k-1)
	}
	checkQuiescent(t, c)
}

// TestLeaderErrorNotCachedAndJoinersRetry: errors are never cached, and
// a follower whose leader failed retries — it leads the next flight —
// instead of inheriting the error.
func TestLeaderErrorNotCachedAndJoinersRetry(t *testing.T) {
	c := New(Config{Capacity: 4})
	key := Key{Fingerprint: "q"}
	_, lead, err := c.Lookup(context.Background(), key)
	if err != nil || lead == nil {
		t.Fatalf("first lookup: lead=%v err=%v", lead, err)
	}
	type result struct {
		lead *Lead
		err  error
	}
	follower := make(chan result, 1)
	go func() {
		_, l, err := c.Lookup(context.Background(), key)
		follower <- result{l, err}
	}()
	lead.Settle(nil, errors.New("boom"))

	r := <-follower
	if r.err != nil || r.lead == nil {
		t.Fatalf("follower after a failed leader: lead=%v err=%v, want a fresh lead", r.lead, r.err)
	}
	r.lead.Settle(entry("ok"), nil)
	got, cached := fetch(t, c, key, entry("MUST NOT RUN"))
	if !cached || got.Rel.Rows[0][0].String() != "ok" {
		t.Errorf("lookup after the retry: cached=%v rel=%v", cached, got.Rel)
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 entry / 2 misses (the failure cached nothing)", st)
	}
}

// TestLeaderPanicDoesNotPoisonKey: a leader that panics before settling
// — its holder releases the lead from a deferred path — must resolve the
// flight (followers retry) instead of leaving the key blocked forever.
// A later settle never overrides the first. This pins the Lead contract
// the holder relies on; the holder's own release paths (a failed open,
// Close before io.EOF) are tested in core.
func TestLeaderPanicDoesNotPoisonKey(t *testing.T) {
	c := New(Config{Capacity: 4})
	key := Key{Fingerprint: "q"}

	leading := make(chan struct{})
	follower := make(chan *Lead, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		_, lead, err := c.Lookup(context.Background(), key)
		if err != nil || lead == nil {
			t.Fatalf("first lookup: lead=%v err=%v", lead, err)
		}
		defer lead.Settle(nil, errors.New("abandoned"))
		go func() {
			close(leading)
			_, l, _ := c.Lookup(context.Background(), key)
			follower <- l
		}()
		<-leading
		panic("boom")
	}()

	// The waiting (or late) follower must get a usable lead.
	var l *Lead
	select {
	case l = <-follower:
	case <-time.After(5 * time.Second):
		t.Fatal("cache key poisoned: follower never returned after the leader panicked")
	}
	if l == nil {
		t.Fatal("follower got no lead after the leader panicked")
	}
	l.Settle(entry("recovered"), nil)
	l.Settle(nil, errors.New("late release")) // no effect after the first settle
	if got, cached := fetch(t, c, key, entry("MUST NOT RUN")); !cached || got.Rel.Rows[0][0].String() != "recovered" {
		t.Errorf("lookup after recovery: cached=%v rel=%v", cached, got.Rel)
	}
}

func TestFetchContextCancelled(t *testing.T) {
	c := New(Config{Capacity: 4})
	_, lead, err := c.Lookup(context.Background(), Key{Fingerprint: "q"})
	if err != nil || lead == nil {
		t.Fatalf("first lookup: lead=%v err=%v", lead, err)
	}
	defer lead.Settle(entry("late"), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, l, err := c.Lookup(ctx, Key{Fingerprint: "q"}); !errors.Is(err, context.Canceled) || l != nil {
		t.Errorf("cancelled follower: lead=%v err=%v", l, err)
	}
}

// TestConcurrentInvalidationStorm hammers the cache from many goroutines
// under -race: fetches over per-component stamps, subsumption lookups,
// and component bumps interleaved. Invariant: a fetch keyed at the
// current stamp never observes a relation computed for another
// component's state, and nothing deadlocks.
func TestConcurrentInvalidationStorm(t *testing.T) {
	ep := newEpochs()
	c := New(Config{Capacity: 16, CurrentStamp: ep.current})
	comps := []string{"llm:a", "llm:b", "llm:c"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				comp := comps[i%len(comps)]
				tables := []string{comp}
				key := Key{Fingerprint: fmt.Sprintf("q%d", i%5), Stamp: ep.current(tables)}
				want := key.Fingerprint + "@" + key.Stamp
				e := entryT(tables, want)
				e.Prod = &Producer{Opts: "o|", FromKey: key.Fingerprint, FromLabel: comp}
				got, _, err := fill(c, key, e)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Rel.Rows[0][0].String() != want {
					t.Errorf("stale relation for %v: got %q", key, got.Rel.Rows[0][0].String())
					return
				}
				switch {
				case i%31 == 0:
					ep.bump(c, comp)
				case i%7 == 0:
					for _, cand := range c.Subsumers(tables, ep.current(tables), "o|", key.Fingerprint, nil) {
						if e, ok := c.Subsumed(cand.Key); ok {
							if e.Rel.Rows[0][0].String() != cand.Key.Fingerprint+"@"+cand.Key.Stamp {
								t.Errorf("subsumption served a mismatched relation")
								return
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	checkQuiescent(t, c)
}

// recordingSink logs sink callbacks under its own lock, and optionally
// re-enters the cache on StoreEntry to prove hooks fire outside c.mu.
type recordingSink struct {
	mu      sync.Mutex
	stores  []Key
	drops   []Key
	reenter *Cache
}

func (s *recordingSink) StoreEntry(key Key, e *Entry) {
	if s.reenter != nil {
		s.reenter.Len() // would deadlock if hooks ran under the cache mutex
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stores = append(s.stores, key)
}

func (s *recordingSink) DropEntry(key Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drops = append(s.drops, key)
}

func (s *recordingSink) counts() (stores, drops int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stores), len(s.drops)
}

// TestSinkNotifications: inserts reach StoreEntry, invalidation and
// eviction reach DropEntry, and a stale-stamp insert is dropped (the
// sink must not keep a relation the cache refused).
func TestSinkNotifications(t *testing.T) {
	ep := newEpochs()
	c := New(Config{Capacity: 2, CurrentStamp: ep.current})
	sink := &recordingSink{reenter: c}
	c.SetSink(sink)
	city := []string{"llm:city"}

	fetch(t, c, Key{Fingerprint: "a", Stamp: ep.current(city)}, entryT(city, "a"))
	if stores, _ := sink.counts(); stores != 1 {
		t.Fatalf("stores after insert = %d, want 1", stores)
	}

	// Invalidation drops through the sink.
	ep.bump(c, "llm:city")
	if _, drops := sink.counts(); drops != 1 {
		t.Fatalf("drops after invalidate = %d, want 1", drops)
	}

	// A stale-stamp insert is refused and the sink told to drop it.
	stale := Key{Fingerprint: "b", Stamp: "llm:city=0;"}
	fetch(t, c, stale, entryT(city, "b"))
	sink.mu.Lock()
	lastDrop := sink.drops[len(sink.drops)-1]
	sink.mu.Unlock()
	if lastDrop != stale {
		t.Fatalf("stale insert not dropped through sink: %+v", lastDrop)
	}

	// Capacity eviction drops the coldest key through the sink.
	for _, fp := range []string{"c", "d", "e"} {
		fetch(t, c, Key{Fingerprint: fp, Stamp: ep.current(city)}, entryT(city, fp))
	}
	sink.mu.Lock()
	lastDrop = sink.drops[len(sink.drops)-1]
	sink.mu.Unlock()
	if lastDrop.Fingerprint != "c" {
		t.Errorf("eviction drop = %q, want coldest key c", lastDrop.Fingerprint)
	}
}

// TestDumpLoadRoundTrip: a dump replayed through Load reconstructs the
// entries and their LRU order, loads are stamp-validated, and Load never
// echoes StoreEntry back.
func TestDumpLoadRoundTrip(t *testing.T) {
	ep := newEpochs()
	src := New(Config{Capacity: 8, CurrentStamp: ep.current})
	city := []string{"llm:city"}
	for _, fp := range []string{"cold", "mid", "hot"} {
		fetch(t, src, Key{Fingerprint: fp, Stamp: ep.current(city)}, entryT(city, fp))
	}
	dump := src.Dump()
	if len(dump) != 3 || dump[0].Key.Fingerprint != "cold" || dump[2].Key.Fingerprint != "hot" {
		t.Fatalf("dump order = %+v, want cold..hot", dump)
	}

	dst := New(Config{Capacity: 2, CurrentStamp: ep.current})
	sink := &recordingSink{}
	dst.SetSink(sink)
	loaded := 0
	for _, d := range dump {
		if dst.Load(d.Key, d.Entry) {
			loaded++
		}
	}
	if loaded != 3 {
		t.Fatalf("loaded = %d, want 3 (capacity eviction happens after admit)", loaded)
	}
	// Capacity 2: "cold" was evicted again when "hot" loaded; LRU order kept.
	if dst.Len() != 2 {
		t.Fatalf("dst len = %d, want 2", dst.Len())
	}
	if _, ok := dst.Subsumed(Key{Fingerprint: "cold", Stamp: ep.current(city)}); ok {
		t.Error("coldest dumped entry survived a smaller capacity")
	}
	if stores, _ := sink.counts(); stores != 0 {
		t.Errorf("Load echoed %d StoreEntry calls, want 0", stores)
	}

	got, lead, err := dst.Lookup(context.Background(), Key{Fingerprint: "hot", Stamp: ep.current(city)})
	if err != nil || lead != nil || got.Rel.Rows[0][0].String() != "hot" {
		t.Fatalf("warm-loaded entry not served: %v %v %v", got, lead, err)
	}

	// A load whose stamp is stale is refused.
	ep.bump(dst, "llm:city")
	if dst.Load(dump[1].Key, dump[1].Entry) {
		t.Error("stale-stamp load admitted")
	}
}

// TestCandidatesConcurrentWithInserts hammers the probe against
// concurrent inserts and invalidation under -race: the snapshot must
// never observe a torn entry.
func TestCandidatesConcurrentWithInserts(t *testing.T) {
	ep := newEpochs()
	c := New(Config{Capacity: 64, CurrentStamp: ep.current})
	city := []string{"llm:city"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := Key{Fingerprint: fmt.Sprintf("q%d-%d", g, i%9), Stamp: ep.current(city)}
				e := entryT(city, "v")
				e.Prod = &Producer{Opts: "o|", FromKey: "from", Conjuncts: []string{"c > 1"}}
				fill(c, key, e)
				if i%17 == 0 {
					ep.bump(c, "llm:city")
				}
			}
		}(g)
	}
	deadline := time.After(200 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			for _, cand := range c.Subsumers(city, ep.current(city), "o|", "from", conjs("c > 2", "c > 1")) {
				if len(cand.Prod.Conjuncts) != 1 || cand.Schema == nil {
					t.Errorf("torn candidate: %+v", cand)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	checkQuiescent(t, c)
}

// residentProducers fills a cache with 256 producers over one table set
// and stamp, as a server's full result cache holds them: 4 FROM trees,
// each entry filed under its own population threshold. It returns the
// conjuncts of a consumer that finds none of them and of one that finds
// producer 7 (and no other).
func residentProducers() (c *Cache, miss, hit []logical.Conjunct) {
	c = New(Config{Capacity: 256})
	for i := 0; i < 256; i++ {
		e := entryT([]string{"llm:city"}, "a", "b", "c", "d")
		e.Prod = &Producer{Opts: "o|", FromKey: fmt.Sprintf("from%d", i%4),
			Conjuncts: []string{fmt.Sprintf("c.pop > %d", i), "c.country = 'x'"}}
		fill(c, Key{Fingerprint: fmt.Sprintf("f%d", i), Stamp: "s"}, e)
	}
	return c, conjs("c.pop > 999", "c.country = 'x'"), conjs("c.name < 'M'", "c.pop > 7", "c.country = 'x'")
}

// BenchmarkCandidates measures one planning pass's subsumption probe over
// 256 resident producers: one that finds nothing, the common miss, and
// one that finds a producer to run a residual over.
func BenchmarkCandidates(b *testing.B) {
	c, miss, hit := residentProducers()
	city := []string{"llm:city"}
	for _, bc := range []struct {
		name  string
		conjs []logical.Conjunct
		want  int
	}{{"miss", miss, 0}, {"residual", hit, 1}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if got := c.Subsumers(city, "s", "o|", "from3", bc.conjs); len(got) != bc.want {
					b.Fatalf("candidates = %d, want %d", len(got), bc.want)
				}
			}
		})
	}
}

// TestEmptyProbeAllocs pins the probe of a consumer no resident producer
// answers, the common result-cache miss, at zero allocations.
func TestEmptyProbeAllocs(t *testing.T) {
	c, miss, _ := residentProducers()
	city := []string{"llm:city"}
	if allocs := testing.AllocsPerRun(100, func() { c.Subsumers(city, "s", "o|", "from3", miss) }); allocs != 0 {
		t.Errorf("empty probe: %.0f allocs, want 0", allocs)
	}
}

// TestAttachBodyAccounting: an attached body is kept at its exact size
// and charged to its entry's resident bytes, every later reader of the
// slot sees it, and evicting the entry returns the byte count to its
// pre-insert value.
func TestAttachBodyAccounting(t *testing.T) {
	c := New(Config{Capacity: 1})
	key := Key{Fingerprint: "a"}
	e, _ := fetch(t, c, key, entry("x", "y"))
	inserted := c.Stats().Bytes
	// An encoder's buffer: spare capacity past the encoded bytes.
	body := append(make([]byte, 0, 256), `{"rows":[["x"],["y"]]}`...)
	if got := c.AttachBody(key, e, 1, body); string(got) != string(body) {
		t.Fatalf("attach returned %q", got)
	}
	if got := c.Stats().Bytes; got != inserted+len(body) {
		t.Errorf("bytes after attach = %d, want %d", got, inserted+len(body))
	}
	got, keep := e.Body(1)
	if string(got) != string(body) || !keep {
		t.Errorf("slot 1 = %q (keep %v), want the attached body", got, keep)
	}
	if cap(got) != len(body) {
		t.Errorf("kept body has capacity %d, want its length %d", cap(got), len(body))
	}
	if b, keep := e.Body(0); b != nil || !keep {
		t.Error("attach filled or declined another slot")
	}
	hit, _ := fetch(t, c, key, entry("MUST NOT RUN"))
	if b, _ := hit.Body(1); string(b) != string(body) {
		t.Error("a later hit does not see the attached body")
	}

	fetch(t, c, Key{Fingerprint: "b"}, entry("z")) // evicts a
	if _, ok := c.Subsumed(key); ok {
		t.Fatal("a still resident after a capacity-1 insert")
	}
	if got, want := c.Stats().Bytes, approxBytes(entry("z")); got != want {
		t.Errorf("bytes after evicting the bodied entry = %d, want %d (b alone)", got, want)
	}
	checkQuiescent(t, c)
}

// TestAttachBodyNeverEvicts: under a byte budget too tight for the body,
// attaching keeps nothing, evicts nothing, still returns the bytes to
// serve and declines the slot for good; an entry no longer resident
// under its key keeps nothing either.
func TestAttachBodyNeverEvicts(t *testing.T) {
	one := approxBytes(entry("x"))
	c := New(Config{Capacity: 16, MaxBytes: 2*one + 10})
	ka, kb := Key{Fingerprint: "a"}, Key{Fingerprint: "b"}
	ea, _ := fetch(t, c, ka, entry("x"))
	fetch(t, c, kb, entry("x"))
	before := c.Stats()
	body := make([]byte, 11)
	if got := c.AttachBody(ka, ea, 0, body); len(got) != len(body) {
		t.Fatalf("attach returned %d bytes, want the %d offered", len(got), len(body))
	}
	if b, keep := ea.Body(0); b != nil || keep {
		t.Errorf("over-budget slot = %q (keep %v), want nothing kept and the slot declined", b, keep)
	}
	if after := c.Stats(); after.Entries != before.Entries || after.Bytes != before.Bytes {
		t.Errorf("over-budget attach moved the cache: %+v -> %+v", before, after)
	}
	if got := c.AttachBody(ka, ea, 0, body[:10]); len(got) != 10 {
		t.Errorf("attach to a declined slot returned %d bytes, want the 10 offered", len(got))
	}
	if b, _ := ea.Body(0); b != nil {
		t.Error("a declined slot kept a later body")
	}
	if got := c.AttachBody(ka, ea, 1, body[:10]); len(got) != 10 {
		t.Errorf("attach returned %d bytes, want 10", len(got))
	}
	if b, _ := ea.Body(1); b == nil {
		t.Error("a body that fits the budget was not kept")
	}

	stale := entry("x")
	if c.AttachBody(Key{Fingerprint: "gone"}, stale, 0, body) == nil {
		t.Error("attach to an entry that is not resident returned nothing to serve")
	}
	if b, keep := stale.Body(0); b != nil || keep {
		t.Error("a body was kept, or the slot not declined, on an entry that is not resident")
	}
	if c.AttachBody(kb, stale, 1, body[:1]) == nil {
		t.Error("attach to a replaced entry returned nothing to serve")
	}
	if b, keep := stale.Body(1); b != nil || keep {
		t.Error("a body was kept, or the slot not declined, on an entry another one replaced under its key")
	}
	checkQuiescent(t, c)
}

// TestAttachBodyRaceAttachesOnce: concurrent first hits each offer their
// own bytes; one attach wins, every caller is handed the winner's bytes,
// and they are charged once.
func TestAttachBodyRaceAttachesOnce(t *testing.T) {
	c := New(Config{Capacity: 4})
	key := Key{Fingerprint: "a"}
	e, _ := fetch(t, c, key, entry("x"))
	inserted := c.Stats().Bytes
	const n = 16
	got := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.AttachBody(key, e, 3, []byte(fmt.Sprintf("body-%02d", i)))
		}(i)
	}
	wg.Wait()
	kept, _ := e.Body(3)
	for i, b := range got {
		if string(b) != string(kept) {
			t.Errorf("caller %d served %q, want the kept %q", i, b, kept)
		}
	}
	if got := c.Stats().Bytes; got != inserted+len(kept) {
		t.Errorf("bytes = %d, want %d (one body charged)", got, inserted+len(kept))
	}
	checkQuiescent(t, c)
}
