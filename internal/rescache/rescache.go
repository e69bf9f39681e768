// Package rescache implements the relation-level result cache: the tier
// above the prompt cache. Where the prompt cache dedups individual model
// calls, this cache stores whole result relations keyed by a canonical
// plan fingerprint plus the per-table epoch stamp of the bindings the
// plan reads, so an identical query arriving again costs zero prompts
// *and* zero planning.
//
// Beyond exact matches the cache is *semantic*: entries whose plan was a
// plain filtered projection (shape Project(Filter*(FROM))) retain their
// producing plan's canonical decomposition (Producer), so the session can
// answer a subsumed query (stricter filters, column subset, added
// LIMIT/ORDER BY/DISTINCT) by evaluating a residual plan over the cached
// relation, again for zero prompts. Subsumers finds those entries through
// a conjunct index: producers are grouped by table set, stamp, options
// prefix and FROM tree — all four must equal the consumer's — and within
// a group a producer is filed under its first conjunct text, or on the
// group's free list when it has none. A producer can answer a consumer
// only when every one of its conjuncts is among the consumer's, so a
// probe visits the free list and the producers filed under the
// consumer's own texts, and checks only their remaining conjuncts. This
// is an inverted file for set containment (after Helmer & Moerkotte's
// set-containment joins, VLDB 1997) in the role of view matching's filter
// tree (Goldstein & Larson, SIGMOD 2001): a miss over a full cache costs
// a few map lookups, not a scan of every relation over the same tables.
//
// Correctness hinges on invalidation: a cached relation is only valid
// for the binding state it was computed under. The runtime keeps one
// epoch per component ("llm:<table>" per LLM binding, "db" for the
// attached store); every key carries the stamp — the serialized epochs
// of exactly the components its plan reads — so rebinding one table
// invalidates only the entries reading it, and unrelated entries
// survive. InvalidateComponent additionally evicts eagerly, and the
// CurrentStamp validator drops inserts whose execution straddled a bump,
// so a stale relation can never resurrect.
//
// A singleflight collapses K concurrent identical queries into one
// execution. It is the pending-node protocol of internal/lru, the one the
// prompt cache uses: a query in flight is a pending node in the cache's
// own map. Reads are two-phase: Lookup returns a resident entry, a
// concurrent flight's finished entry, or a Lead — the token of the one
// caller that executes. The leader streams or materializes its result
// however it likes and settles the lead once with the finished relation
// or an error; the other K-1 wait on its pending node and share the
// relation. Errors are never cached, and a follower whose leader failed
// or was abandoned retries rather than inheriting the failure (the
// leader's error may be its own cancellation).
//
// Entries are immutable and shared: the cache stores the entry a leader
// settles, and hits, flight followers and subsumption readers receive
// that same entry — no relation is ever copied on the read path.
//
// An owner that serves entries over a wire may keep encoded response
// bodies beside them: each Entry has BodySlots lazily filled byte slots,
// numbered by the owner, whose meaning the cache does not know.
// AttachBody charges a kept body to its entry's resident bytes, so the
// body is bounded by the same budget and freed with the entry on
// eviction or invalidation. A slot whose body could not be kept is
// marked declined, so the owner stops encoding for it. Bodies are never
// persisted.
package rescache

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/schema"
	"repro/internal/value"
)

// DefaultSize is the fallback capacity (in relations) of a cache built
// with size 0. Relations are far heavier than single completions, so the
// default is much smaller than the prompt cache's.
const DefaultSize = 256

// Key identifies one cacheable query result.
type Key struct {
	// Fingerprint is the canonical serialization of the built logical
	// plan (literals kept, table bindings folded in) prefixed with every
	// session option that can change the result — see core's
	// optionsFingerprint.
	Fingerprint string
	// Stamp serializes the per-component binding epochs of exactly the
	// tables the plan reads, captured at lookup time. Rebinding one of
	// them changes the stamp, so entries populated under the old epochs
	// are unreachable — while entries over other tables keep matching.
	Stamp string
}

// Producer is the canonical decomposition of the plan that populated an
// entry, retained so the entry can answer subsumed queries. Only plans
// shaped Project(Filter*(FROM)) qualify — their relations keep the base
// scan's row order and full row set (see logical.Shape.Producer).
type Producer struct {
	// Opts is the result-affecting session-option prefix the producing
	// session ran under; a consumer must match it exactly.
	Opts string
	// FromKey is the canonical serialization of the producing plan's
	// FROM tree; FromLabel its human rendering.
	FromKey   string
	FromLabel string
	// Conjuncts are the distinct canonical texts of the base-filter
	// predicates the producer applied. A consumer whose conjunct set
	// contains all of them is answerable from this entry; the conjunct
	// index files the entry under the first.
	Conjuncts []string
}

// Entry is one cached query result. Once settled or loaded it is shared
// by the cache and every reader, and no one may modify it.
type Entry struct {
	// Rel is the result relation, read-only: the cache stores the
	// relation the leader settled and hands the same one to every hit,
	// follower and subsumption reader.
	Rel *schema.Relation
	// Plan is the EXPLAIN rendering of the plan the populating run
	// executed, served on hits so ?plan=1 responses stay meaningful.
	Plan string
	// Tables are the sorted invalidation components the plan reads
	// ("llm:city", "db"); InvalidateComponent matches against them.
	Tables []string
	// Prod is non-nil when this entry can answer subsumed queries.
	Prod *Producer

	// bodies are the owner's encodings of this entry, attached lazily by
	// AttachBody and read lock-free by Body.
	bodies [BodySlots]atomic.Pointer[[]byte]
}

// BodySlots is the number of encoded-body slots an Entry carries. The
// owner numbers its encodings 0..BodySlots-1.
const BodySlots = 6

// declined marks a slot whose body AttachBody could not keep.
var declined []byte

// Body returns the bytes attached to slot, or nil when none are. keep is
// false once an attach to slot was declined: no body will be kept there,
// so the owner need not encode one to offer.
func (e *Entry) Body(slot int) (body []byte, keep bool) {
	switch p := e.bodies[slot].Load(); p {
	case nil:
		return nil, true
	case &declined:
		return nil, false
	default:
		return *p, true
	}
}

// approxBytes estimates an entry's resident size: tuples, strings,
// schema and producer metadata, with flat per-object overheads. It is an
// approximation by design — the byte budget is a cap on growth, not an
// allocator accounting.
func approxBytes(e *Entry) int {
	const entryOverhead, tupleOverhead, valueOverhead, colOverhead = 128, 48, 32, 16
	n := entryOverhead + len(e.Plan)
	for _, c := range e.Rel.Schema.Columns {
		n += colOverhead + len(c.Table) + len(c.Name)
	}
	for _, row := range e.Rel.Rows {
		n += tupleOverhead
		for _, v := range row {
			n += valueOverhead + textLen(v)
		}
	}
	for _, t := range e.Tables {
		n += len(t)
	}
	if e.Prod != nil {
		n += len(e.Prod.Opts) + len(e.Prod.FromKey) + len(e.Prod.FromLabel)
		for _, c := range e.Prod.Conjuncts {
			n += len(c)
		}
	}
	return n
}

// textLen is len(v.String()) without building the string: a number or a
// date is formatted into a stack buffer.
func textLen(v value.Value) int {
	var buf [32]byte
	switch v.Kind() {
	case value.KindInt:
		return len(strconv.AppendInt(buf[:0], v.AsInt(), 10))
	case value.KindFloat:
		return len(strconv.AppendFloat(buf[:0], v.AsFloat(), 'g', -1, 64))
	case value.KindDate:
		return len(v.AsTime().AppendFormat(buf[:0], "2006-01-02"))
	}
	return len(v.String())
}

// Stats is a snapshot of a cache's lifetime counters, tagged with the
// keys galois-serve's /stats renders them under.
type Stats struct {
	Hits int `json:"result_cache_hits"` // exact hits: served from memory or a concurrent in-flight execution
	// SubsumedHits counts queries answered by a residual plan over a
	// cached relation. They are a subset of neither Hits nor Misses:
	// an exact-miss query answered via subsumption counts one Miss
	// (the exact key was absent) and one SubsumedHit (zero prompts
	// were spent anyway).
	SubsumedHits int `json:"result_cache_subsumed_hits"`
	Misses       int `json:"result_cache_misses"`  // exact misses: required planning (subsumed or full execution)
	Entries      int `json:"result_cache_entries"` // relations currently resident
	Bytes        int `json:"result_cache_bytes"`   // approximate resident bytes across all entries
}

// tablesKey canonicalizes a component set into the key the conjunct
// index groups producers by. Components must already be sorted
// (logical.Components sorts them).
func tablesKey(tables []string) string { return strings.Join(tables, ",") }

// node holds one key's entry, once its lead settles or it is loaded. Its
// byte charge is the entry's approxBytes plus its kept bodies.
type node = lru.Node[Key, *Entry]

// Config configures a Cache.
type Config struct {
	// Capacity caps resident relations (0 or negative: DefaultSize).
	Capacity int
	// MaxBytes caps the approximate resident bytes (0: unlimited). The
	// LRU evicts from the cold end until under budget; an entry larger
	// than the whole budget is not cached at all.
	MaxBytes int
	// CurrentStamp, when non-nil, returns the owner's current epoch
	// stamp for a component set. Inserts whose key stamp no longer
	// matches are dropped — an execution that straddled a bump cannot
	// resurrect a stale relation — and InvalidateComponent keeps
	// entries that are still current.
	CurrentStamp func(tables []string) string
}

// Sink observes residency changes, letting an owner mirror the cache to
// durable storage. Hooks are invoked outside the cache mutex (so a sink
// may do I/O) but sequentially consistent per key is NOT guaranteed
// under concurrent churn; a persistent sink must tolerate a DropEntry
// for a key it never stored and resolve races by its own ordering.
// Entries passed to StoreEntry are the resident entries themselves:
// read-only, safe to retain.
type Sink interface {
	StoreEntry(key Key, e *Entry)
	DropEntry(key Key)
}

// Cache is a concurrency-safe LRU of result relations with per-table
// epoch stamps, a conjunct index of its producers, and a singleflight
// layer. A runtime shares one Cache across all its sessions.
type Cache struct {
	mu      sync.Mutex
	lru     *lru.Cache[Key, *Entry]
	current func([]string) string
	sink    Sink
	// groups is the conjunct index of the resident producers: by group,
	// then by the text each is filed under ("" for the free list).
	groups map[group]map[string][]*node
	// dropped collects the keys of the resident entries that left, for
	// unlock to tell the sink.
	dropped  []Key
	hits     int
	subsumed int
	misses   int
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultSize
	}
	c := &Cache{current: cfg.CurrentStamp, groups: map[group]map[string][]*node{}}
	c.lru = lru.New(cfg.Capacity, cfg.MaxBytes, c.index)
	return c
}

// SetSink installs (or, with nil, removes) the residency observer.
// Install it after any Load replay so warm-loaded entries are not echoed
// straight back to the store they came from.
func (c *Cache) SetSink(s Sink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sink = s
}

// Len reports the number of resident relations.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the lifetime counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, SubsumedHits: c.subsumed, Misses: c.misses,
		Entries: c.lru.Len(), Bytes: c.lru.Bytes()}
}

// group is the class of producers a consumer can be answered from: the
// table set, stamp, options prefix and FROM tree must all be equal.
type group struct{ tables, stamp, opts, from string }

// groupOf returns the group of the resident producer n.
func groupOf(n *node) group {
	p := n.Val.Prod
	return group{tablesKey(n.Val.Tables), n.Key.Stamp, p.Opts, p.FromKey}
}

// filedUnder returns the text p is filed under in its group: its first
// conjunct, or "" (the free list) when it has none. No conjunct renders
// as "".
func filedUnder(p *Producer) string {
	if len(p.Conjuncts) == 0 {
		return ""
	}
	return p.Conjuncts[0]
}

// index is the residency hook: a producer that joins (delta 1) is filed
// in the conjunct index and one that leaves is unfiled; the key of every
// entry that leaves waits for the sink.
func (c *Cache) index(n *node, delta int) {
	if delta < 0 {
		c.dropped = append(c.dropped, n.Key)
	}
	if n.Val.Prod == nil {
		return
	}
	gk, text := groupOf(n), filedUnder(n.Val.Prod)
	g := c.groups[gk]
	if delta > 0 {
		if g == nil {
			g = map[string][]*node{}
			c.groups[gk] = g
		}
		g[text] = append(g[text], n)
		return
	}
	list := g[text]
	i := slices.Index(list, n)
	list[i] = list[len(list)-1]
	list[len(list)-1] = nil
	switch list = list[:len(list)-1]; {
	case len(list) > 0:
		g[text] = list
	case len(g) > 1:
		delete(g, text)
	default:
		delete(c.groups, gk)
	}
}

// unlock releases c.mu, then tells the sink of the entries that left
// meanwhile, except the one under *except when it is non-nil, and
// returns the sink. Hooks run outside the mutex, so a sink may do I/O.
func (c *Cache) unlock(except *Key) Sink {
	dropped, sink := c.dropped, c.sink
	c.dropped = nil
	c.mu.Unlock()
	if sink != nil {
		for _, k := range dropped {
			if except == nil || k != *except {
				sink.DropEntry(k)
			}
		}
	}
	return sink
}

// InvalidateComponent evicts every entry whose plan reads the given
// component ("llm:<table>" or "db") and whose stamp is no longer
// current. The runtime calls this on every rebind so invalidated
// relations free their memory immediately — and entries over other
// tables are untouched.
func (c *Cache) InvalidateComponent(comp string) {
	c.mu.Lock()
	for n := range c.lru.Coldest() {
		// An insert that raced the bump and landed already re-stamped is
		// still valid; keep it.
		if slices.Contains(n.Val.Tables, comp) && c.stale(n.Key, n.Val) {
			c.lru.Remove(n)
		}
	}
	c.unlock(nil)
}

// stale reports whether e, keyed by key, was computed under epochs that
// are no longer current: such an entry is never stored.
func (c *Cache) stale(key Key, e *Entry) bool {
	return c.current != nil && c.current(e.Tables) != key.Stamp
}

// AttachBody keeps an exact-size copy of body in slot of e, the entry
// resident under key, and returns the bytes to serve. The first attach
// wins: a later one gets the winner's bytes back, and only the winner's
// are charged to the entry's resident bytes. Attaching never evicts:
// when body does not fit the byte budget, or e is no longer resident
// under key (evicted, invalidated, or a flight's entry that was never
// stored), nothing is kept, the slot is marked declined for good, and
// body itself is returned.
func (c *Cache) AttachBody(key Key, e *Entry, slot int, body []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Every store to a slot happens under c.mu; Body reads lock-free.
	if kept, keep := e.Body(slot); kept != nil || !keep {
		if kept == nil {
			return body
		}
		return kept
	}
	n := c.lru.Peek(key)
	if n == nil || n.Val != e || !c.lru.Charge(n, len(body)) {
		e.bodies[slot].Store(&declined)
		return body
	}
	// An encoder's buffer may have grown past its length: keeping a copy
	// makes the charge what the slot retains.
	kept := make([]byte, len(body))
	copy(kept, body)
	e.bodies[slot].Store(&kept)
	return kept
}

// Candidate is the cheap metadata view of one cached producer that can
// answer a consumer, returned by Subsumers so the session can build and
// cost residual plans without touching any relation.
type Candidate struct {
	Key Key
	// Rows is the cached cardinality; Schema the cached relation's
	// output schema (the resident one — read-only).
	Rows   int
	Schema *schema.Schema
	// Prod shares its Conjuncts with the resident entry (read-only).
	Prod Producer
}

// Subsumers returns the resident producers that can answer a consumer
// reading the sorted component set tables under stamp, with options
// prefix opts, FROM tree fromKey and the distinct conjunct texts texts:
// the producers of that group whose every conjunct is among texts. They
// come fewest rows first (a smaller cached relation makes a cheaper
// residual scan), fingerprint-ordered on ties, so candidate order — and
// therefore plan choice on cost ties — is deterministic.
//
// The probe reads the conjunct index: it visits the group's free list
// and the producers filed under each of texts, checks each one's
// remaining conjuncts by a linear scan, and copies out and sorts only
// the survivors. A probe that finds nothing allocates nothing but, for a
// consumer of several tables, the joined table-set key.
func (c *Cache) Subsumers(tables []string, stamp, opts, fromKey string, texts []string) []Candidate {
	c.mu.Lock()
	var out []Candidate
	if g := c.groups[group{tablesKey(tables), stamp, opts, fromKey}]; g != nil {
		out = appendCovered(out, g[""], texts)
		for _, t := range texts {
			out = appendCovered(out, g[t], texts)
		}
	}
	c.mu.Unlock()
	slices.SortFunc(out, func(a, b Candidate) int {
		if a.Rows != b.Rows {
			return a.Rows - b.Rows
		}
		return strings.Compare(a.Key.Fingerprint, b.Key.Fingerprint)
	})
	return out
}

// appendCovered appends to out the producers of list, each filed under
// one of texts or on the free list, whose other conjuncts are among texts
// too.
func appendCovered(out []Candidate, list []*node, texts []string) []Candidate {
	for _, n := range list {
		e := n.Val
		if containsAll(texts, e.Prod.Conjuncts[min(1, len(e.Prod.Conjuncts)):]) {
			out = append(out, Candidate{Key: n.Key, Rows: e.Rel.Cardinality(), Schema: e.Rel.Schema, Prod: *e.Prod})
		}
	}
	return out
}

// containsAll reports whether every one of sub is among texts. Both are
// a query's handful of conjuncts, so a linear scan beats hashing.
func containsAll(texts, sub []string) bool {
	for _, t := range sub {
		if !slices.Contains(texts, t) {
			return false
		}
	}
	return true
}

// Subsumed fetches the entry a winning residual plan reads, counting a
// subsumption hit. The entry may have been evicted since Subsumers ran;
// the caller falls back to fresh execution then.
func (c *Cache) Subsumed(key Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.lru.Peek(key)
	if n == nil {
		return nil, false
	}
	c.lru.Touch(n)
	c.subsumed++
	return n.Val, true
}

// Lookup is the first phase of a two-phase read. It returns exactly one
// of three things:
//
//   - the resident entry for key (an exact hit);
//   - the entry a concurrent identical execution finished while this
//     caller waited on its flight — the wait ends early, with ctx's
//     error, when ctx is done;
//   - a Lead: no result exists and none is in flight, so this caller
//     now owns the key's flight and must execute the query and Settle
//     the lead exactly once, with the finished entry or an error.
//
// Entries returned are the shared, read-only resident (or settled) ones.
// A follower whose leader settled with an error retries — it joins the
// next flight or leads it — rather than inheriting the failure, which
// may be the leader's own cancellation. Errors are never cached.
func (c *Cache) Lookup(ctx context.Context, key Key) (*Entry, *Lead, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, lead, err := c.lru.Acquire(ctx, &c.mu, key, nil)
	switch {
	case err != nil:
		return nil, nil, err
	case lead:
		c.misses++
		return nil, &Lead{c: c, n: n}, nil
	}
	c.hits++
	return n.Val, nil, nil
}

// Lead is the token of a caller that owns one key's flight: every
// concurrent Lookup of the key waits on it until Settle. A leader that
// fails, panics or is abandoned must still settle (with an error) —
// otherwise the key stays poisoned until each follower's ctx gives up —
// so holders settle from a deferred or Close path.
type Lead struct {
	c       *Cache
	n       *node
	settled bool
}

// Settle resolves the flight. With err == nil every follower receives
// entry — the leader's entry itself, which from now on nobody may
// modify — and the cache stores it unless its stamp is no longer
// current; otherwise followers retry and nothing is cached. Only the
// first call has an effect, so a holder may settle on success and
// again, unconditionally, on release. Not safe for concurrent use: one
// goroutine owns a lead.
func (l *Lead) Settle(entry *Entry, err error) {
	if l.settled {
		return
	}
	l.settled = true
	c, n := l.c, l.n
	c.mu.Lock()
	n.Val = entry
	c.lru.Settle(n, err != nil)
	switch {
	case err != nil:
		c.mu.Unlock()
		return
	case c.stale(n.Key, entry):
		c.lru.Remove(n)
	default:
		c.lru.Admit(n, approxBytes(entry))
	}
	stored := n.Resident()
	// The sink hears of the evictions, then of the entry: stored, or
	// (stale stamp, over budget) dropped, so that whatever the store
	// holds under its key cannot outlive the insert.
	switch sink := c.unlock(&n.Key); {
	case sink == nil:
	case stored:
		sink.StoreEntry(n.Key, entry)
	default:
		sink.DropEntry(n.Key)
	}
}

// Dumped pairs one resident entry with its key, as returned by Dump.
type Dumped struct {
	Key   Key
	Entry *Entry
}

// Dump snapshots the resident entries coldest-first, so replaying the
// dump through Load reconstructs the same LRU order (each Load pushes to
// the front; the last — hottest — entry ends up most recently used). The
// returned entries are the resident ones: read-only, safe to serialize
// without further locking.
func (c *Cache) Dump() []Dumped {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Dumped, 0, c.lru.Len())
	for n := range c.lru.Coldest() {
		out = append(out, Dumped{Key: n.Key, Entry: n.Val})
	}
	return out
}

// Load replays one persisted entry into the cache, subject to the same
// stamp validation and budgets as a live insert, and reports whether it
// was admitted. Loads count as neither hits nor misses and do not fire
// StoreEntry (warm-loaded state is not echoed back to the store it came
// from), though entries they evict are dropped through the sink as
// usual. A key in flight is left to its leader: the load is refused.
// The cache takes e as it is: the caller must not modify it afterwards.
func (c *Cache) Load(key Key, e *Entry) bool {
	c.mu.Lock()
	stored := !c.stale(key, e) && c.lru.Put(key, e, approxBytes(e)).Resident()
	c.unlock(&key)
	return stored
}
