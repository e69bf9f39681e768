package llm

import (
	"context"
	"strings"
	"sync"
)

// DefaultCacheSize is the fallback capacity (in completions) of a prompt
// cache built with size 0.
const DefaultCacheSize = 4096

// cacheKey identifies one completion: the id of the prompt's template
// and the key it was instantiated with, or, for a raw-text prompt, id 0
// and the whole text. The same prompt sent to two models is two entries.
// The key says nothing about the template's text: the entry holds its
// template, and a lookup checks it (see same).
type cacheKey struct {
	model string
	tmpl  uint64
	key   string
}

// PromptClass names the family of per-key prompts one physical operator
// issues: every attribute fetch of one (table, attr) asks the same
// question about a different key, every boolean filter of one (table,
// attr, op, literal) likewise. The operator that builds a prompt stamps
// it with its class, and the cache counts resident completions per
// (model, class), so the planner can ask "how much of this operator's
// prompt wave is already paid for?" without enumerating keys. The zero
// class holds everything unclassified (key-scan pages, ad-hoc prompts).
type PromptClass struct {
	Table, Attr string
	// Op and Literal are set for boolean-filter classes only.
	Op, Literal string
}

// FetchClass is the class of the attribute-fetch prompts for table.attr.
func FetchClass(table, attr string) PromptClass {
	return PromptClass{Table: strings.ToLower(table), Attr: strings.ToLower(attr)}
}

// FilterClass is the class of the per-key boolean prompts judging
// `table.attr op literal`.
func FilterClass(table, attr, op, literal string) PromptClass {
	return PromptClass{Table: strings.ToLower(table), Attr: strings.ToLower(attr), Op: op, Literal: literal}
}

// anyLiteral marks a filter family: every boolean-filter class of one
// (table, attr), whatever operator and literal it judges.
const anyLiteral = "*"

// FilterFamily names all boolean-filter classes of table.attr at once.
// Resident answers it with the filter completions held for the attribute
// across every literal: what single-literal prompts have already cost on
// an attribute whose fetched values would have answered them all.
func FilterFamily(table, attr string) PromptClass {
	return PromptClass{Table: strings.ToLower(table), Attr: strings.ToLower(attr), Op: anyLiteral, Literal: anyLiteral}
}

// family maps a boolean-filter class to its FilterFamily; fetch classes
// and the zero class belong to none.
func (c PromptClass) family() (PromptClass, bool) {
	if c.Op == "" {
		return PromptClass{}, false
	}
	return PromptClass{Table: c.Table, Attr: c.Attr, Op: anyLiteral, Literal: anyLiteral}, true
}

// classKey counts one class per model: the same question put to two
// models is two completions.
type classKey struct {
	model string
	class PromptClass
}

// cacheEntry is one completion of key instantiating tmpl. It is pending
// while its model call is in flight, then resident: linked into the LRU
// order, its class counted. Beside the text it holds one decoded slot:
// val is out decoded by tmpl (nil when tmpl has no decoder). out, val and
// err are written once, when the call settles, and never again: a
// colliding template or a Put replaces the entry rather than rewrite it,
// so a joiner may read them without the lock once done is closed.
type cacheEntry struct {
	key  cacheKey
	tmpl *Template
	out  string
	val  any
	err  error
	// prev and next link a resident entry into the LRU ring; both are nil
	// while it is pending.
	prev, next *cacheEntry
	// done is made by the first caller that joins the pending call and
	// closed when the call settles; nil while nobody waits.
	done chan struct{}
}

// pending reports whether e's call is still in flight.
func (e *cacheEntry) pending() bool { return e.next == nil }

// slot is the decoded value a consumer of tp may take from e: val when
// e's template has tp's decoder tag, else nil. A template with another
// decoder decodes the text itself, so no decoder's value ever reaches
// another's consumer.
func (e *cacheEntry) slot(tp *Template) any {
	if e.val != nil && e.tmpl.tag == tp.tag {
		return e.val
	}
	return nil
}

// CacheStats is a snapshot of a cache's lifetime counters.
type CacheStats struct {
	Hits    int // served from memory or from a concurrent in-flight call
	Misses  int // required a model call
	Entries int // completions currently resident
}

// Cache is a concurrency-safe LRU of prompt completions keyed by (model
// name, template id, key), with a singleflight layer that collapses
// concurrent identical prompts into one in-flight model call. An engine
// typically shares one Cache across all its queries, so repeated traffic
// reuses completions across operators and across queries. A lookup hashes
// the key, not the template's text, and builds no prompt; a hit, and a
// join of an in-flight call, also compares the template's text, so a
// template whose id collides with another's costs a model call and never
// gets the other's answer.
//
// The singleflight lives in the same map as the completions: a call in
// flight is a pending entry, which becomes resident when it succeeds and
// leaves the map when it fails. A pending entry is outside the LRU order,
// so no eviction removes it, and no hit, count or walk sees it.
//
// An entry also holds one decoded slot: the answer decoded once, on the
// miss, by the decoder of the template that stored it. A hit from a
// template with the same decoder tag gets that value and reads no text;
// any other hit gets the text and decodes it itself. The slot lives and
// dies with its entry, so capacity bounds it.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[cacheKey]*cacheEntry // resident and pending
	// lru is the sentinel of the ring of resident entries: lru.next is
	// the most recently used, lru.prev the least. n counts them.
	lru cacheEntry
	n   int
	// resident counts the entries of each (model, class); it sums to n
	// and holds no zero counts.
	resident map[classKey]int
	// families counts the boolean-filter entries of each (model,
	// FilterFamily) under the same discipline.
	families map[classKey]int
	hits     int
	misses   int
}

// NewCache builds a cache retaining at most capacity completions
// (0 or negative means DefaultCacheSize).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	c := &Cache{
		capacity: capacity,
		entries:  map[cacheKey]*cacheEntry{},
		resident: map[classKey]int{},
		families: map[classKey]int{},
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Get returns the cached completion for the raw-text prompt (model,
// prompt), bumping its recency. It does not touch the hit/miss counters.
func (c *Cache) Get(model, prompt string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[cacheKey{model: model, key: prompt}]
	if !ok || e.pending() {
		return "", false
	}
	c.touchLocked(e)
	return e.out, true
}

// Put stores the completion of a raw-text prompt under its prompt class,
// replacing any completion of the prompt and evicting the least recently
// used entry when over capacity.
func (c *Cache) Put(model string, class PromptClass, prompt, out string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{model: model, key: prompt}
	if e, ok := c.entries[key]; ok && !e.pending() {
		c.dropLocked(e)
	}
	e := &cacheEntry{key: key, tmpl: rawTemplate(class), out: out}
	c.entries[key] = e
	c.admitLocked(e)
}

// admitLocked makes e, already in the map, resident: most recently used
// and counted under its class. The least recently used entries are
// evicted while over capacity.
func (c *Cache) admitLocked(e *cacheEntry) {
	c.pushFront(e)
	c.n++
	c.count(e.key.model, e.tmpl.class, 1)
	for c.n > c.capacity {
		c.dropLocked(c.lru.prev)
	}
}

// dropLocked removes the resident entry e from the cache.
func (c *Cache) dropLocked(e *cacheEntry) {
	e.unlink()
	c.n--
	delete(c.entries, e.key)
	c.count(e.key.model, e.tmpl.class, -1)
}

// touchLocked makes the resident entry e the most recently used.
func (c *Cache) touchLocked(e *cacheEntry) {
	if c.lru.next != e {
		e.unlink()
		c.pushFront(e)
	}
}

// pushFront links e into the LRU ring as the most recently used.
func (c *Cache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlink takes e out of the LRU ring.
func (e *cacheEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// count moves one entry in or out of its class's count and, for a
// boolean-filter class, its family's; a count that reaches zero is
// dropped.
func (c *Cache) count(model string, class PromptClass, delta int) {
	bump := func(m map[classKey]int, ck classKey) {
		if m[ck] += delta; m[ck] == 0 {
			delete(m, ck)
		}
	}
	bump(c.resident, classKey{model, class})
	if fam, ok := class.family(); ok {
		bump(c.families, classKey{model, fam})
	}
}

// Resident reports how many completions of one prompt class — or, for a
// FilterFamily, of all its classes together — are resident for one
// model: the planner's residency signal.
func (c *Cache) Resident(model string, class PromptClass) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if class.Op == anyLiteral {
		return c.families[classKey{model, class}]
	}
	return c.resident[classKey{model, class}]
}

// hit returns the resident completion of key instantiating tp for model,
// with its decoded slot when that is tp's decoder's (else nil), counting
// the hit and bumping its recency — a resident prompt's whole cost. It
// never waits: a prompt that is merely in flight is not a hit here.
func (c *Cache) hit(model string, tp *Template, key string) (string, any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitLocked(c.entries[cacheKey{model, tp.id, key}], tp)
}

// hitLocked is hit on the map's entry e for the key, nil when absent.
func (c *Cache) hitLocked(e *cacheEntry, tp *Template) (string, any, bool) {
	if e == nil || e.pending() || !same(e.tmpl, tp) {
		return "", nil, false
	}
	c.touchLocked(e)
	c.hits++
	return e.out, e.slot(tp), true
}

// EachDecoded calls fn for every resident entry holding a decoded slot:
// its completion, the slot, and the completion decoded again now by the
// decoder that filled the slot. The decoding runs outside the lock, on a
// snapshot. For tests: a slot must equal its fresh decoding.
func (c *Cache) EachDecoded(fn func(out string, slot, fresh any)) {
	c.mu.Lock()
	var held []*cacheEntry
	for e := c.lru.next; e != &c.lru; e = e.next {
		if e.val != nil {
			held = append(held, e)
		}
	}
	c.mu.Unlock()
	for _, e := range held {
		fn(e.out, e.val, e.tmpl.decode(e.out))
	}
}

// Len reports the number of resident completions.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Stats returns a snapshot of the lifetime counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.n}
}

// fetch returns the completion of key instantiating tp for model: from
// the cache when resident, from a concurrent identical in-flight call when
// one exists, otherwise by invoking complete and storing its result under
// tp's class. Beside the text it returns tp's decoding of it when one was
// held (a resident slot, a leader's value) or made: a miss decodes its
// answer once, outside the lock, and stores the value with the text. The
// returned bool reports whether this caller issued the model call itself
// — false means the answer cost nothing. Errors are never cached, and a
// joiner whose leader failed retries rather than inheriting the failure —
// the leader's error may be its own cancellation, which must not
// spuriously fail an unrelated query sharing the cache.
//
// A template colliding with tp never shares its answer: its resident
// entry gives way to tp's call, and beside its pending one tp's call runs
// uncached.
func (c *Cache) fetch(ctx context.Context, model string, tp *Template, k string, complete func() (string, error)) (string, any, bool, error) {
	key := cacheKey{model, tp.id, k}
	for {
		c.mu.Lock()
		e := c.entries[key]
		if out, val, ok := c.hitLocked(e, tp); ok {
			c.mu.Unlock()
			return out, val, false, nil
		}
		if e != nil && e.pending() && same(e.tmpl, tp) {
			if e.done == nil {
				e.done = make(chan struct{})
			}
			done := e.done
			c.mu.Unlock()
			select {
			case <-done:
			case <-ctx.Done():
				return "", nil, false, ctx.Err()
			}
			if e.err == nil {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				return e.out, e.slot(tp), false, nil
			}
			if err := ctx.Err(); err != nil {
				return "", nil, false, err
			}
			continue // leader failed; next round joins a fresh call or leads
		}
		c.misses++
		var lead *cacheEntry
		if e == nil || !e.pending() {
			if e != nil {
				c.dropLocked(e) // a colliding template's completion
			}
			lead = &cacheEntry{key: key, tmpl: tp}
			c.entries[key] = lead
		}
		c.mu.Unlock()

		out, err := complete()
		var val any
		if err == nil {
			val = tp.value(out, nil)
		}
		if lead != nil {
			c.settle(lead, out, val, err)
		}
		return out, val, true, err
	}
}

// settle ends the pending entry e's call: the result is published to its
// joiners, and e becomes resident on success or leaves the map on failure
// — unless a Put has replaced it meanwhile.
func (c *Cache) settle(e *cacheEntry, out string, val any, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.out, e.val, e.err = out, val, err
	if e.done != nil {
		close(e.done)
	}
	switch {
	case c.entries[e.key] != e:
	case err != nil:
		delete(c.entries, e.key)
	default:
		c.admitLocked(e)
	}
}
