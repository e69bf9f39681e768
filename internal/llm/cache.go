package llm

import (
	"context"
	"strings"
	"sync"

	"repro/internal/lru"
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

// completion is what the cache holds for one key: the answer out, given
// to a prompt of tmpl, and one decoded slot, val, which is out decoded by
// tmpl (nil when tmpl has no decoder). A pending node holds only its
// template until its call settles; after that nothing rewrites it — a
// colliding template replaces the node — so a joiner may read it once
// the node has settled.
type completion struct {
	tmpl *Template
	out  string
	val  any
}

// node is one entry of the cache.
type node = lru.Node[cacheKey, completion]

// slot is the decoded value a consumer of tp may take from e: val when
// e's template has tp's decoder tag, else nil. A template with another
// decoder decodes the text itself, so no decoder's value ever reaches
// another's consumer.
func (e *completion) slot(tp *Template) any {
	if e.val != nil && e.tmpl.tag == tp.tag {
		return e.val
	}
	return nil
}

// CacheStats is a snapshot of a cache's lifetime counters, tagged with
// the keys galois-serve's /stats renders them under.
type CacheStats struct {
	Hits    int `json:"cache_hits"`    // served from memory or from a concurrent in-flight call
	Misses  int `json:"cache_misses"`  // required a model call
	Entries int `json:"cache_entries"` // completions currently resident
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
// The cache is an lru.Cache, whose pending nodes are the singleflight: a
// call in flight is a pending node, which becomes resident when it
// succeeds and leaves the map when it fails. A pending node is outside
// the LRU order, so no eviction removes it, and no hit, count or walk
// sees it.
//
// An entry also holds one decoded slot: the answer decoded once, on the
// miss, by the decoder of the template that stored it. A hit from a
// template with the same decoder tag gets that value and reads no text;
// any other hit gets the text and decodes it itself. The slot lives and
// dies with its entry, so capacity bounds it.
type Cache struct {
	mu  sync.Mutex
	lru *lru.Cache[cacheKey, completion]
	// resident counts the entries of each (model, class); it sums to
	// lru.Len() and holds no zero counts.
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
	c := &Cache{resident: map[classKey]int{}, families: map[classKey]int{}}
	c.lru = lru.New(capacity, 0, c.count)
	return c
}

// count is the residency hook: it moves the entry n in or out of its
// class's count and, for a boolean-filter class, its family's; a count
// that reaches zero is dropped.
func (c *Cache) count(n *node, delta int) {
	bump := func(m map[classKey]int, ck classKey) {
		if m[ck] += delta; m[ck] == 0 {
			delete(m, ck)
		}
	}
	model, class := n.Key.model, n.Val.tmpl.class
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
	n := c.lru.Peek(cacheKey{model, tp.id, key})
	if n == nil || !same(n.Val.tmpl, tp) {
		return "", nil, false
	}
	c.lru.Touch(n)
	c.hits++
	return n.Val.out, n.Val.slot(tp), true
}

// EachDecoded calls fn for every resident entry holding a decoded slot:
// its completion, the slot, and the completion decoded again now by the
// decoder that filled the slot. The decoding runs outside the lock, on a
// snapshot. For tests: a slot must equal its fresh decoding.
func (c *Cache) EachDecoded(fn func(out string, slot, fresh any)) {
	c.mu.Lock()
	var held []*completion
	for n := range c.lru.Coldest() {
		if n.Val.val != nil {
			held = append(held, &n.Val)
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
	return c.lru.Len()
}

// Stats returns a snapshot of the lifetime counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len()}
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
	c.mu.Lock()
	n, lead, err := c.lru.Acquire(ctx, &c.mu, cacheKey{model, tp.id, k}, func(n *node) bool {
		return same(n.Val.tmpl, tp)
	})
	switch {
	case err != nil:
		c.mu.Unlock()
		return "", nil, false, err
	case n != nil && !lead:
		c.hits++
		c.mu.Unlock()
		return n.Val.out, n.Val.slot(tp), false, nil
	case lead:
		n.Val.tmpl = tp
	}
	c.misses++
	c.mu.Unlock()

	out, err := complete()
	var val any
	if err == nil {
		val = tp.value(out, nil)
	}
	if lead {
		c.settle(n, out, val, err)
	}
	return out, val, true, err
}

// settle ends the pending node n's call: the result is published to its
// joiners, and n becomes resident on success or leaves the map on
// failure.
func (c *Cache) settle(n *node, out string, val any, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n.Val.out, n.Val.val = out, val
	c.lru.Settle(n, err != nil)
	if err == nil {
		c.lru.Admit(n, 0)
	}
}
