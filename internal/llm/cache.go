package llm

import (
	"container/list"
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

// flight is one in-flight completion shared by every concurrent caller of
// the same (model, template, key); done is closed once out/err are set.
// val is the leader's decoding of out (see Template.value).
type flight struct {
	tmpl *Template
	done chan struct{}
	out  string
	val  any
	err  error
}

// cacheEntry is one resident completion, stored inside the LRU list; its
// class is its template's. Beside the text it holds one decoded slot: val
// is out decoded by dec, the template that stored it last (nil when dec
// has no decoder).
type cacheEntry struct {
	key  cacheKey
	tmpl *Template
	out  string
	dec  *Template
	val  any
}

// slot is the decoded value a consumer of tp may take from an entry or a
// flight holding val, dec's decoding of the text: val when dec's decoder
// tag is tp's, else nil. A template with another decoder decodes the text
// itself, so no decoder's value ever reaches another's consumer.
func slot(dec *Template, val any, tp *Template) any {
	if val != nil && dec.tag == tp.tag {
		return val
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
// An entry also holds one decoded slot: the answer decoded once, on the
// miss, by the decoder of the template that stored it. A hit from a
// template with the same decoder tag gets that value and reads no text;
// any other hit gets the text and decodes it itself. The slot lives and
// dies with its entry, so capacity bounds it.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[cacheKey]*list.Element
	order    *list.List // front = most recently used
	flights  map[cacheKey]*flight
	// resident counts the entries of each (model, class); it sums to
	// order.Len() and holds no zero counts.
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
	return &Cache{
		capacity: capacity,
		entries:  map[cacheKey]*list.Element{},
		order:    list.New(),
		flights:  map[cacheKey]*flight{},
		resident: map[classKey]int{},
		families: map[classKey]int{},
	}
}

// Get returns the cached completion for the raw-text prompt (model,
// prompt), bumping its recency. It does not touch the hit/miss counters.
func (c *Cache) Get(model, prompt string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[cacheKey{model: model, key: prompt}]
	if !ok {
		return "", false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).out, true
}

// Put stores the completion of a raw-text prompt under its prompt class,
// evicting the least recently used entry when over capacity.
func (c *Cache) Put(model string, class PromptClass, prompt, out string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(cacheKey{model: model, key: prompt}, rawTemplate(class), out, nil)
}

// insertLocked stores one completion of template tp and tp's decoding of
// it, val. A prompt that is already resident keeps the class it entered
// under; an entry of a colliding template is taken over.
func (c *Cache) insertLocked(key cacheKey, tp *Template, out string, val any) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		if !same(e.tmpl, tp) {
			c.count(key.model, e.tmpl.class, -1)
			c.count(key.model, tp.class, 1)
			e.tmpl = tp
		}
		e.out, e.dec, e.val = out, tp, val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, tmpl: tp, out: out, dec: tp, val: val})
	c.count(key.model, tp.class, 1)
	for c.order.Len() > c.capacity {
		oldest := c.order.Remove(c.order.Back()).(*cacheEntry)
		delete(c.entries, oldest.key)
		c.count(oldest.key.model, oldest.tmpl.class, -1)
	}
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
	return c.hitLocked(cacheKey{model, tp.id, key}, tp)
}

func (c *Cache) hitLocked(key cacheKey, tp *Template) (string, any, bool) {
	el, ok := c.entries[key]
	if !ok {
		return "", nil, false
	}
	e := el.Value.(*cacheEntry)
	if !same(e.tmpl, tp) {
		return "", nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return e.out, slot(e.dec, e.val, tp), true
}

// EachDecoded calls fn for every resident entry holding a decoded slot:
// its completion, the slot, and the completion decoded again now by the
// decoder that filled the slot. The decoding runs outside the lock, on a
// snapshot. For tests: a slot must equal its fresh decoding.
func (c *Cache) EachDecoded(fn func(out string, slot, fresh any)) {
	c.mu.Lock()
	var held []cacheEntry
	for el := c.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*cacheEntry); e.val != nil {
			held = append(held, *e)
		}
	}
	c.mu.Unlock()
	for _, e := range held {
		fn(e.out, e.val, e.dec.decode(e.out))
	}
}

// Len reports the number of resident completions.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns a snapshot of the lifetime counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.order.Len()}
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
// spuriously fail an unrelated query sharing the cache. A flight of a
// template colliding with tp is not joined: complete runs beside it.
func (c *Cache) fetch(ctx context.Context, model string, tp *Template, k string, complete func() (string, error)) (string, any, bool, error) {
	key := cacheKey{model, tp.id, k}
	for {
		c.mu.Lock()
		if out, val, ok := c.hitLocked(key, tp); ok {
			c.mu.Unlock()
			return out, val, false, nil
		}
		f, ok := c.flights[key]
		if ok && same(f.tmpl, tp) {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return "", nil, false, ctx.Err()
			}
			if f.err == nil {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				return f.out, slot(f.tmpl, f.val, tp), false, nil
			}
			if err := ctx.Err(); err != nil {
				return "", nil, false, err
			}
			continue // leader failed; next round joins a fresh flight or leads
		}
		c.misses++
		lead := !ok
		if lead {
			f = &flight{tmpl: tp, done: make(chan struct{})}
			c.flights[key] = f
		}
		c.mu.Unlock()

		out, err := complete()
		var val any
		if err == nil {
			val = tp.value(out, nil)
		}
		c.mu.Lock()
		if lead {
			f.out, f.val, f.err = out, val, err
			close(f.done)
			delete(c.flights, key)
		}
		if err == nil {
			c.insertLocked(key, tp, out, val)
		}
		c.mu.Unlock()
		return out, val, true, err
	}
}
