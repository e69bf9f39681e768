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

// cacheKey identifies one completion: the same prompt sent to two models
// is two entries.
type cacheKey struct {
	model  string
	prompt string
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
// the same (model, prompt); done is closed once out/err are set.
type flight struct {
	done chan struct{}
	out  string
	err  error
}

// cacheEntry is one resident completion, stored inside the LRU list.
type cacheEntry struct {
	key   cacheKey
	class PromptClass
	out   string
}

// CacheStats is a snapshot of a cache's lifetime counters.
type CacheStats struct {
	Hits    int // served from memory or from a concurrent in-flight call
	Misses  int // required a model call
	Entries int // completions currently resident
}

// Cache is a concurrency-safe LRU of prompt completions keyed by
// (model name, prompt), with a singleflight layer that collapses
// concurrent identical prompts into one in-flight model call. An engine
// typically shares one Cache across all its queries, so repeated traffic
// reuses completions across operators and across queries.
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

// Get returns the cached completion for (model, prompt), bumping its
// recency. It does not touch the hit/miss counters; Fetch does.
func (c *Cache) Get(model, prompt string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[cacheKey{model, prompt}]
	if !ok {
		return "", false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).out, true
}

// Put stores a completion under its prompt class, evicting the least
// recently used entry when over capacity.
func (c *Cache) Put(model string, class PromptClass, prompt, out string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(cacheKey{model, prompt}, class, out)
}

// insertLocked stores one completion. A prompt that is already resident
// keeps the class it entered under.
func (c *Cache) insertLocked(key cacheKey, class PromptClass, out string) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).out = out
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, class: class, out: out})
	c.count(key.model, class, 1)
	for c.order.Len() > c.capacity {
		oldest := c.order.Remove(c.order.Back()).(*cacheEntry)
		delete(c.entries, oldest.key)
		c.count(oldest.key.model, oldest.class, -1)
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

// hit returns the resident completion for (model, prompt), counting the
// hit and bumping its recency — a resident prompt's whole cost. It never
// waits: a prompt that is merely in flight is not a hit here.
func (c *Cache) hit(model, prompt string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitLocked(cacheKey{model, prompt})
}

func (c *Cache) hitLocked(key cacheKey) (string, bool) {
	el, ok := c.entries[key]
	if !ok {
		return "", false
	}
	c.order.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).out, true
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

// Fetch returns the completion for (model, prompt): from the cache when
// resident, from a concurrent identical in-flight call when one exists,
// otherwise by invoking complete and storing its result under class. The
// returned bool reports whether this caller issued the model call itself —
// false means the answer cost nothing. Errors are never cached, and a joiner
// whose leader failed retries rather than inheriting the failure — the
// leader's error may be its own cancellation, which must not spuriously
// fail an unrelated query sharing the cache.
func (c *Cache) Fetch(ctx context.Context, model string, class PromptClass, prompt string, complete func() (string, error)) (string, bool, error) {
	key := cacheKey{model, prompt}
	for {
		c.mu.Lock()
		if out, ok := c.hitLocked(key); ok {
			c.mu.Unlock()
			return out, false, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return "", false, ctx.Err()
			}
			if f.err == nil {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				return f.out, false, nil
			}
			if err := ctx.Err(); err != nil {
				return "", false, err
			}
			continue // leader failed; next round joins a fresh flight or leads
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.misses++
		c.mu.Unlock()

		f.out, f.err = complete()
		close(f.done)

		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.insertLocked(key, class, f.out)
		}
		c.mu.Unlock()
		return f.out, true, f.err
	}
}
