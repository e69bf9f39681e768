// Package lru is the bounded map under the engine's caches: the prompt
// cache, the result cache, the durable store's live set and, as a Map,
// the statement memo and the plan cache.
//
// A Cache keeps its resident nodes in an intrusive ring ordered by
// recency, bounded by count and optionally by the byte charges its owner
// gives them. A hook sees every node join the ring and leave it, so the
// owner keeps its own indexes and counters in step.
//
// A Cache is also a singleflight: a key being computed holds a pending
// node, which Acquire joins rather than compute again. A pending node is
// outside the ring, so no eviction, walk or count sees it.
//
// A Cache does no locking: its owner calls every method holding the
// mutex that also guards the owner's own state.
package lru

import (
	"context"
	"fmt"
	"iter"
	"sync"
)

// Node is one entry of a Cache. A pending node's Val is written by its
// leader before Settle, and never again.
type Node[K comparable, V any] struct {
	Key   K
	Val   V
	bytes int
	// prev and next link a resident node into the ring; both are nil
	// while it is pending and after it leaves.
	prev, next *Node[K, V]
	// done is made by the first joiner and closed by Settle; failed
	// tells the joiners to try again.
	done   chan struct{}
	failed bool
}

// Resident reports whether n is in the recency order; a nil n is not.
func (n *Node[K, V]) Resident() bool { return n != nil && n.next != nil }

// Cache is a bounded map with recency eviction and pending nodes.
type Cache[K comparable, V any] struct {
	capacity, maxBytes int
	hook               func(n *Node[K, V], delta int)
	m                  map[K]*Node[K, V] // resident and pending
	// root is the ring's sentinel: root.next is the most recently used
	// node. n counts the resident nodes and bytes sums their charges.
	root     Node[K, V]
	n, bytes int
}

// New builds a cache of at most capacity resident nodes and, when
// maxBytes > 0, at most maxBytes of charges. hook, when non-nil, is
// called with delta 1 for every node that joins the ring, before any
// eviction it causes, and with -1 for every node that leaves it.
func New[K comparable, V any](capacity, maxBytes int, hook func(n *Node[K, V], delta int)) *Cache[K, V] {
	c := &Cache[K, V]{capacity: capacity, maxBytes: maxBytes, hook: hook, m: map[K]*Node[K, V]{}}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Len reports the number of resident nodes.
func (c *Cache[K, V]) Len() int { return c.n }

// Bytes reports the sum of the resident nodes' charges.
func (c *Cache[K, V]) Bytes() int { return c.bytes }

// Peek returns the resident node under key, or nil, without touching it.
func (c *Cache[K, V]) Peek(key K) *Node[K, V] {
	if n := c.m[key]; n.Resident() {
		return n
	}
	return nil
}

// Touch makes the resident node n the most recently used.
func (c *Cache[K, V]) Touch(n *Node[K, V]) {
	if c.root.next != n {
		unlink(n)
		c.link(n)
	}
}

// Put admits v under key as a new node charged bytes, replacing a
// resident node, and returns it. A key in flight is left to its leader:
// Put stores nothing and returns nil.
func (c *Cache[K, V]) Put(key K, v V, bytes int) *Node[K, V] {
	if old := c.m[key]; old != nil {
		if !old.Resident() {
			return nil
		}
		c.Remove(old)
	}
	n := &Node[K, V]{Key: key, Val: v}
	c.m[key] = n
	c.Admit(n, bytes)
	return n
}

// Admit makes n, in the map and not resident, the most recently used
// node, charged bytes, and evicts from the cold end until both bounds
// hold. n goes last: only when it alone breaks the byte budget.
func (c *Cache[K, V]) Admit(n *Node[K, V], bytes int) {
	n.bytes = bytes
	c.link(n)
	c.n++
	c.bytes += bytes
	if c.hook != nil {
		c.hook(n, 1)
	}
	for c.n > 0 && (c.n > c.capacity || c.maxBytes > 0 && c.bytes > c.maxBytes) {
		c.Remove(c.root.prev)
	}
}

// Remove takes n, resident or pending, out of the cache.
func (c *Cache[K, V]) Remove(n *Node[K, V]) {
	delete(c.m, n.Key)
	if !n.Resident() {
		return
	}
	unlink(n)
	c.n--
	c.bytes -= n.bytes
	if c.hook != nil {
		c.hook(n, -1)
	}
}

// Charge adds delta bytes to the resident node n if the total stays
// within the byte budget, and reports whether it did. It never evicts.
func (c *Cache[K, V]) Charge(n *Node[K, V], delta int) bool {
	if c.maxBytes > 0 && c.bytes+delta > c.maxBytes {
		return false
	}
	n.bytes += delta
	c.bytes += delta
	return true
}

// Acquire is the singleflight protocol. Called with mu, the owner's
// lock, held, it returns with mu held. match, when non-nil, reports
// whether a node under key answers this caller. Acquire returns:
//
//   - a resident node match accepts, now the most recently used;
//   - a pending node match accepts, once its leader has settled it. If
//     the leader failed, Acquire starts over, to join a fresh flight or
//     lead one; if ctx ends first, it returns ctx's error;
//   - a new pending node, with lead true, after removing a resident node
//     match refuses: the caller computes and must Settle it exactly once;
//   - nil, with lead false and no error, when a pending node match
//     refuses holds key: the caller computes without a flight.
func (c *Cache[K, V]) Acquire(ctx context.Context, mu sync.Locker, key K, match func(*Node[K, V]) bool) (n *Node[K, V], lead bool, err error) {
	for {
		switch n = c.m[key]; {
		case n == nil:
		case match != nil && !match(n):
			if !n.Resident() {
				return nil, false, nil
			}
			c.Remove(n)
		case n.Resident():
			c.Touch(n)
			return n, false, nil
		default:
			if n.done == nil {
				n.done = make(chan struct{})
			}
			done := n.done
			mu.Unlock()
			select {
			case <-done:
			case <-ctx.Done():
				mu.Lock()
				return nil, false, ctx.Err()
			}
			mu.Lock()
			if !n.failed {
				return n, false, nil
			}
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
			continue // the leader failed: join a fresh flight or lead one
		}
		n = &Node[K, V]{Key: key}
		c.m[key] = n
		return n, true, nil
	}
}

// Settle ends the flight of the pending node n and wakes its joiners. A
// failed node leaves the map and its joiners try again; otherwise they
// take n.Val, and the leader then Admits or Removes n.
func (c *Cache[K, V]) Settle(n *Node[K, V], failed bool) {
	n.failed = failed
	if n.done != nil {
		close(n.done)
	}
	if failed {
		delete(c.m, n.Key)
	}
}

// Joined reports whether a caller waits on the pending node under key.
func (c *Cache[K, V]) Joined(key K) bool {
	n := c.m[key]
	return n != nil && n.done != nil
}

// Coldest yields the resident nodes, least recently used first. The walk
// may remove the node it is at, and must not change the cache otherwise.
func (c *Cache[K, V]) Coldest() iter.Seq[*Node[K, V]] {
	return func(yield func(*Node[K, V]) bool) {
		for n := c.root.prev; n != &c.root; {
			warmer := n.prev
			if !yield(n) {
				return
			}
			n = warmer
		}
	}
}

// CheckQuiescent checks the invariants that hold once every flight has
// settled: the ring is well linked and holds exactly the map's nodes,
// Len of them, whose charges sum to Bytes; no node is pending.
func (c *Cache[K, V]) CheckQuiescent() error {
	ring, bytes := 0, 0
	for n := c.root.next; n != &c.root; n = n.next {
		if n.next.prev != n || n.prev.next != n || c.m[n.Key] != n {
			return fmt.Errorf("lru: ring broken, or not the map's, at %v", n.Key)
		}
		ring++
		bytes += n.bytes
	}
	if ring != c.n || ring != len(c.m) || bytes != c.bytes {
		return fmt.Errorf("lru: ring of %d nodes charged %d, count %d, map of %d, bytes %d", ring, bytes, c.n, len(c.m), c.bytes)
	}
	return nil
}

func (c *Cache[K, V]) link(n *Node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}

func unlink[K comparable, V any](n *Node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
	n.prev, n.next = nil, nil
}

// Map is a Cache behind its own mutex, with no byte budget and no drop
// hook. Safe for concurrent use.
type Map[K comparable, V any] struct {
	mu sync.Mutex
	c  *Cache[K, V]
}

// NewMap builds a Map of at most capacity entries.
func NewMap[K comparable, V any](capacity int) *Map[K, V] {
	return &Map[K, V]{c: New[K, V](capacity, 0, nil)}
}

// Get returns the value stored under k (the zero value when none) and
// marks it most recently used.
func (m *Map[K, V]) Get(k K) (v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := m.c.Peek(k); n != nil {
		m.c.Touch(n)
		v = n.Val
	}
	return v
}

// Put stores v under k, replacing any older value, and evicts the least
// recently used entry past capacity.
func (m *Map[K, V]) Put(k K, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.Put(k, v, 0)
}

// Len reports the number of entries.
func (m *Map[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.c.Len()
}
