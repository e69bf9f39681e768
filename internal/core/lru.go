package core

import (
	"container/list"
	"sync"
)

// lru is a bounded map that evicts its least recently used entry past
// capacity. It backs the statement memo and the plan cache. Safe for
// concurrent use.
type lru[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[K]*list.Element
	order    *list.List // front = most recently used; values are *lruItem[K, V]
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{capacity: capacity, items: map[K]*list.Element{}, order: list.New()}
}

// get returns the value stored under k (the zero value when none) and
// marks it most recently used.
func (c *lru[K, V]) get(k K) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val
}

// put stores v under k, replacing any older value, and evicts the least
// recently used entry past capacity.
func (c *lru[K, V]) put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*lruItem[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&lruItem[K, V]{key: k, val: v})
	if c.order.Len() > c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.items, back.Value.(*lruItem[K, V]).key)
	}
}

// len reports the number of entries.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
