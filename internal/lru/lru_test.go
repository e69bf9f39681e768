package lru

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// event is one hook call: a key joining (delta 1) or leaving (-1) the
// ring.
type event struct {
	key, delta int
}

// model is the reference LRU the substrate is checked against: resident
// keys in a slice, coldest first, their values and charges in maps, and
// the pending keys in a set.
type model struct {
	capacity, maxBytes int
	order              []int // coldest first
	val                map[int]string
	bytes              map[int]int
	pending            map[int]bool
	events             []event
}

func (m *model) total() int {
	t := 0
	for _, b := range m.bytes {
		t += b
	}
	return t
}

func (m *model) resident(k int) bool { return slices.Contains(m.order, k) }

func (m *model) touch(k int) {
	m.order = append(slices.DeleteFunc(m.order, func(x int) bool { return x == k }), k)
}

func (m *model) remove(k int) {
	m.order = slices.DeleteFunc(m.order, func(x int) bool { return x == k })
	delete(m.val, k)
	delete(m.bytes, k)
	m.events = append(m.events, event{k, -1})
}

// admit makes k the most recently used, charged b, then evicts from the
// cold end until both bounds hold.
func (m *model) admit(k int, v string, b int) {
	m.order = append(m.order, k)
	m.val[k], m.bytes[k] = v, b
	m.events = append(m.events, event{k, 1})
	for len(m.order) > 0 && (len(m.order) > m.capacity || m.maxBytes > 0 && m.total() > m.maxBytes) {
		m.remove(m.order[0])
	}
}

// TestModel applies seeded random sequences of get, put, lead, settle
// (ok, ok but removed, failed), a refusing match, remove and charge to
// the substrate and to the reference model, at several count and byte
// bounds, and compares them after every operation: the resident set in
// coldest-first order, the values, Len, Bytes, the pending keys and the
// exact sequence of hook calls.
func TestModel(t *testing.T) {
	for _, bounds := range [][2]int{{1, 0}, {4, 0}, {8, 40}, {16, 25}, {3, 12}} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("cap%d_bytes%d_seed%d", bounds[0], bounds[1], seed), func(t *testing.T) {
				runModel(t, bounds[0], bounds[1], seed)
			})
		}
	}
}

func runModel(t *testing.T, capacity, maxBytes int, seed int64) {
	var got []event
	c := New(capacity, maxBytes, func(n *Node[int, string], delta int) { got = append(got, event{n.Key, delta}) })
	m := &model{capacity: capacity, maxBytes: maxBytes, val: map[int]string{}, bytes: map[int]int{}, pending: map[int]bool{}}
	leads := map[int]*Node[int, string]{}
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	for step := 0; step < 2000; step++ {
		k := rng.Intn(10)
		b := rng.Intn(15)
		v := fmt.Sprintf("v%d", step)
		var op string
		switch r := rng.Intn(9); {
		case r == 0:
			op = "get"
			if n := c.Peek(k); n != nil {
				c.Touch(n)
			}
			if m.resident(k) {
				m.touch(k)
			}
		case r == 1:
			op = "put"
			n := c.Put(k, v, b)
			if m.pending[k] {
				if n != nil {
					t.Fatalf("step %d: Put over a pending key stored a node", step)
				}
				break
			}
			if m.resident(k) {
				m.remove(k)
			}
			m.admit(k, v, b)
		case r <= 3 && !m.pending[k]:
			op = "lead"
			n, lead, err := c.Acquire(ctx, &mu, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.resident(k) {
				if lead || n == nil || n.Val != m.val[k] {
					t.Fatalf("step %d: Acquire of resident %d = %v, lead %v", step, k, n, lead)
				}
				m.touch(k)
				break
			}
			if !lead || n == nil {
				t.Fatalf("step %d: Acquire of absent %d did not lead", step, k)
			}
			leads[k], m.pending[k] = n, true
		case r == 4 && m.pending[k]:
			op = "settle"
			n := leads[k]
			n.Val = v
			delete(leads, k)
			delete(m.pending, k)
			switch rng.Intn(3) {
			case 0:
				c.Settle(n, true)
			case 1:
				c.Settle(n, false)
				c.Remove(n)
			default:
				c.Settle(n, false)
				c.Admit(n, b)
				m.admit(k, v, b)
			}
		case r == 5:
			op = "refuse"
			n, lead, err := c.Acquire(ctx, &mu, k, func(*Node[int, string]) bool { return false })
			if err != nil {
				t.Fatal(err)
			}
			if m.pending[k] {
				if n != nil || lead {
					t.Fatalf("step %d: a refused pending node gave %v, lead %v", step, n, lead)
				}
				break
			}
			if m.resident(k) {
				m.remove(k)
			}
			if !lead {
				t.Fatalf("step %d: a refused or absent key did not lead", step)
			}
			leads[k], m.pending[k] = n, true
		case r == 6:
			op = "remove"
			if n := c.Peek(k); n != nil {
				c.Remove(n)
			}
			if m.resident(k) {
				m.remove(k)
			}
		case r == 7:
			op = "charge"
			n := c.Peek(k)
			if n == nil {
				break
			}
			ok := c.Charge(n, b)
			if want := m.maxBytes == 0 || m.total()+b <= m.maxBytes; ok != want {
				t.Fatalf("step %d: Charge(%d) = %v, want %v", step, b, ok, want)
			}
			if ok {
				m.bytes[k] += b
			}
		default:
			op = "noop"
		}
		checkModel(t, fmt.Sprintf("step %d (%s %d)", step, op, k), c, m, got)
	}
}

func checkModel(t *testing.T, where string, c *Cache[int, string], m *model, got []event) {
	t.Helper()
	var order []int
	for n := range c.Coldest() {
		order = append(order, n.Key)
		if n.Val != m.val[n.Key] {
			t.Fatalf("%s: %d holds %q, want %q", where, n.Key, n.Val, m.val[n.Key])
		}
	}
	if !slices.Equal(order, m.order) {
		t.Fatalf("%s: coldest-first order %v, want %v", where, order, m.order)
	}
	if c.Len() != len(m.order) || c.Bytes() != m.total() {
		t.Fatalf("%s: Len %d, Bytes %d; want %d, %d", where, c.Len(), c.Bytes(), len(m.order), m.total())
	}
	if pending := len(c.m) - c.Len(); pending != len(m.pending) {
		t.Fatalf("%s: %d pending nodes, want %d", where, pending, len(m.pending))
	}
	if !slices.Equal(got, m.events) {
		t.Fatalf("%s: hook calls %v, want %v", where, got, m.events)
	}
	if err := c.CheckQuiescent(); (err == nil) != (len(m.pending) == 0) {
		t.Fatalf("%s: CheckQuiescent = %v with %d pending", where, err, len(m.pending))
	}
}

// owner is the smallest owner of a Cache: its mutex, and the
// lead → compute → settle → admit protocol every real owner runs.
type owner struct {
	mu sync.Mutex
	c  *Cache[int, string]
}

// get returns key's value: resident, a leader's, or computed by this
// caller as the leader of its flight.
func (o *owner) get(ctx context.Context, key int, compute func(context.Context) (string, error)) (string, bool, error) {
	o.mu.Lock()
	n, lead, err := o.c.Acquire(ctx, &o.mu, key, nil)
	if err != nil || !lead {
		defer o.mu.Unlock()
		if err != nil {
			return "", false, err
		}
		return n.Val, false, nil
	}
	o.mu.Unlock()
	v, err := compute(ctx)
	o.mu.Lock()
	defer o.mu.Unlock()
	n.Val = v
	o.c.Settle(n, err != nil)
	if err == nil {
		o.c.Admit(n, len(v))
	}
	return v, true, err
}

// TestConcurrentFlights: many goroutines lead, join and settle the same
// keys and different ones while some leaders fail and some callers'
// contexts are cancelled. Every successful caller holds a value computed
// for its key, by its leader or by its own retry; once all return, no
// node is pending and the bounds hold. Meaningful under -race.
func TestConcurrentFlights(t *testing.T) {
	const capacity = 6
	o := &owner{c: New[int, string](capacity, 0, nil)}
	var computed sync.Map // value -> key it was computed for
	var seq atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				key := rng.Intn(10)
				if rng.Intn(2) == 0 {
					key = 0 // a hot key, so flights are joined
				}
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if rng.Intn(8) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(50))*time.Microsecond)
				}
				fail := rng.Intn(6) == 0
				v, led, err := o.get(ctx, key, func(ctx context.Context) (string, error) {
					time.Sleep(time.Duration(rng.Intn(20)) * time.Microsecond)
					if fail {
						return "", errors.New("leader failed")
					}
					if err := ctx.Err(); err != nil {
						return "", err
					}
					v := fmt.Sprintf("k%d#%d", key, seq.Add(1))
					computed.Store(v, key)
					return v, nil
				})
				cancel()
				switch {
				case err != nil:
					if !led && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("a joiner inherited its leader's failure: %v", err)
					}
				default:
					if k, ok := computed.Load(v); !ok || k != key {
						t.Errorf("get(%d) = %q, computed for key %v", key, v, k)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.c.CheckQuiescent(); err != nil {
		t.Error(err)
	}
	if o.c.Len() > capacity {
		t.Errorf("Len = %d past capacity %d", o.c.Len(), capacity)
	}
}

// TestMap: the locked Map keeps the most recently used entries.
func TestMap(t *testing.T) {
	m := NewMap[string, int](2)
	m.Put("a", 1)
	m.Put("b", 2)
	if m.Get("a") != 1 {
		t.Fatal("a must be resident")
	}
	m.Put("c", 3) // evicts b, the least recently used
	m.Put("a", 4) // replaces a
	if m.Get("b") != 0 || m.Get("a") != 4 || m.Get("c") != 3 || m.Len() != 2 {
		t.Errorf("Map holds a=%d b=%d c=%d, %d entries; want 4, 0, 3 and 2", m.Get("a"), m.Get("b"), m.Get("c"), m.Len())
	}
}

// BenchmarkFlight is the substrate's cost of one miss on a full cache: a
// new key is led, settled and admitted, and the least recently used node
// evicted. Run with -benchmem.
func BenchmarkFlight(b *testing.B) {
	var mu sync.Mutex
	c := New[int, string](128, 0, nil)
	ctx := context.Background()
	b.ReportAllocs()
	mu.Lock()
	defer mu.Unlock()
	for i := 0; b.Loop(); i++ {
		n, _, _ := c.Acquire(ctx, &mu, i, nil)
		n.Val = "v"
		c.Settle(n, false)
		c.Admit(n, 1)
	}
}
