package rescache

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/value"
)

// The alphabet FuzzSubsumptionIndex draws producers and consumers from:
// small, so that groups, filing texts and subset relations collide often.
var (
	fuzzTables = [][]string{{"llm:x"}, {"llm:y"}, {"llm:x", "llm:y"}}
	fuzzOpts   = []string{"o1|", "o2|"}
	fuzzFroms  = []string{"from1", "from2"}
	fuzzConjs  = []string{"a > 1", "b = 'x'", "c < 3", "d != 4"}
)

// fuzzTexts returns the distinct conjunct texts of mask (bit i: fuzzConjs[i]),
// rotated by rot so that every text gets to be the one a producer is filed
// under.
func fuzzTexts(mask, rot byte) []string {
	var out []string
	for i := range fuzzConjs {
		if mask&(1<<i) != 0 {
			out = append(out, fuzzConjs[i])
		}
	}
	if len(out) > 0 {
		r := int(rot) % len(out)
		out = append(out[r:], out[:r]...)
	}
	return out
}

// linearSubsumers is the probe's oracle: a scan of every resident entry,
// kept when it is a producer of the consumer's group whose conjuncts the
// consumer's contain, fewest rows first and fingerprint-ordered on ties.
func linearSubsumers(resident []Dumped, tables []string, stamp, opts, fromKey string, texts []string) []Candidate {
	var out []Candidate
	for _, d := range resident {
		e := d.Entry
		if tablesKey(e.Tables) != tablesKey(tables) || d.Key.Stamp != stamp || e.Prod == nil ||
			e.Prod.Opts != opts || e.Prod.FromKey != fromKey {
			continue
		}
		subset := true
		for _, t := range e.Prod.Conjuncts {
			subset = subset && slices.Contains(texts, t)
		}
		if subset {
			out = append(out, Candidate{Key: d.Key, Rows: e.Rel.Cardinality(), Schema: e.Rel.Schema, Prod: *e.Prod})
		}
	}
	slices.SortFunc(out, func(a, b Candidate) int {
		if a.Rows != b.Rows {
			return a.Rows - b.Rows
		}
		return strings.Compare(a.Key.Fingerprint, b.Key.Fingerprint)
	})
	return out
}

// sameCandidates reports whether a and b list the same entries, with the
// same metadata, in the same order.
func sameCandidates(a, b []Candidate) bool {
	return slices.EqualFunc(a, b, func(x, y Candidate) bool {
		return x.Key == y.Key && x.Rows == y.Rows && x.Schema == y.Schema && x.Prod.Opts == y.Prod.Opts &&
			x.Prod.FromKey == y.Prod.FromKey && x.Prod.FromLabel == y.Prod.FromLabel && slices.Equal(x.Prod.Conjuncts, y.Prod.Conjuncts)
	})
}

// FuzzSubsumptionIndex is the differential check of the conjunct index.
// Each three input bytes are one operation on a small cache over two
// components: an insert (through a flight or a Load, which replaces a
// resident key) of a producer or a plain entry, a touch that reorders
// the LRU, a stamp bump alone, or InvalidateComponent. Capacity 6 makes
// inserts evict. After every operation, the probe of every consumer —
// every table set, resident or current stamp, options prefix, FROM tree
// and conjunct subset — must return exactly what linearSubsumers returns,
// in the same order, and the index must file exactly the resident
// producers.
func FuzzSubsumptionIndex(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		ep := newEpochs()
		c := New(Config{Capacity: 6, CurrentStamp: ep.current})
		for i := 0; i+2 < len(ops) && i < 3*24; i += 3 {
			op, a, b := ops[i], ops[i+1], ops[i+2]
			comp := fuzzTables[a%2][0]
			switch op % 6 {
			case 0, 1, 2:
				tables := fuzzTables[a%3]
				key := Key{Fingerprint: fmt.Sprintf("q%d", a>>5), Stamp: ep.current(tables)}
				cells := []string{"r1", "r2", "r3"}[:1+int(b>>6)%3]
				e := entryT(tables, cells...)
				if (a>>3)%4 != 0 {
					e.Prod = &Producer{Opts: fuzzOpts[(a>>2)%2], FromKey: fuzzFroms[(a>>5)%2],
						Conjuncts: fuzzTexts(b&15, b>>4)}
				}
				if op%6 == 2 {
					c.Load(key, e)
				} else {
					fill(c, key, e)
				}
			case 3:
				tables := fuzzTables[a%3]
				c.Subsumed(Key{Fingerprint: fmt.Sprintf("q%d", a>>5), Stamp: ep.current(tables)})
			case 4:
				ep.mu.Lock()
				ep.m[comp]++
				ep.mu.Unlock()
			case 5:
				c.InvalidateComponent(comp)
			}
			checkProbes(t, c, ep)
			checkQuiescent(t, c)
			if t.Failed() {
				t.Fatalf("after operation %d (%d %d %d)", i/3, op, a, b)
			}
		}
	})
}

// checkProbes compares the probe with linearSubsumers for every consumer
// of the fuzz alphabet, under each resident stamp and the current one.
func checkProbes(t *testing.T, c *Cache, ep *epochs) {
	t.Helper()
	stamps := map[string][]string{}
	for _, tables := range fuzzTables {
		stamps[tablesKey(tables)] = []string{ep.current(tables)}
	}
	resident := c.Dump()
	for _, d := range resident {
		tk := tablesKey(d.Entry.Tables)
		if !slices.Contains(stamps[tk], d.Key.Stamp) {
			stamps[tk] = append(stamps[tk], d.Key.Stamp)
		}
	}
	for _, tables := range fuzzTables {
		for _, stamp := range stamps[tablesKey(tables)] {
			for _, opts := range fuzzOpts {
				for _, from := range fuzzFroms {
					for mask := byte(0); mask < 16; mask++ {
						texts := fuzzTexts(mask, 0)
						got := c.Subsumers(tables, stamp, opts, from, texts)
						if want := linearSubsumers(resident, tables, stamp, opts, from, texts); !sameCandidates(got, want) {
							t.Errorf("probe %v %q %q %q %q:\n got %v\nwant %v", tables, stamp, opts, from, texts, got, want)
						}
					}
				}
			}
		}
	}
}

// FuzzApproxBytes: an entry's size estimate, which measures each cell's
// text without rendering it (textLen), equals the estimate that renders
// every cell with Value.String, for rows of every kind.
func FuzzApproxBytes(f *testing.F) {
	f.Add(int64(0), 0.0, int64(0), "", false)
	f.Add(int64(math.MinInt64), -0.0, int64(-719528), "Rome", true)
	f.Add(int64(math.MaxInt64), math.Inf(-1), int64(2932896), "x'y", false)
	f.Add(int64(-7), math.NaN(), int64(1<<40), "日本", true)
	f.Add(int64(1e15), 1.5e-308, int64(-1<<40), "a b", false)
	f.Fuzz(func(t *testing.T, i int64, fl float64, days int64, s string, b bool) {
		r := schema.NewRelation(schema.New(
			schema.Column{Table: "t", Name: "i", Type: value.KindInt},
			schema.Column{Name: "f", Type: value.KindFloat},
			schema.Column{Name: "d", Type: value.KindDate},
			schema.Column{Name: "s", Type: value.KindString},
			schema.Column{Name: "b", Type: value.KindBool},
			schema.Column{Name: "n", Type: value.KindNull},
		))
		date := value.DateFromTime(time.Unix(days%(1<<40)*86400, 0))
		r.Append(schema.Tuple{value.Int(i), value.Float(fl), date, value.Text(s), value.Bool(b), value.Null()})
		r.Append(schema.Tuple{value.Int(-i), value.Float(-fl), value.Null(), value.Text(""), value.Bool(!b), value.Int(days)})
		e := &Entry{Rel: r, Plan: s, Tables: []string{"llm:t"}, Prod: &Producer{Opts: "o|", FromKey: s, Conjuncts: []string{s, "a > 1"}}}
		if got, want := approxBytes(e), refApproxBytes(e); got != want {
			t.Fatalf("approxBytes = %d, want %d (String-based) for %v", got, want, r.Rows)
		}
	})
}

// refApproxBytes is approxBytes measuring every cell with Value.String.
func refApproxBytes(e *Entry) int {
	const entryOverhead, tupleOverhead, valueOverhead, colOverhead = 128, 48, 32, 16
	n := entryOverhead + len(e.Plan)
	for _, c := range e.Rel.Schema.Columns {
		n += colOverhead + len(c.Table) + len(c.Name)
	}
	for _, row := range e.Rel.Rows {
		n += tupleOverhead
		for _, v := range row {
			n += valueOverhead + len(v.String())
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
