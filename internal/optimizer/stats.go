package optimizer

import (
	"strings"
	"sync"
	"unicode/utf8"
)

// Default statistics. Prompts are the dominant cost, so the defaults only
// need to rank plans sensibly before any observation has refined them:
// equality predicates are assumed selective, inequalities permissive,
// range comparisons in between.
const (
	// DefaultTableKeys is the assumed key cardinality of a relation the
	// planner has never scanned (and that was never primed via ANALYZE).
	DefaultTableKeys = 24
	// DefaultPageSize is the assumed number of keys one list prompt
	// returns before the "more results" iteration must continue.
	DefaultPageSize = 12
)

// defaultSelectivity maps a comparison operator to the fraction of tuples
// assumed to pass when nothing has been observed about the predicate.
func defaultSelectivity(op string) float64 {
	switch op {
	case "=":
		return 0.2
	case "!=":
		return 0.8
	default: // < <= > >=
		return 0.45
	}
}

// TableStats describes one base relation as the planner sees it.
type TableStats struct {
	// Keys is the estimated number of keys an LLM key scan materializes.
	Keys float64 `json:"keys"`
	// PageSize is the estimated number of keys per list page; the scan
	// issues ceil(Keys/PageSize)+1 prompts (the +1 is the terminal
	// "no more results" page).
	PageSize float64 `json:"page_size"`
	// Seen reports whether the table was ever observed (a scan fed back
	// through ObserveScan) or primed (SetTableKeys). It distinguishes a
	// known-empty table — Seen with Keys == 0, priced at one terminal
	// list prompt — from a never-observed one, which falls back to
	// DefaultTableKeys. Without it an observed Keys == 0 would read as
	// "unknown" and be re-defaulted to 24 forever.
	Seen bool `json:"seen,omitempty"`
}

// ScanPrompts estimates the number of list prompts a key scan over rows
// tuples issues.
func (t TableStats) ScanPrompts(rows float64) float64 {
	page := t.PageSize
	if page <= 0 {
		page = DefaultPageSize
	}
	if rows <= 0 {
		return 1
	}
	pages := rows / page
	if p := float64(int(pages)); p < pages {
		pages = p + 1
	}
	return pages + 1
}

// statsReader is what planning reads from a Statistics store: the
// enumeration substitutes a recorder (see guard.go) that notes every
// answer it hands out.
type statsReader interface {
	Table(table string) TableStats
	Selectivity(table, attr, op, lit string) float64
}

// selObs is one running selectivity estimate.
type selObs struct {
	sum   float64
	count float64
}

// Statistics hold what the cost model knows about the data behind the
// schema: per-table key cardinalities and page sizes, plus predicate
// selectivities. All values start from generic defaults and are refined
// by Observe* calls after each executed query (the prompt counters of
// prior runs), or primed explicitly via SetTableKeys — the engine's
// ANALYZE equivalent. Safe for concurrent use.
type Statistics struct {
	mu     sync.Mutex
	tables map[string]TableStats
	sels   map[string]selObs
}

// NewStatistics returns an empty statistics store (all defaults).
func NewStatistics() *Statistics {
	return &Statistics{tables: map[string]TableStats{}, sels: map[string]selObs{}}
}

// SetTableKeys primes the key cardinality of one table, like ANALYZE
// against a ground-truth store.
func (s *Statistics) SetTableKeys(table string, keys int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tables[strings.ToLower(table)]
	t.Keys = float64(keys)
	t.Seen = true
	if t.PageSize == 0 {
		t.PageSize = DefaultPageSize
	}
	s.tables[strings.ToLower(table)] = t
}

// Table returns the stats of one table, falling back to defaults.
func (s *Statistics) Table(table string) TableStats {
	if s == nil {
		return TableStats{Keys: DefaultTableKeys, PageSize: DefaultPageSize}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tables[strings.ToLower(table)]
	// Only a genuinely unobserved table gets the default cardinality: an
	// observed-empty one (Seen, Keys == 0) keeps its zero, so the cost
	// model prices its scan at the single terminal list prompt.
	if !t.Seen && t.Keys <= 0 {
		t.Keys = DefaultTableKeys
	}
	if t.PageSize <= 0 {
		t.PageSize = DefaultPageSize
	}
	return t
}

// selKey builds the lookup keys for one predicate: the exact literal form
// and the (table, attr, op) family.
func selKey(table, attr, op, lit string) (exact, family string) {
	family = strings.ToLower(table) + "|" + strings.ToLower(attr) + "|" + op
	return family + "|" + strings.ToLower(lit), family
}

// Selectivity estimates the fraction of a table's tuples passing
// `attr op lit`, preferring an exact prior observation, then the
// attribute/operator family, then the operator default.
func (s *Statistics) Selectivity(table, attr, op, lit string) float64 {
	if s == nil {
		return defaultSelectivity(op)
	}
	// The keys selKey builds, written into a stack buffer: the map
	// lookups convert it without allocating.
	var buf [128]byte
	key := appendLower(buf[:0], table)
	key = appendLower(append(key, '|'), attr)
	key = append(append(key, '|'), op...)
	family := len(key)
	key = appendLower(append(key, '|'), lit)
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.sels[string(key)]; ok && o.count > 0 {
		return o.sum / o.count
	}
	if o, ok := s.sels[string(key[:family])]; ok && o.count > 0 {
		return o.sum / o.count
	}
	return defaultSelectivity(op)
}

// appendLower appends strings.ToLower(s) to dst.
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return append(dst, strings.ToLower(s)...)
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// ObserveScan feeds back one executed key scan: the number of keys it
// materialized and the number of list prompts it issued.
func (s *Statistics) ObserveScan(table string, keys, pages int) {
	if s == nil || keys < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	name := strings.ToLower(table)
	t := s.tables[name]
	if !t.Seen {
		t.Keys = float64(keys)
	} else {
		// Exponential moving average: adapt, but do not thrash on one
		// filtered scan.
		t.Keys = 0.5*t.Keys + 0.5*float64(keys)
	}
	t.Seen = true
	if pages > 1 && keys > 0 {
		obs := float64(keys) / float64(pages-1)
		if t.PageSize <= 0 {
			t.PageSize = obs
		} else {
			t.PageSize = 0.5*t.PageSize + 0.5*obs
		}
	}
	s.tables[name] = t
}

// SelectivityObservation is the serialized form of one running
// selectivity estimate.
type SelectivityObservation struct {
	Sum   float64 `json:"sum"`
	Count float64 `json:"count"`
}

// StatsSnapshot is a point-in-time, serializable copy of everything the
// statistics store has learned. It is the unit of persistence for
// warm-starting the planner across restarts.
type StatsSnapshot struct {
	Tables        map[string]TableStats             `json:"tables,omitempty"`
	Selectivities map[string]SelectivityObservation `json:"selectivities,omitempty"`
}

// Snapshot copies the current learned state out of the store.
func (s *Statistics) Snapshot() StatsSnapshot {
	var snap StatsSnapshot
	if s == nil {
		return snap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tables) > 0 {
		snap.Tables = make(map[string]TableStats, len(s.tables))
		for k, v := range s.tables {
			snap.Tables[k] = v
		}
	}
	if len(s.sels) > 0 {
		snap.Selectivities = make(map[string]SelectivityObservation, len(s.sels))
		for k, v := range s.sels {
			snap.Selectivities[k] = SelectivityObservation{Sum: v.sum, Count: v.count}
		}
	}
	return snap
}

// Restore merges a snapshot into the store. Entries already learned in
// this process win — the snapshot only fills gaps — so a restore after
// live traffic never clobbers fresher observations with stale ones.
func (s *Statistics) Restore(snap StatsSnapshot) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range snap.Tables {
		if _, ok := s.tables[k]; !ok {
			s.tables[k] = v
		}
	}
	for k, v := range snap.Selectivities {
		if _, ok := s.sels[k]; !ok && v.Count > 0 {
			s.sels[k] = selObs{sum: v.Sum, count: v.Count}
		}
	}
}

// ObserveFilter feeds back one executed predicate: in tuples entered, out
// passed. Both the exact-literal key and the attribute/operator family
// accumulate.
func (s *Statistics) ObserveFilter(table, attr, op, lit string, in, out int) {
	if s == nil || in <= 0 || out < 0 {
		return
	}
	sel := float64(out) / float64(in)
	exact, family := selKey(table, attr, op, lit)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range []string{exact, family} {
		o := s.sels[k]
		o.sum += sel
		o.count++
		s.sels[k] = o
	}
}
