package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/llm"
	"repro/internal/optimizer"
	"repro/internal/rescache"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/value"
)

// Record kinds in the durable store. Relations are keyed by the hashed
// plan fingerprint; the three singleton kinds ("stats", "epochs",
// "backends") live under one well-known key and are pinned so
// byte-budget eviction can never sacrifice the planner's learned state,
// the epoch table or the backend declaration to make room for one more
// relation.
const (
	kindRel      = "rel"
	kindStats    = "stats"
	kindEpochs   = "epochs"
	kindBackends = "backends"
	metaKey      = "global"
)

// StoreConfig configures the runtime's durable tier (see OpenStore).
type StoreConfig struct {
	// Dir is the data directory (the -data-dir flag). Required.
	Dir string
	// MaxBytes caps the approximate live bytes on disk (0 = unlimited).
	MaxBytes int
	// TTL expires persisted relations this long after they were written
	// (0 = never). Stats and epochs are pinned and never expire.
	TTL time.Duration
	// SnapshotInterval, when positive, starts a background goroutine
	// flushing statistics + epochs (and fsyncing pending relation
	// appends) this often, so a crash loses at most one interval of
	// learned state even without a graceful drain.
	SnapshotInterval time.Duration
}

// PersistCounters snapshots the durable tier (Stats.Persistence).
type PersistCounters struct {
	// Enabled reports whether a store was opened on this runtime.
	Enabled bool `json:"enabled"`
	// WarmRelations counts result-cache entries admitted on warm start;
	// WarmStatsTables the per-table statistics restored.
	WarmRelations   int `json:"warm_relations"`
	WarmStatsTables int `json:"warm_stats_tables"`
	// DroppedStale counts persisted relations rejected on warm load
	// because their epoch stamp no longer matched (rebind before or
	// during the downtime) or because the data directory was written
	// under another backend declaration (see OpenStore);
	// DroppedCorrupt those whose payload failed to decode. Both are
	// deleted from the store, never served.
	DroppedStale   int `json:"dropped_stale"`
	DroppedCorrupt int `json:"dropped_corrupt"`
	// Snapshots counts stats+epochs flushes (drain, ticker, explicit);
	// Errors counts persistence operations that failed (the runtime
	// degrades to in-memory-only behavior rather than failing queries).
	Snapshots int `json:"snapshots"`
	Errors    int `json:"errors"`
	// Store carries the underlying segment store's own accounting.
	Store store.Counters `json:"store"`
}

// relKey hashes a plan fingerprint into a fixed-length store key.
// Fingerprints are canonical plan serializations — arbitrarily long and
// full of delimiters — so the durable tier addresses them by content
// hash, one record per fingerprint (the stamp rides along as the
// record's validity stamp).
func relKey(fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint))
	return hex.EncodeToString(sum[:])
}

// Wire format of one persisted result-cache entry. Values serialize as
// (kind, exact string) pairs — NOT through value.ParseAs, whose
// trimming and null-word folding would break the bit-identical
// round-trip the warm-start gate demands.
type wireValue struct {
	K uint8  `json:"k"`
	V string `json:"v,omitempty"`
}

type wireColumn struct {
	Table string `json:"t,omitempty"`
	Name  string `json:"n"`
	Type  uint8  `json:"y"`
}

type wireProducer struct {
	Opts      string   `json:"opts"`
	FromKey   string   `json:"from_key"`
	FromLabel string   `json:"from_label"`
	Conjuncts []string `json:"conjuncts,omitempty"`
}

type wireEntry struct {
	Fingerprint string        `json:"fp"`
	Stamp       string        `json:"stamp"`
	Plan        string        `json:"plan,omitempty"`
	Tables      []string      `json:"tables"`
	Prod        *wireProducer `json:"prod,omitempty"`
	Cols        []wireColumn  `json:"cols"`
	Rows        [][]wireValue `json:"rows"`
}

func encodeValue(v value.Value) wireValue {
	w := wireValue{K: uint8(v.Kind())}
	switch v.Kind() {
	case value.KindNull:
	case value.KindInt:
		w.V = strconv.FormatInt(v.AsInt(), 10)
	case value.KindFloat:
		w.V = strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case value.KindString:
		w.V = v.AsString()
	case value.KindBool:
		if v.AsBool() {
			w.V = "t"
		} else {
			w.V = "f"
		}
	case value.KindDate:
		w.V = v.AsTime().Format("2006-01-02")
	}
	return w
}

func decodeValue(w wireValue) (value.Value, error) {
	switch value.Kind(w.K) {
	case value.KindNull:
		return value.Null(), nil
	case value.KindInt:
		i, err := strconv.ParseInt(w.V, 10, 64)
		if err != nil {
			return value.Value{}, err
		}
		return value.Int(i), nil
	case value.KindFloat:
		f, err := strconv.ParseFloat(w.V, 64)
		if err != nil {
			return value.Value{}, err
		}
		return value.Float(f), nil
	case value.KindString:
		return value.Text(w.V), nil
	case value.KindBool:
		switch w.V {
		case "t":
			return value.Bool(true), nil
		case "f":
			return value.Bool(false), nil
		}
		return value.Value{}, fmt.Errorf("core: bad bool payload %q", w.V)
	case value.KindDate:
		t, err := time.Parse("2006-01-02", w.V)
		if err != nil {
			return value.Value{}, err
		}
		return value.DateFromTime(t), nil
	}
	return value.Value{}, fmt.Errorf("core: unknown value kind %d", w.K)
}

// encodeEntry serializes one cache entry for the durable tier. The
// entry is resident and read-only; no locks are needed.
func encodeEntry(key rescache.Key, e *rescache.Entry) ([]byte, error) {
	we := wireEntry{
		Fingerprint: key.Fingerprint,
		Stamp:       key.Stamp,
		Plan:        e.Plan,
		Tables:      e.Tables,
		Cols:        make([]wireColumn, 0, len(e.Rel.Schema.Columns)),
		Rows:        make([][]wireValue, 0, len(e.Rel.Rows)),
	}
	if e.Prod != nil {
		we.Prod = &wireProducer{Opts: e.Prod.Opts, FromKey: e.Prod.FromKey,
			FromLabel: e.Prod.FromLabel, Conjuncts: e.Prod.Conjuncts}
	}
	for _, c := range e.Rel.Schema.Columns {
		we.Cols = append(we.Cols, wireColumn{Table: c.Table, Name: c.Name, Type: uint8(c.Type)})
	}
	for _, row := range e.Rel.Rows {
		wr := make([]wireValue, 0, len(row))
		for _, v := range row {
			wr = append(wr, encodeValue(v))
		}
		we.Rows = append(we.Rows, wr)
	}
	return json.Marshal(we)
}

// decodeEntry reconstructs a cache entry (and its key) from a persisted
// payload, validating arity so a damaged payload can never panic
// Relation.Append.
func decodeEntry(payload []byte) (rescache.Key, *rescache.Entry, error) {
	var we wireEntry
	if err := json.Unmarshal(payload, &we); err != nil {
		return rescache.Key{}, nil, err
	}
	if we.Fingerprint == "" || len(we.Cols) == 0 {
		return rescache.Key{}, nil, errors.New("core: persisted entry missing fingerprint or schema")
	}
	cols := make([]schema.Column, 0, len(we.Cols))
	for _, c := range we.Cols {
		cols = append(cols, schema.Column{Table: c.Table, Name: c.Name, Type: value.Kind(c.Type)})
	}
	rel := schema.NewRelation(schema.New(cols...))
	for _, wr := range we.Rows {
		if len(wr) != len(cols) {
			return rescache.Key{}, nil, fmt.Errorf("core: persisted row arity %d != %d", len(wr), len(cols))
		}
		row := make(schema.Tuple, 0, len(cols))
		for _, w := range wr {
			v, err := decodeValue(w)
			if err != nil {
				return rescache.Key{}, nil, err
			}
			row = append(row, v)
		}
		rel.Append(row)
	}
	e := &rescache.Entry{Rel: rel, Plan: we.Plan, Tables: we.Tables}
	if we.Prod != nil {
		e.Prod = &rescache.Producer{Opts: we.Prod.Opts, FromKey: we.Prod.FromKey,
			FromLabel: we.Prod.FromLabel, Conjuncts: we.Prod.Conjuncts}
	}
	return rescache.Key{Fingerprint: we.Fingerprint, Stamp: we.Stamp}, e, nil
}

// OpenStore attaches a durable store to the runtime and warm-starts
// from it: persisted binding epochs merge into the live epoch table
// (max wins — a bump recorded before the restart is never forgotten),
// persisted statistics restore into the planner (live observations
// win), and persisted relations load into the result cache when — and
// only when — the directory was written under the runtime's backend
// declaration (see declaration) and their recorded epoch stamp equals
// the post-merge stamp of the components they read. A relation is what
// the declared models answered, so a changed declaration drops every
// one; statistics and epochs steer plan choice, not results, and load
// regardless. Stale or undecodable records are deleted, never served.
//
// Call it once, after the boot-time binds (BindLLMTable / AttachDB /
// PrimeTableKeys) and before serving traffic; entries cached before
// OpenStore are not mirrored retroactively.
func (rt *Runtime) OpenStore(cfg StoreConfig) error {
	if cfg.Dir == "" {
		return errors.New("core: OpenStore needs a data directory")
	}
	rt.persistMu.Lock()
	if rt.pstore != nil {
		rt.persistMu.Unlock()
		return errors.New("core: store already open")
	}
	rt.persistMu.Unlock()

	st, err := store.Open(cfg.Dir, store.Options{MaxBytes: cfg.MaxBytes, TTL: cfg.TTL})
	if err != nil {
		return err
	}

	var ctr PersistCounters
	ctr.Enabled = true

	// 1. Epochs: merge max(live, persisted) per component, then
	// invalidate any component the merge raised — an in-memory entry
	// cached under the lower pre-merge epoch must not survive either.
	if rec, ok := st.Get(kindEpochs, metaKey); ok {
		var persisted map[string]uint64
		if err := json.Unmarshal(rec.Payload, &persisted); err == nil {
			var raised []string
			rt.epochMu.Lock()
			for comp, e := range persisted {
				if e > rt.compEpochs[comp] {
					rt.compEpochs[comp] = e
					raised = append(raised, comp)
				}
			}
			rt.epochMu.Unlock()
			if rt.resultCache != nil {
				for _, comp := range raised {
					rt.resultCache.InvalidateComponent(comp)
				}
			}
		} else {
			ctr.DroppedCorrupt++
			st.Delete(kindEpochs, metaKey)
		}
	}

	// 2. Statistics: snapshot fills gaps, live observations win.
	if rec, ok := st.Get(kindStats, metaKey); ok {
		var snap optimizer.StatsSnapshot
		if err := json.Unmarshal(rec.Payload, &snap); err == nil {
			rt.stats.Restore(snap)
			ctr.WarmStatsTables = len(snap.Tables)
		} else {
			ctr.DroppedCorrupt++
			st.Delete(kindStats, metaKey)
		}
	}

	// 3. Relations: admit iff the backend declaration is the one they
	// were computed under and the persisted stamp equals the post-merge
	// stamp of the tables the plan reads. The sink is not installed yet,
	// so loads cannot echo back into the store they came from.
	if rec, ok := st.Get(kindBackends, metaKey); !ok || string(rec.Payload) != declaration(rt.registry) {
		for _, rec := range st.All(kindRel) {
			ctr.DroppedStale++
			st.Delete(kindRel, rec.Key)
		}
	} else if rt.resultCache != nil {
		for _, rec := range st.All(kindRel) {
			key, entry, err := decodeEntry(rec.Payload)
			if err != nil {
				ctr.DroppedCorrupt++
				st.Delete(kindRel, rec.Key)
				continue
			}
			if key.Stamp != rec.Stamp || key.Stamp != rt.stampFor(entry.Tables) {
				ctr.DroppedStale++
				st.Delete(kindRel, rec.Key)
				continue
			}
			if rt.resultCache.Load(key, entry) {
				ctr.WarmRelations++
			} else {
				// Refused by the live cache (budget); keep disk and
				// memory consistent.
				ctr.DroppedStale++
				st.Delete(kindRel, rec.Key)
			}
		}
	}

	rt.persistMu.Lock()
	rt.pstore = st
	rt.pctr = ctr
	rt.persistMu.Unlock()

	if rt.resultCache != nil {
		rt.resultCache.SetSink(runtimeSink{rt: rt})
	}

	// Persist the merged baseline and the live declaration immediately:
	// a crash right after boot must still find the current epochs on
	// disk.
	if err := rt.FlushStore(); err != nil {
		return err
	}

	if cfg.SnapshotInterval > 0 {
		stop, done := make(chan struct{}), make(chan struct{})
		rt.persistMu.Lock()
		rt.snapStop, rt.snapDone = stop, done
		rt.persistMu.Unlock()
		go func() {
			defer close(done)
			tick := time.NewTicker(cfg.SnapshotInterval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					rt.FlushStore()
				case <-stop:
					return
				}
			}
		}()
	}
	return nil
}

// FlushStore makes the durable tier current: it writes the statistics
// snapshot, the epoch table and the backend declaration (all pinned) and
// fsyncs, which also hardens any relation appends still sitting in OS
// buffers. No-op without an open store.
func (rt *Runtime) FlushStore() error {
	snap := rt.stats.Snapshot()

	rt.persistMu.Lock()
	defer rt.persistMu.Unlock()
	if rt.pstore == nil {
		return nil
	}
	payload, err := json.Marshal(snap)
	if err == nil {
		err = rt.pstore.Put(kindStats, metaKey, "", payload, true)
	}
	if perr := rt.putEpochs(); err == nil {
		err = perr
	}
	if serr := rt.pstore.Sync(); err == nil {
		err = serr
	}
	if err != nil {
		rt.pctr.Errors++
		return err
	}
	rt.pctr.Snapshots++
	return nil
}

// persistEpochs makes one epoch bump durable, synchronously: by the
// time bumpComponent returns, a crash-and-reopen can no longer serve
// relations cached under the pre-bump epochs, even if their tombstones
// were lost — the warm-load stamp check rejects them against the
// persisted (bumped) epoch table. Best-effort: persistence failures
// degrade to in-memory-only invalidation, which is already correct
// within this process's lifetime.
func (rt *Runtime) persistEpochs() {
	rt.persistMu.Lock()
	defer rt.persistMu.Unlock()
	if rt.pstore == nil {
		return
	}
	err := rt.putEpochs()
	if err == nil {
		err = rt.pstore.Sync()
	}
	if err != nil {
		rt.pctr.Errors++
	}
}

// putEpochs puts the pinned epoch table and backend declaration records,
// unsynced. The caller holds persistMu over an open store: the epochs
// are copied under it, since a copy taken before it could be written
// after a concurrent bump's newer one.
func (rt *Runtime) putEpochs() error {
	payload, err := json.Marshal(rt.tableEpochs())
	if err != nil {
		return err
	}
	if err := rt.pstore.Put(kindEpochs, metaKey, "", payload, true); err != nil {
		return err
	}
	return rt.pstore.Put(kindBackends, metaKey, "", []byte(declaration(rt.registry)), true)
}

// declaration renders the backend declaration persisted relations are
// bound to: the default backend, each backend's name, model
// (Raw().Name()) and fallback chain, and the role routes in llm.Roles
// order. Pricing and worker budgets are left out: they steer plan
// choice, not what a model answers. A model's noise seed is not visible
// through llm.Client, so a seed change alone goes unnoticed.
func declaration(g *llm.Registry) string {
	var b strings.Builder
	if d := g.Default(); d != nil {
		fmt.Fprintf(&b, "default %s\n", d.Name())
	}
	for _, be := range g.Backends() {
		fmt.Fprintf(&b, "backend %s model=%s fallback=%s\n", be.Name(), be.Raw().Name(), strings.Join(be.Fallback(), ","))
	}
	for _, role := range llm.Roles {
		if target, ok := g.Route(role); ok {
			fmt.Fprintf(&b, "route %s=%s\n", role, target)
		}
	}
	return b.String()
}

// CloseStore drains the durable tier on graceful shutdown: it stops the
// snapshot ticker, detaches the sink, flushes, compacts the segment log
// to its live set, and closes the store. The runtime keeps running
// in-memory-only afterwards. No-op without an open store.
func (rt *Runtime) CloseStore() error {
	rt.persistMu.Lock()
	stop, done := rt.snapStop, rt.snapDone
	rt.snapStop, rt.snapDone = nil, nil
	rt.persistMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	if rt.resultCache != nil {
		rt.resultCache.SetSink(nil)
	}
	err := rt.FlushStore()

	rt.persistMu.Lock()
	defer rt.persistMu.Unlock()
	if rt.pstore == nil {
		return err
	}
	if cerr := rt.pstore.Compact(); cerr != nil && err == nil {
		err = cerr
	}
	rt.pctr.Store = rt.pstore.Counters()
	if cerr := rt.pstore.Close(); cerr != nil && err == nil {
		err = cerr
	}
	rt.pstore = nil
	return err
}

// runtimeSink mirrors result-cache residency changes to the durable
// store. Hooks arrive outside the cache mutex; persistMu is the only
// lock taken. Relation appends are not fsynced per Put — losing the
// most recent relations in a crash only costs re-paying their prompts —
// while drops follow the cache's correctness decisions and rely on
// FlushStore/persistEpochs for durability ordering (see bumpComponent).
type runtimeSink struct{ rt *Runtime }

func (s runtimeSink) StoreEntry(key rescache.Key, e *rescache.Entry) {
	payload, err := encodeEntry(key, e)
	s.rt.persistMu.Lock()
	defer s.rt.persistMu.Unlock()
	if s.rt.pstore == nil {
		return
	}
	if err == nil {
		err = s.rt.pstore.Put(kindRel, relKey(key.Fingerprint), key.Stamp, payload, false)
	}
	if err != nil {
		s.rt.pctr.Errors++
	}
}

func (s runtimeSink) DropEntry(key rescache.Key) {
	s.rt.persistMu.Lock()
	defer s.rt.persistMu.Unlock()
	if s.rt.pstore == nil {
		return
	}
	// Drop only the stamp generation the cache dropped: a fresher entry
	// persisted under the same fingerprint (re-executed after a bump)
	// must survive a lagging drop of its stale predecessor.
	k := relKey(key.Fingerprint)
	if rec, ok := s.rt.pstore.Get(kindRel, k); ok && rec.Stamp == key.Stamp {
		if err := s.rt.pstore.Delete(kindRel, k); err != nil {
			s.rt.pctr.Errors++
		}
	}
}
