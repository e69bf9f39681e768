// Package store implements the disk-backed, content-addressed
// persistence tier under the engine's learned state: optimizer
// statistics, binding epochs and result-cache relations survive process
// restarts so a rebooted server plans and serves from everything the
// fleet already paid prompts to learn.
//
// Layout (modeled on content-addressed block stores like Dolt's nbs): a
// directory holds append-only segment files (`seg-<n>.log`) of CRC-framed
// records plus a MANIFEST naming the live segments in replay order. All
// writes append; a record for an existing (kind, key) supersedes the
// earlier one on replay, and deletes append tombstones. Compaction
// rewrites the live set into a fresh segment and swaps the MANIFEST.
//
// Crash safety:
//
//   - The MANIFEST is replaced atomically: write temp + fsync + rename +
//     directory fsync. A crash mid-swap leaves the old manifest — and the
//     old, consistent segment set — in effect.
//   - Every record carries a CRC32 over its body. A torn or truncated
//     append (crash mid-write) fails the checksum; Open drops exactly the
//     damaged suffix of that segment, truncates it back to the last valid
//     frame, and never serves a corrupt record.
//   - Segment files not named by the MANIFEST (a crash between segment
//     creation and the manifest swap) are deleted on Open.
//
// Eviction: an optional byte budget (oldest-written unpinned records are
// tombstoned first) and an optional TTL (expired records are dropped on
// Open, on Compact and on read).
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/lru"
)

const (
	manifestName = "MANIFEST"
	segPrefix    = "seg-"
	segSuffix    = ".log"

	// frameMagic marks the start of every record frame.
	frameMagic = uint32(0x474C5347) // "GLSG"
	// frameHeaderLen is magic + body length + body CRC32.
	frameHeaderLen = 12
	// maxBodyLen bounds one record body; a length field past it is
	// treated as corruption rather than an allocation request.
	maxBodyLen = 1 << 30

	// DefaultSegmentBytes is the roll threshold of the active segment.
	DefaultSegmentBytes = 4 << 20

	// recordOverhead is the flat per-record accounting added to the
	// payload and key sizes for the byte budget.
	recordOverhead = 64

	// tombstone flags a record body as a deletion marker.
	flagTombstone = byte(1 << 0)
	// flagPinned marks a record the byte budget never evicts (small
	// control-plane state: statistics, epochs).
	flagPinned = byte(1 << 1)
)

// Options configures a Store.
type Options struct {
	// MaxBytes caps the approximate live bytes (0 = unlimited). Past it,
	// the oldest-written unpinned records are evicted (tombstoned).
	MaxBytes int
	// TTL expires records this long after they were written (0 = never).
	TTL time.Duration
	// SegmentBytes rolls the active segment past this size
	// (0 = DefaultSegmentBytes).
	SegmentBytes int
	// Now is the clock (nil = time.Now); injectable for TTL tests.
	Now func() time.Time
}

// Record is one live (kind, key) entry as the store serves it.
type Record struct {
	Kind    string
	Key     string
	Stamp   string // opaque validity stamp (binding epochs); the store only transports it
	Written time.Time
	Pinned  bool
	Payload []byte
}

// Counters snapshots a store's lifetime accounting.
type Counters struct {
	// Loaded counts records live after Open's replay.
	Loaded int `json:"loaded"`
	// DroppedCorrupt counts torn/truncated/garbled frames dropped on
	// replay — the damaged suffixes that were never served.
	DroppedCorrupt int `json:"dropped_corrupt"`
	// DroppedExpired counts records dropped past their TTL.
	DroppedExpired int `json:"dropped_expired"`
	// Evicted counts records tombstoned by the byte budget.
	Evicted int `json:"evicted"`
	// Compactions counts manifest-swapping rewrites.
	Compactions int `json:"compactions"`
	// Records and LiveBytes describe the current live set; Segments the
	// on-disk file count.
	Records   int `json:"records"`
	LiveBytes int `json:"live_bytes"`
	Segments  int `json:"segments"`
}

// manifest is the JSON root naming the live segments in replay order.
type manifest struct {
	Generation uint64   `json:"generation"`
	Segments   []string `json:"segments"`
}

// rec is one live record inside the in-memory index.
type rec struct {
	kind    string
	key     string
	stamp   string
	written int64 // unix nanoseconds
	pinned  bool
	payload []byte
}

// Store is a concurrency-safe handle on one store directory. One process
// must own a directory at a time; the store does no cross-process
// locking.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options

	man    manifest
	active *os.File
	// activeSize tracks the byte length of the active segment, for rolls.
	activeSize int64
	closed     bool

	// live indexes the live records by indexKey(kind, key) and sums their
	// sizes. Its recency order is write order: Coldest yields the oldest
	// written first, the byte budget's eviction order.
	live *lru.Cache[string, rec]

	ctr Counters
}

func indexKey(kind, key string) string { return kind + "\x00" + key }

// Open opens (or creates) the store at dir, replaying the manifest's
// segments. Damaged segment suffixes are dropped — and truncated away so
// subsequent appends extend a valid chain — and expired records are not
// loaded.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	// The live set has no bound of its own: the store evicts by itself.
	s := &Store{dir: dir, opts: opts, live: lru.New[string, rec](math.MaxInt, 0, nil)}
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	if err := s.replay(); err != nil {
		return nil, err
	}
	s.removeOrphans()
	s.expireLocked(opts.Now())
	s.ctr.Loaded = s.live.Len()
	return s, nil
}

// loadManifest reads the MANIFEST, treating a missing one as an empty
// store.
func (s *Store) loadManifest() error {
	data, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading manifest: %w", err)
	}
	if err := json.Unmarshal(data, &s.man); err != nil {
		return fmt.Errorf("store: corrupt manifest: %w", err)
	}
	if err := s.man.check(); err != nil {
		return fmt.Errorf("store: corrupt manifest: %w", err)
	}
	return nil
}

// check rejects a manifest the store could not act on safely: a segment
// that is not a file `seg-<digits>.log` of the store's own directory
// (replay truncates the tail segment and Compact deletes them all), a
// segment listed twice, or one numbered above the generation — the next
// roll or compaction would create that live segment afresh, truncating
// it. A generation that cannot advance is rejected for the same reason.
func (m *manifest) check() error {
	if m.Generation == math.MaxUint64 {
		return errors.New("generation cannot advance")
	}
	seen := make(map[string]bool, len(m.Segments))
	for _, name := range m.Segments {
		digits, ok := strings.CutPrefix(name, segPrefix)
		if ok {
			digits, ok = strings.CutSuffix(digits, segSuffix)
		}
		n, err := strconv.ParseUint(digits, 10, 64)
		switch {
		case !ok || err != nil:
			return fmt.Errorf("segment %q is not %s<n>%s", name, segPrefix, segSuffix)
		case seen[name]:
			return fmt.Errorf("segment %q listed twice", name)
		case n > m.Generation:
			return fmt.Errorf("segment %q above generation %d", name, m.Generation)
		}
		seen[name] = true
	}
	return nil
}

// replay loads every manifest segment in order, applying puts and
// tombstones, then opens the last segment for appending (truncated back
// to its last valid frame). With no segments, a fresh one is rolled.
func (s *Store) replay() error {
	for i, name := range s.man.Segments {
		path := filepath.Join(s.dir, name)
		data, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			// A manifest segment that vanished: nothing to serve from it.
			s.ctr.DroppedCorrupt++
			continue
		}
		if err != nil {
			return fmt.Errorf("store: reading %s: %w", name, err)
		}
		valid := s.applySegment(data)
		if i == len(s.man.Segments)-1 {
			// The tail segment becomes the active one: truncate away any
			// damaged suffix so appends extend the valid chain.
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				return fmt.Errorf("store: opening %s: %w", name, err)
			}
			if err := f.Truncate(int64(valid)); err != nil {
				f.Close()
				return fmt.Errorf("store: truncating %s: %w", name, err)
			}
			if _, err := f.Seek(int64(valid), 0); err != nil {
				f.Close()
				return fmt.Errorf("store: seeking %s: %w", name, err)
			}
			s.active, s.activeSize = f, int64(valid)
		}
	}
	if s.active == nil {
		return s.rollLocked()
	}
	return nil
}

// applySegment replays one segment's frames into the index, returning
// the length of the valid prefix. Any malformed frame ends the segment:
// everything from it on is counted dropped.
func (s *Store) applySegment(data []byte) (valid int) {
	off := 0
	for {
		body, n, ok := nextFrame(data[off:])
		if !ok {
			if off < len(data) {
				s.ctr.DroppedCorrupt++
			}
			return off
		}
		r, err := decodeBody(body)
		if err != nil {
			s.ctr.DroppedCorrupt++
			return off
		}
		s.applyRecord(r)
		off += n
	}
}

// nextFrame parses one frame from the head of data, returning its body
// and total length. ok is false at a clean end *or* on damage; the
// caller distinguishes by whether bytes remain.
func nextFrame(data []byte) (body []byte, n int, ok bool) {
	if len(data) < frameHeaderLen {
		return nil, 0, false
	}
	if binary.BigEndian.Uint32(data) != frameMagic {
		return nil, 0, false
	}
	bodyLen := binary.BigEndian.Uint32(data[4:])
	if bodyLen > maxBodyLen || int(bodyLen) > len(data)-frameHeaderLen {
		return nil, 0, false
	}
	sum := binary.BigEndian.Uint32(data[8:])
	body = data[frameHeaderLen : frameHeaderLen+int(bodyLen)]
	if crc32.ChecksumIEEE(body) != sum {
		return nil, 0, false
	}
	return body, frameHeaderLen + int(bodyLen), true
}

// diskRec is one decoded frame body.
type diskRec struct {
	kind, key, stamp string
	written          int64
	flags            byte
	payload          []byte
}

// encodeBody renders one record body (lengths-prefixed fields).
func encodeBody(r diskRec) []byte {
	buf := make([]byte, 0, len(r.kind)+len(r.key)+len(r.stamp)+len(r.payload)+40)
	appendStr := func(v string) {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	appendStr(r.kind)
	appendStr(r.key)
	appendStr(r.stamp)
	buf = binary.AppendVarint(buf, r.written)
	buf = append(buf, r.flags)
	buf = binary.AppendUvarint(buf, uint64(len(r.payload)))
	buf = append(buf, r.payload...)
	return buf
}

// decodeBody parses one record body, rejecting any truncation or
// overrun.
func decodeBody(body []byte) (diskRec, error) {
	var r diskRec
	off := 0
	str := func() (string, error) {
		n, used := uvarint(body[off:])
		if used <= 0 || n > uint64(len(body)-off-used) {
			return "", errors.New("store: malformed record")
		}
		off += used
		v := string(body[off : off+int(n)])
		off += int(n)
		return v, nil
	}
	var err error
	if r.kind, err = str(); err != nil {
		return r, err
	}
	if r.key, err = str(); err != nil {
		return r, err
	}
	if r.stamp, err = str(); err != nil {
		return r, err
	}
	w, used := binary.Varint(body[off:])
	if used <= 0 || !canonical(body[off:off+used]) {
		return r, errors.New("store: malformed record")
	}
	r.written = w
	off += used
	if off >= len(body) {
		return r, errors.New("store: malformed record")
	}
	r.flags = body[off]
	off++
	n, used := uvarint(body[off:])
	if used <= 0 || n > uint64(len(body)-off-used) {
		return r, errors.New("store: malformed record")
	}
	off += used
	r.payload = append([]byte(nil), body[off:off+int(n)]...)
	if off+int(n) != len(body) {
		return r, errors.New("store: malformed record")
	}
	return r, nil
}

// uvarint decodes one unsigned varint, rejecting (used 0) an encoding
// that is not the shortest: encodeBody never writes one, so every record
// decodeBody accepts re-encodes to its own bytes.
func uvarint(b []byte) (uint64, int) {
	n, used := binary.Uvarint(b)
	if used <= 0 || !canonical(b[:used]) {
		return 0, 0
	}
	return n, used
}

// canonical reports whether a varint encoding is the shortest for its
// value: no trailing zero group after the first byte.
func canonical(enc []byte) bool {
	return len(enc) == 1 || enc[len(enc)-1] != 0
}

// applyRecord folds one replayed record into the index: later records
// supersede earlier ones for the same (kind, key); tombstones delete.
func (s *Store) applyRecord(d diskRec) {
	ik := indexKey(d.kind, d.key)
	if d.flags&flagTombstone != 0 {
		if old := s.live.Peek(ik); old != nil {
			s.live.Remove(old)
		}
		return
	}
	r := rec{
		kind:    d.kind,
		key:     d.key,
		stamp:   d.stamp,
		written: d.written,
		pinned:  d.flags&flagPinned != 0,
		payload: d.payload,
	}
	s.live.Put(ik, r, recordOverhead+len(d.kind)+len(d.key)+len(d.stamp)+len(d.payload))
}

// removeOrphans deletes segment files the manifest does not name — the
// residue of a crash between segment creation and the manifest swap.
func (s *Store) removeOrphans() {
	listed := map[string]bool{}
	for _, name := range s.man.Segments {
		listed[name] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) && !listed[name] {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	// A stranded manifest temp (crash before the rename) is dead weight.
	os.Remove(filepath.Join(s.dir, manifestName+".tmp"))
}

// expireLocked drops every record past the TTL.
func (s *Store) expireLocked(now time.Time) {
	for n := range s.live.Coldest() {
		s.dropExpiredLocked(n, now)
	}
}

// dropExpiredLocked drops the record n when it is past the TTL at time
// now, and reports whether it did.
func (s *Store) dropExpiredLocked(n *lru.Node[string, rec], now time.Time) bool {
	if s.opts.TTL <= 0 || n.Val.written > now.Add(-s.opts.TTL).UnixNano() {
		return false
	}
	s.live.Remove(n)
	s.ctr.DroppedExpired++
	return true
}

// appendFrame encodes and appends one record frame to the active
// segment, rolling it past the size threshold.
func (s *Store) appendFrame(d diskRec) error {
	if s.closed {
		return errors.New("store: closed")
	}
	body := encodeBody(d)
	frame := make([]byte, frameHeaderLen, frameHeaderLen+len(body))
	binary.BigEndian.PutUint32(frame, frameMagic)
	binary.BigEndian.PutUint32(frame[4:], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[8:], crc32.ChecksumIEEE(body))
	frame = append(frame, body...)
	n, err := s.active.Write(frame)
	s.activeSize += int64(n)
	if err != nil {
		return fmt.Errorf("store: appending: %w", err)
	}
	if s.activeSize >= int64(s.opts.SegmentBytes) {
		return s.rollLocked()
	}
	return nil
}

// rollLocked starts a fresh active segment and publishes it in the
// manifest (the manifest swap happens before any append can reach the
// new file, so a crash never strands acknowledged records in an
// unlisted segment).
func (s *Store) rollLocked() error {
	s.man.Generation++
	name := fmt.Sprintf("%s%06d%s", segPrefix, s.man.Generation, segSuffix)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	man := s.man
	man.Segments = append(append([]string(nil), s.man.Segments...), name)
	if err := s.writeManifest(man); err != nil {
		f.Close()
		return err
	}
	s.man = man
	if s.active != nil {
		s.active.Sync()
		s.active.Close()
	}
	s.active, s.activeSize = f, 0
	return nil
}

// writeManifest atomically replaces the MANIFEST: temp + fsync + rename
// + directory fsync.
func (s *Store) writeManifest(m manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("store: swapping manifest: %w", err)
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Put stores payload under (kind, key) with the given stamp, superseding
// any earlier record. Pinned records are exempt from byte-budget
// eviction. The append is not fsynced; call Sync (or Close) to make a
// batch durable.
func (s *Store) Put(kind, key, stamp string, payload []byte, pinned bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var flags byte
	if pinned {
		flags |= flagPinned
	}
	now := s.opts.Now().UnixNano()
	if err := s.appendFrame(diskRec{kind: kind, key: key, stamp: stamp, written: now, flags: flags, payload: payload}); err != nil {
		return err
	}
	s.applyRecord(diskRec{kind: kind, key: key, stamp: stamp, written: now, flags: flags,
		payload: append([]byte(nil), payload...)})
	return s.evictLocked()
}

// evictLocked tombstones oldest-written unpinned records until the live
// set fits the byte budget.
func (s *Store) evictLocked() error {
	if s.opts.MaxBytes <= 0 {
		return nil
	}
	for n := range s.live.Coldest() {
		if s.live.Bytes() <= s.opts.MaxBytes {
			break
		}
		if r := &n.Val; !r.pinned {
			if err := s.appendFrame(diskRec{kind: r.kind, key: r.key, written: s.opts.Now().UnixNano(), flags: flagTombstone}); err != nil {
				return err
			}
			s.live.Remove(n)
			s.ctr.Evicted++
		}
	}
	return nil
}

// Delete removes (kind, key), appending a tombstone so the deletion
// survives restart.
func (s *Store) Delete(kind, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.live.Peek(indexKey(kind, key))
	if n == nil {
		return nil
	}
	if err := s.appendFrame(diskRec{kind: kind, key: key, written: s.opts.Now().UnixNano(), flags: flagTombstone}); err != nil {
		return err
	}
	s.live.Remove(n)
	return nil
}

// Get returns the live record under (kind, key). Expired records read as
// absent (and are dropped).
func (s *Store) Get(kind, key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.live.Peek(indexKey(kind, key))
	if n == nil || s.dropExpiredLocked(n, s.opts.Now()) {
		return Record{}, false
	}
	return recordOf(&n.Val), true
}

// All returns every live record of one kind, key-ordered (deterministic
// for warm-start replay). Expired records are dropped, not returned.
func (s *Store) All(kind string) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.Now()
	var out []Record
	for n := range s.live.Coldest() {
		if n.Val.kind == kind && !s.dropExpiredLocked(n, now) {
			out = append(out, recordOf(&n.Val))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func recordOf(r *rec) Record {
	return Record{
		Kind:    r.kind,
		Key:     r.key,
		Stamp:   r.stamp,
		Written: time.Unix(0, r.written),
		Pinned:  r.pinned,
		Payload: append([]byte(nil), r.payload...),
	}
}

// Sync fsyncs the active segment: every previously acknowledged Put and
// Delete becomes durable.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	return s.active.Sync()
}

// Compact rewrites the live set into one fresh segment and swaps the
// manifest to it, reclaiming superseded records, tombstones and dropped
// damage. Crash-safe: until the manifest swap commits, the old segment
// chain remains in effect.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	s.expireLocked(s.opts.Now())
	s.man.Generation++
	name := fmt.Sprintf("%s%06d%s", segPrefix, s.man.Generation, segSuffix)
	path := filepath.Join(s.dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: compacting: %w", err)
	}
	var size int64
	for n := range s.live.Coldest() {
		r := &n.Val
		var flags byte
		if r.pinned {
			flags |= flagPinned
		}
		body := encodeBody(diskRec{kind: r.kind, key: r.key, stamp: r.stamp, written: r.written, flags: flags, payload: r.payload})
		frame := make([]byte, frameHeaderLen, frameHeaderLen+len(body))
		binary.BigEndian.PutUint32(frame, frameMagic)
		binary.BigEndian.PutUint32(frame[4:], uint32(len(body)))
		binary.BigEndian.PutUint32(frame[8:], crc32.ChecksumIEEE(body))
		frame = append(frame, body...)
		n, err := f.Write(frame)
		size += int64(n)
		if err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("store: compacting: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	old := s.man.Segments
	man := s.man
	man.Segments = []string{name}
	if err := s.writeManifest(man); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	s.man = man
	if s.active != nil {
		s.active.Close()
	}
	s.active, s.activeSize = f, size
	for _, o := range old {
		if o != name {
			os.Remove(filepath.Join(s.dir, o))
		}
	}
	s.ctr.Compactions++
	return nil
}

// Counters snapshots the lifetime accounting.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.ctr
	c.Records = s.live.Len()
	c.LiveBytes = s.live.Bytes()
	c.Segments = len(s.man.Segments)
	return c
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Close fsyncs and closes the active segment. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active == nil {
		return nil
	}
	err := s.active.Sync()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	return err
}
