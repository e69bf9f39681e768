package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func mustPut(t *testing.T, s *Store, kind, key, stamp, payload string) {
	t.Helper()
	if err := s.Put(kind, key, stamp, []byte(payload), false); err != nil {
		t.Fatalf("Put(%s,%s): %v", kind, key, err)
	}
}

// TestRoundTrip: puts, supersedes, deletes and stamps survive a clean
// close and reopen.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, "rel", "a", "db=1;", "alpha")
	mustPut(t, s, "rel", "b", "db=1;", "bravo-v1")
	mustPut(t, s, "rel", "b", "db=2;", "bravo-v2") // supersedes
	mustPut(t, s, "rel", "c", "", "charlie")
	if err := s.Delete("rel", "c"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Put("stats", "global", "", []byte("{}"), true); err != nil {
		t.Fatalf("Put pinned: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := s2.Counters().Loaded; got != 3 {
		t.Fatalf("Loaded = %d, want 3 (a, b, stats)", got)
	}
	r, ok := s2.Get("rel", "b")
	if !ok || string(r.Payload) != "bravo-v2" || r.Stamp != "db=2;" {
		t.Fatalf("Get(rel,b) = %+v, %v; want superseding record", r, ok)
	}
	if _, ok := s2.Get("rel", "c"); ok {
		t.Fatal("deleted record served after reopen")
	}
	all := s2.All("rel")
	if len(all) != 2 || all[0].Key != "a" || all[1].Key != "b" {
		t.Fatalf("All(rel) = %v, want [a b] key-ordered", all)
	}
	if r, ok := s2.Get("stats", "global"); !ok || !r.Pinned {
		t.Fatalf("pinned record lost: %+v, %v", r, ok)
	}
}

// TestTornTailDropped: a crash mid-append leaves a torn frame at the
// segment tail; reopening drops exactly the damaged suffix — every
// earlier record still serves — and appends continue on a valid chain.
func TestTornTailDropped(t *testing.T) {
	for _, cut := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated-mid-frame", func(b []byte) []byte { return b[:len(b)-7] }},
		{"corrupted-payload", func(b []byte) []byte { b[len(b)-3] ^= 0xFF; return b }},
		{"garbage-appended", func(b []byte) []byte { return append(b, 0xDE, 0xAD, 0xBE, 0xEF) }},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			mustPut(t, s, "rel", "keep1", "", "payload-one")
			mustPut(t, s, "rel", "keep2", "", "payload-two")
			mustPut(t, s, "rel", "torn", "", "payload-that-will-tear")
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			seg := filepath.Join(dir, s.man.Segments[len(s.man.Segments)-1])
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatalf("reading segment: %v", err)
			}
			if err := os.WriteFile(seg, cut.mut(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatalf("writing damage: %v", err)
			}

			s2 := mustOpen(t, dir, Options{})
			defer s2.Close()
			ctr := s2.Counters()
			if ctr.DroppedCorrupt == 0 {
				t.Fatal("damage went undetected")
			}
			for _, key := range []string{"keep1", "keep2"} {
				if _, ok := s2.Get("rel", key); !ok {
					t.Fatalf("undamaged record %s lost", key)
				}
			}
			if cut.name != "garbage-appended" {
				if _, ok := s2.Get("rel", "torn"); ok {
					t.Fatal("torn record served")
				}
			}
			// The chain stays appendable: a new record written after the
			// truncation survives the next reopen.
			mustPut(t, s2, "rel", "after", "", "post-damage")
			s2.Close()
			s3 := mustOpen(t, dir, Options{})
			defer s3.Close()
			if _, ok := s3.Get("rel", "after"); !ok {
				t.Fatal("append after damage recovery lost")
			}
			if _, ok := s3.Get("rel", "keep1"); !ok {
				t.Fatal("keep1 lost after second reopen")
			}
		})
	}
}

// TestMidFlushKill: a crash between writing a new segment/manifest temp
// and the manifest swap must leave the old manifest's state in effect —
// orphan segments and stranded temps are discarded, not replayed.
func TestMidFlushKill(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, "rel", "committed", "", "durable")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate the kill: an orphan segment full of valid frames that the
	// manifest never adopted, plus a manifest temp that never renamed.
	orphan := encodeBody(diskRec{kind: "rel", key: "phantom", written: 1, payload: []byte("never-committed")})
	frame := make([]byte, frameHeaderLen, frameHeaderLen+len(orphan))
	putFrameHeader(frame, orphan)
	frame = append(frame, orphan...)
	if err := os.WriteFile(filepath.Join(dir, "seg-999999.log"), frame, 0o644); err != nil {
		t.Fatalf("writing orphan: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.tmp"), []byte(`{"generation":999999,"segments":["seg-999999.log"]}`), 0o644); err != nil {
		t.Fatalf("writing manifest temp: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if _, ok := s2.Get("rel", "phantom"); ok {
		t.Fatal("record from an uncommitted segment served")
	}
	if _, ok := s2.Get("rel", "committed"); !ok {
		t.Fatal("committed record lost")
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-999999.log")); !os.IsNotExist(err) {
		t.Fatal("orphan segment not cleaned up")
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.tmp")); !os.IsNotExist(err) {
		t.Fatal("stranded manifest temp not cleaned up")
	}
}

// manifestFixture lays out a store directory inside a parent that also
// holds a file outside it: dir holds one valid segment (seg-000001.log,
// generation 1) and the MANIFEST man; the parent holds victim. It
// returns dir and a check that nothing in the parent outside dir, nor
// the segment when keepSeg is set, changed.
func manifestFixture(t testing.TB, seg []byte, man []byte) (dir string, untouched func(keepSeg bool) error) {
	t.Helper()
	root := t.TempDir()
	dir = filepath.Join(root, "data")
	victim := filepath.Join(root, "victim")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for path, data := range map[string][]byte{
		victim:                               []byte("outside the data directory"),
		filepath.Join(dir, "seg-000001.log"): seg,
		filepath.Join(dir, manifestName):     man,
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, func(keepSeg bool) error {
		entries, err := os.ReadDir(root)
		if err != nil {
			return err
		}
		if len(entries) != 2 {
			return fmt.Errorf("parent holds %d entries, want data and victim", len(entries))
		}
		want := map[string][]byte{victim: []byte("outside the data directory")}
		if keepSeg {
			want[filepath.Join(dir, "seg-000001.log")] = seg
		}
		for path, data := range want {
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
				return fmt.Errorf("%s changed: %q, %v", path, got, err)
			}
		}
		return nil
	}
}

// validSegment returns the bytes of a one-record seg-000001.log.
func validSegment(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("rel", "a", "llm:city=1;", []byte("payload-a"), false); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "seg-000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// TestCorruptManifestRejected: Open refuses a manifest it could not act
// on safely, touching neither the listed segment nor anything outside
// the directory — a segment path that leaves the directory (replay
// would truncate it, Compact delete it), a segment listed twice, and a
// segment numbered above the generation (the next roll would recreate
// that live segment empty).
func TestCorruptManifestRejected(t *testing.T) {
	seg := validSegment(t)
	for name, man := range map[string]string{
		"outside the directory": `{"generation":1,"segments":["../victim"]}`,
		"listed twice":          `{"generation":1,"segments":["seg-000001.log","seg-000001.log"]}`,
		"above the generation":  `{"generation":0,"segments":["seg-000001.log"]}`,
	} {
		dir, untouched := manifestFixture(t, seg, []byte(man))
		if s, err := Open(dir, Options{}); err == nil {
			s.Close()
			t.Errorf("%s: Open accepted %s", name, man)
		} else if !strings.Contains(err.Error(), "corrupt manifest") {
			t.Errorf("%s: Open: %v, want a corrupt manifest", name, err)
		}
		if err := untouched(true); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// putFrameHeader writes magic/length/CRC for body into the 12-byte
// header (test helper mirroring appendFrame's framing).
func putFrameHeader(header, body []byte) {
	binary.BigEndian.PutUint32(header, frameMagic)
	binary.BigEndian.PutUint32(header[4:], uint32(len(body)))
	binary.BigEndian.PutUint32(header[8:], crc32.ChecksumIEEE(body))
}

// TestTTLExpiry: records past the TTL are not served and are dropped on
// reopen; fresh records survive.
func TestTTLExpiry(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s := mustOpen(t, dir, Options{TTL: time.Hour, Now: clock})
	mustPut(t, s, "rel", "old", "", "stale payload")
	now = now.Add(30 * time.Minute)
	mustPut(t, s, "rel", "fresh", "", "fresh payload")
	now = now.Add(45 * time.Minute) // old is 75m stale, fresh 45m
	if _, ok := s.Get("rel", "old"); ok {
		t.Fatal("expired record served")
	}
	if _, ok := s.Get("rel", "fresh"); !ok {
		t.Fatal("fresh record dropped")
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{TTL: time.Hour, Now: clock})
	defer s2.Close()
	ctr := s2.Counters()
	if ctr.Loaded != 1 || ctr.DroppedExpired == 0 {
		t.Fatalf("reopen Loaded=%d DroppedExpired=%d, want 1 live and the stale one counted", ctr.Loaded, ctr.DroppedExpired)
	}
}

// TestByteBudgetEviction: past the byte budget the oldest-written
// unpinned records are evicted — durably, so they stay gone after
// reopen — while pinned records survive any pressure.
func TestByteBudgetEviction(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	clock := func() time.Time { now = now.Add(time.Second); return now }
	payload := bytes.Repeat([]byte("x"), 200)
	s := mustOpen(t, dir, Options{MaxBytes: 1200, Now: clock})
	if err := s.Put("epochs", "global", "", []byte("tiny"), true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mustPut(t, s, "rel", fmt.Sprintf("k%d", i), "", string(payload))
	}
	ctr := s.Counters()
	if ctr.Evicted == 0 || ctr.LiveBytes > 1200 {
		t.Fatalf("Evicted=%d LiveBytes=%d, want eviction under the 1200-byte budget", ctr.Evicted, ctr.LiveBytes)
	}
	if _, ok := s.Get("rel", "k0"); ok {
		t.Fatal("oldest record survived the byte budget")
	}
	if _, ok := s.Get("rel", "k7"); !ok {
		t.Fatal("newest record evicted")
	}
	if _, ok := s.Get("epochs", "global"); !ok {
		t.Fatal("pinned record evicted by the byte budget")
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{MaxBytes: 1200, Now: clock})
	defer s2.Close()
	if _, ok := s2.Get("rel", "k0"); ok {
		t.Fatal("evicted record resurrected after reopen")
	}
	if _, ok := s2.Get("epochs", "global"); !ok {
		t.Fatal("pinned record lost after reopen")
	}
}

// TestCompact: compaction collapses superseded records and tombstones
// into one segment, the state is unchanged, and old segments are gone.
func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 20; i++ {
		mustPut(t, s, "rel", fmt.Sprintf("k%d", i%4), "", fmt.Sprintf("payload %d", i))
	}
	s.Delete("rel", "k3")
	if segs := s.Counters().Segments; segs < 2 {
		t.Fatalf("segments = %d, want rolls before compaction", segs)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if segs := s.Counters().Segments; segs != 1 {
		t.Fatalf("segments after Compact = %d, want 1", segs)
	}
	for i := 0; i < 3; i++ {
		r, ok := s.Get("rel", fmt.Sprintf("k%d", i))
		want := fmt.Sprintf("payload %d", 16+i)
		if !ok || string(r.Payload) != want {
			t.Fatalf("k%d after compact = %q, %v; want %q", i, r.Payload, ok, want)
		}
	}
	if _, ok := s.Get("rel", "k3"); ok {
		t.Fatal("tombstoned record resurrected by compaction")
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := s2.Counters().Loaded; got != 3 {
		t.Fatalf("Loaded after compact+reopen = %d, want 3", got)
	}
	// Reopen appends to the compacted tail segment rather than rolling,
	// so exactly one segment file remains on disk.
	files, _ := os.ReadDir(dir)
	segCount := 0
	for _, f := range files {
		if strings.HasPrefix(f.Name(), segPrefix) {
			segCount++
		}
	}
	if segCount != 1 {
		t.Fatalf("segment files on disk = %d, want 1", segCount)
	}
}

// TestSegmentRoll: appends past SegmentBytes roll to new manifest-listed
// segments and everything replays across them.
func TestSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 100})
	for i := 0; i < 10; i++ {
		mustPut(t, s, "rel", fmt.Sprintf("k%d", i), "", fmt.Sprintf("roll payload %d", i))
	}
	if segs := s.Counters().Segments; segs < 3 {
		t.Fatalf("segments = %d, want >= 3 with a 100-byte roll threshold", segs)
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{SegmentBytes: 100})
	defer s2.Close()
	if got := s2.Counters().Loaded; got != 10 {
		t.Fatalf("Loaded = %d, want 10 across rolled segments", got)
	}
}
