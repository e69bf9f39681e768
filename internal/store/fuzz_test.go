package store

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lru"
)

// replayStore is the in-memory half of a Store, enough to replay
// segments into.
func replayStore() *Store {
	return &Store{live: lru.New[string, rec](math.MaxInt, 0, nil)}
}

// FuzzStoreSegment feeds arbitrary bytes to segment replay. Replay never
// panics; the valid prefix it reports is a chain of whole frames that
// replays on its own to the same live set with nothing dropped, and a
// drop is counted exactly when bytes follow it; every record in it
// re-encodes to the body it was decoded from.
func FuzzStoreSegment(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []struct {
		kind, key, stamp, payload string
		pinned                    bool
	}{
		{"rel", "a", "llm:city=1;", "payload-a", false},
		{"stats", "planner", "", `{"tables":{}}`, true},
		{"rel", "b", "db=2;", "", false},
		{"rel", "a", "llm:city=2;", "payload-a2", false},
	} {
		if err := s.Put(p.kind, p.key, p.stamp, []byte(p.payload), p.pinned); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Delete("rel", "b"); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) != 1 {
		f.Fatalf("segments %v, %v", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)/2])
	flipped := bytes.Clone(seg)
	flipped[len(flipped)/3] ^= 0x5a
	f.Add(flipped)
	f.Add(append(bytes.Clone(seg), seg[:frameHeaderLen]...))
	f.Add([]byte{})
	if body, _, ok := nextFrame(seg); ok {
		f.Add(bytes.Clone(body))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplay(t, data)
		// The same bytes as one checksummed frame's body reach the record
		// decoder, which random segments rarely get past the CRC to.
		framed := make([]byte, frameHeaderLen, frameHeaderLen+len(data))
		putFrameHeader(framed, data)
		checkReplay(t, append(framed, data...))
	})
}

// checkReplay replays one segment and checks it against its valid
// prefix.
func checkReplay(t *testing.T, data []byte) {
	t.Helper()
	full := replayStore()
	valid := full.applySegment(data)
	if valid < 0 || valid > len(data) {
		t.Fatalf("valid prefix %d of %d bytes", valid, len(data))
	}
	if dropped := full.ctr.DroppedCorrupt; dropped != 0 && dropped != 1 || (dropped == 1) != (valid < len(data)) {
		t.Fatalf("valid prefix %d of %d bytes, %d drops counted", valid, len(data), dropped)
	}
	for off := 0; off < valid; {
		body, n, ok := nextFrame(data[off:valid])
		if !ok {
			t.Fatalf("no whole frame at %d inside the valid prefix %d", off, valid)
		}
		r, err := decodeBody(body)
		if err != nil {
			t.Fatalf("frame at %d inside the valid prefix: %v", off, err)
		}
		if !bytes.Equal(encodeBody(r), body) {
			t.Fatalf("record at %d re-encodes to other bytes", off)
		}
		off += n
	}
	prefix := replayStore()
	if v := prefix.applySegment(data[:valid]); v != valid || prefix.ctr.DroppedCorrupt != 0 {
		t.Fatalf("the valid prefix replays to %d with %d drops, want %d and none", v, prefix.ctr.DroppedCorrupt, valid)
	}
	if prefix.live.Bytes() != full.live.Bytes() || prefix.live.Len() != full.live.Len() {
		t.Fatalf("the valid prefix replays to %d records (%d B), the segment to %d (%d B)",
			prefix.live.Len(), prefix.live.Bytes(), full.live.Len(), full.live.Bytes())
	}
	var fullRecs []*rec
	for n := range full.live.Coldest() {
		fullRecs = append(fullRecs, &n.Val)
	}
	i := 0
	for n := range prefix.live.Coldest() {
		ra, rb := &n.Val, fullRecs[i]
		i++
		if ra.kind != rb.kind || ra.key != rb.key || ra.stamp != rb.stamp || ra.written != rb.written ||
			ra.pinned != rb.pinned || !bytes.Equal(ra.payload, rb.payload) {
			t.Fatalf("live record %+v from the prefix, %+v from the segment", ra, rb)
		}
	}
}

// FuzzManifest opens a directory holding a fuzzed MANIFEST beside one
// valid segment. Open never panics and never touches a file outside the
// directory; when it succeeds, a Put (rolling segments: they are tiny
// here), a Compact and a Close succeed, and a reopen serves the same
// live set.
func FuzzManifest(f *testing.F) {
	seg := validSegment(f)
	for _, man := range []string{
		`{"generation":1,"segments":["seg-000001.log"]}`,
		`{"generation":7,"segments":["seg-000003.log","seg-000001.log"]}`,
		`{"generation":1,"segments":["../victim"]}`,
		`{"generation":1,"segments":["seg-000001.log","seg-000001.log"]}`,
		`{"generation":0,"segments":["seg-000001.log"]}`,
		`{"generation":18446744073709551615,"segments":["seg-000001.log"]}`,
		`{"segments":["seg-1.log","seg-+2.log","seg-.log"]}`,
		`{}`,
		`[`,
	} {
		f.Add([]byte(man))
	}
	f.Fuzz(func(t *testing.T, man []byte) {
		dir, untouched := manifestFixture(t, seg, man)
		s, err := Open(dir, Options{SegmentBytes: 64})
		if err != nil {
			if err := untouched(false); err != nil {
				t.Fatalf("a failed Open touched a file: %v", err)
			}
			return
		}
		if err := s.Put("rel", "fuzz", "", []byte("payload-fuzz"), false); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if err := s.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		want := liveSet(s)
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := untouched(false); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir, Options{SegmentBytes: 64})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s.Close()
		if got := liveSet(s); got != want {
			t.Fatalf("reopen serves %q, want %q", got, want)
		}
	})
}

// liveSet renders a store's live records in write order.
func liveSet(s *Store) string {
	var b strings.Builder
	for n := range s.live.Coldest() {
		r := &n.Val
		fmt.Fprintf(&b, "%q %q %q %d %t %q\n", r.kind, r.key, r.stamp, r.written, r.pinned, r.payload)
	}
	return b.String()
}
