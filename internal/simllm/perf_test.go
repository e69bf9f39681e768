package simllm

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/prompt"
	"repro/internal/world"
)

// TestH64MatchesFNV pins h64 to the formula every simulated answer was
// generated with: FNV-1a over fmt "%d|%s" of (seed, model id), then per
// part a 0x1f byte and the lower-cased part.
func TestH64MatchesFNV(t *testing.T) {
	reference := func(seed int64, id string, parts ...string) uint64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s", seed, id)
		for _, p := range parts {
			h.Write([]byte{0x1f})
			h.Write([]byte(strings.ToLower(p)))
		}
		return h.Sum64()
	}
	w := world.Build()
	cases := [][]string{
		nil,
		{""},
		{"know", "country", "United States"},
		{"belief", "City", "SÃO PAULO", "population"},
		{"keyalias", "city", "Zürich", "", "İstanbul"},
		{"pushcond", "country", "Côte d'Ivoire", "\xff\xfe", "ΑΘΗΝΑ"},
	}
	for _, seed := range []int64{1, -7, 1 << 40} {
		for _, p := range AllProfiles() {
			m := New(p, w, seed)
			for _, parts := range cases {
				if got, want := m.h64(parts...), reference(seed, p.ID, parts...); got != want {
					t.Errorf("seed %d %s h64(%q) = %#x, want %#x", seed, p.ID, parts, got, want)
				}
			}
		}
	}
}

// TestCompleteAllocs pins what one prompt costs the in-process model. The
// model runs inside galois-serve, so these allocations are server CPU on
// every prompt-cache miss. Before the alias table was read in place and
// h64 hashed without fmt, one attribute prompt made 26 allocations
// (18.8 KB) and one 40-key "more results" page 579 (753 KB).
func TestCompleteAllocs(t *testing.T) {
	w := world.Build()
	m := New(ChatGPT, w, 1)
	b := prompt.NewBuilder()
	var exclude []string
	for _, kp := range w.KeysByPopularity("city")[:40] {
		exclude = append(exclude, kp.Key)
	}
	cases := []struct {
		name   string
		prompt string
		max    float64
	}{
		{"attr", b.Attr("country", "Italy", "capital"), 14},
		{"more40", b.KeyList("city", "name", nil, exclude), 219},
	}
	ctx := context.Background()
	for _, c := range cases {
		got := testing.AllocsPerRun(20, func() {
			if _, err := m.Complete(ctx, c.prompt); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s prompt: %.0f allocs, want at most %.0f", c.name, got, c.max)
		}
	}
}
