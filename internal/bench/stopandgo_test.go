package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/simllm"
	"repro/internal/spider"
)

// stopAndGoRecord is one query's pinned stop-and-go outcome: a digest of
// the result relation and the accounting the latency model charged.
type stopAndGoRecord struct {
	Arm              string `json:"arm"`
	SQL              string `json:"sql"`
	Relation         string `json:"relation"`
	Prompts          int    `json:"prompts"`
	PromptTokens     int    `json:"prompt_tokens"`
	CompletionTokens int    `json:"completion_tokens"`
	CacheHits        int    `json:"cache_hits"`
	CacheMisses      int    `json:"cache_misses"`
	LatencyNS        int64  `json:"simulated_latency_ns"`
}

// TestStopAndGoGolden pins the stop-and-go execution query by query: the
// 46 corpus statements under the paper configuration (plain, with a GPT-3
// verifier, and with the prompt and result caches on), plus the
// LIMIT-bearing statements among the first 200 differential-harness
// queries, each with its relation digest, prompt and token counts, cache
// counters and simulated latency. Under stop-and-go a LIMIT still pays
// for the full prompt set, so those rows pin that too. Refresh with:
//
//	go test ./internal/bench -run TestStopAndGoGolden -update
func TestStopAndGoGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus runs")
	}
	r := runner(t)
	ctx := context.Background()
	var got []stopAndGoRecord
	record := func(arm string, e *core.Session, sql string) {
		rel, rep, err := e.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %q: %v", arm, sql, err)
		}
		sum := sha256.Sum256([]byte(rel.String()))
		s := rep.Stats
		got = append(got, stopAndGoRecord{
			Arm:              arm,
			SQL:              sql,
			Relation:         hex.EncodeToString(sum[:8]),
			Prompts:          s.Prompts,
			PromptTokens:     s.PromptTokens,
			CompletionTokens: s.CompletionTokens,
			CacheHits:        s.CacheHits,
			CacheMisses:      s.CacheMisses,
			LatencyNS:        int64(s.SimulatedLatency),
		})
	}

	verified := PaperOptions()
	verified.Verifier = r.Model(simllm.GPT3)
	for _, arm := range []struct {
		name string
		opts core.Options
	}{
		{"plain", PaperOptions()},
		{"verified-gpt3", verified},
		{"prompt-cache", chaosOptions(true)},
	} {
		rt, err := r.Runtime(r.Model(simllm.ChatGPT), arm.opts)
		if err != nil {
			t.Fatal(err)
		}
		e := rt.NewSession()
		for _, q := range spider.Queries() {
			record(arm.name, e, q.SQL)
		}
	}

	// The differential harness's stop-and-go arm: one runtime runs every
	// query (statistics feedback shapes later plans), LIMIT rows are kept.
	rt, err := r.Runtime(r.Model(simllm.ChatGPT), PaperOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := rt.NewSession()
	gen := difftest.New(42)
	for i := 0; i < 200; i++ {
		q := gen.Query()
		if !q.HasLimit {
			if _, _, err := e.Query(ctx, q.SQL); err != nil {
				t.Fatalf("difftest %d %q: %v", i, q.SQL, err)
			}
			continue
		}
		record("difftest-limit", e, q.SQL)
	}

	var b bytes.Buffer
	for _, rec := range got {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	path := filepath.Join("testdata", "stopandgo.jsonl")
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	gotLines := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d records, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("record %d drifted from %s:\n got: %s\nwant: %s", i, path, gotLines[i], wantLines[i])
		}
	}
}
