package core

import (
	"context"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/simllm"
	"repro/internal/world"
)

// TestQueryStreamMatchesQuery: the streaming session API yields exactly
// the buffered API's relation — same rows, same order, same prompt
// accounting — while making rows available at virtual times strictly
// before the whole relation's completion.
func TestQueryStreamMatchesQuery(t *testing.T) {
	w := world.Build()
	opts := DefaultOptions()
	opts.CacheEnabled = false
	const sql = `SELECT name, population FROM city WHERE population > 1000000`

	rel, rep, err := runtimeOver(t, simllm.New(simllm.ChatGPT, w, 1), opts, w).
		NewSession().Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}

	st, err := runtimeOver(t, simllm.New(simllm.ChatGPT, w, 1), opts, w).
		NewSession().QueryStream(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Schema().Len() != rel.Schema.Len() {
		t.Fatalf("stream schema %v, buffered %v", st.Schema(), rel.Schema)
	}

	var n int
	var firstVT, lastVT llm.VTime
	for {
		row, vt, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n >= len(rel.Rows) {
			t.Fatalf("stream yielded more than the buffered %d rows", len(rel.Rows))
		}
		for i, v := range rel.Rows[n] {
			if row[i].String() != v.String() {
				t.Fatalf("row %d = %v, buffered %v", n, row, rel.Rows[n])
			}
		}
		if n == 0 {
			firstVT = vt
		}
		lastVT = vt
		n++
	}
	if n != len(rel.Rows) {
		t.Fatalf("stream yielded %d rows, buffered %d", n, len(rel.Rows))
	}

	srep, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if srep.Stats.Prompts != rep.Stats.Prompts {
		t.Errorf("stream prompts = %d, buffered %d", srep.Stats.Prompts, rep.Stats.Prompts)
	}
	// The streaming property in simulated time: the first row's
	// availability precedes the relation's completion, and head-to-tail
	// availability is monotone.
	if firstVT <= 0 || firstVT >= srep.Stats.SimulatedLatency {
		t.Errorf("first row vt = %v, want within (0, %v)", firstVT, srep.Stats.SimulatedLatency)
	}
	if firstVT > lastVT {
		t.Errorf("vt not monotone: first %v > last %v", firstVT, lastVT)
	}
}

// TestStreamFinishBeforeEOF: Finish on a partly read stream must fail
// and leave no trace — no cached relation for the next Query to serve
// as the statement's exact result, no truncated counters in the
// optimizer statistics.
func TestStreamFinishBeforeEOF(t *testing.T) {
	w := world.Build()
	rt := runtimeOver(t, simllm.New(simllm.ChatGPT, w, 1), resultCacheOptions(), w)
	const sql = `SELECT name, population FROM city WHERE population > 1000000`
	want, _ := soloRun(t, w, sql)
	if want.Cardinality() < 2 {
		t.Fatalf("fixture vacuous: %d rows", want.Cardinality())
	}

	statsBefore := rt.stats.Snapshot()
	st, err := rt.NewSession().QueryStream(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	if rep, err := st.Finish(); err == nil {
		t.Fatalf("Finish before io.EOF succeeded: %+v", rep)
	}
	if !reflect.DeepEqual(rt.stats.Snapshot(), statsBefore) {
		t.Error("a truncated stream was observed into the optimizer statistics")
	}

	rel, rep, err := rt.NewSession().Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cached != CacheNone || rel.String() != want.String() {
		t.Errorf("query after a truncated Finish: cached=%q, %d rows, want a fresh %d-row execution",
			rep.Cached, rel.Cardinality(), want.Cardinality())
	}
}

// TestQueryStreamEarlyCloseHygiene: abandoning a stream mid-relation
// must leave the shared scheduler empty — no busy slots, no queued
// prompts — and the runtime must serve the next query normally.
func TestQueryStreamEarlyCloseHygiene(t *testing.T) {
	w := world.Build()
	opts := DefaultOptions()
	opts.CacheEnabled = false
	rt := runtimeOver(t, simllm.New(simllm.ChatGPT, w, 1), opts, w)

	st, err := rt.NewSession().QueryStream(context.Background(),
		`SELECT name, population FROM city WHERE population > 1000000`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	st.Close() // abandon with most of the relation unread

	// Close cancels the stream's context, which fails every queued
	// prompt immediately — but a slot whose prompt is already in flight
	// is non-preemptible and drains asynchronously. Poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for err := rt.sched.CheckQuiescent(); err != nil; err = rt.sched.CheckQuiescent() {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler state leaked after early close: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := rt.NewSession().Query(context.Background(),
		`SELECT name FROM country WHERE continent = 'Europe'`); err != nil {
		t.Fatalf("query after abandoned stream: %v", err)
	}
}
