package main

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/serve"
)

// TestParseFlags: the argument lists the repository benchmark starts the
// server with (benchmark/workload.go, serverFlags) yield the engine
// options and store configuration written out below.
func TestParseFlags(t *testing.T) {
	defaults := core.Options{
		Optimizer:          optimizer.Options{PushdownPredicates: true, CostBased: true},
		Clean:              clean.Options{Normalize: true},
		MaxScanIterations:  12,
		BatchWorkers:       8,
		Pipelined:          true,
		CacheEnabled:       true,
		CacheSize:          4096,
		ResultCacheEnabled: true,
		ResultCacheSize:    256,
	}
	small := defaults
	small.CacheSize = 128
	small.ResultCacheSize = 16

	cases := []struct {
		args  []string
		opts  core.Options
		store core.StoreConfig
	}{
		{[]string{"-addr", "A"}, defaults, core.StoreConfig{SnapshotInterval: time.Minute}},
		{[]string{"-addr", "A", "-cache-size", "128", "-result-cache-size", "16"}, small, core.StoreConfig{SnapshotInterval: time.Minute}},
		{[]string{"-addr", "A", "-config", "galois.yaml", "-data-dir", "D"}, defaults, core.StoreConfig{Dir: "D", SnapshotInterval: time.Minute}},
	}
	for _, tc := range cases {
		c, err := parseFlags(tc.args)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if c.addr != "A" || c.model != "chatgpt" || c.seed != 1 {
			t.Errorf("%v: addr %q model %q seed %d", tc.args, c.addr, c.model, c.seed)
		}
		if !reflect.DeepEqual(c.opts, tc.opts) {
			t.Errorf("%v: options = %+v\nwant %+v", tc.args, c.opts, tc.opts)
		}
		if c.store != tc.store {
			t.Errorf("%v: store = %+v, want %+v", tc.args, c.store, tc.store)
		}
		if want := (serve.Config{MaxConcurrent: 16}); c.server != want {
			t.Errorf("%v: server = %+v, want %+v", tc.args, c.server, want)
		}
	}
}

// TestNewHTTPServerDeadlines: the listener bounds how long a client may
// take over its request headers, and sets no whole-request read deadline
// (one would cancel a long streamed query's context).
func TestNewHTTPServerDeadlines(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != serve.StallTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, serve.StallTimeout)
	}
	if srv.ReadTimeout != 0 {
		t.Errorf("ReadTimeout = %v, want none", srv.ReadTimeout)
	}
}

// TestServeWritesProfiles: a server started with -cpuprofile and
// -memprofile writes both profiles, gzipped pprof data, when it drains.
func TestServeWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	c, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-cpuprofile", cpu, "-memprofile", mem})
	if err != nil {
		t.Fatal(err)
	}
	ctx, drain := context.WithCancel(context.Background())
	drain() // drain as soon as the server is up
	if err := run(ctx, c); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, not a gzipped profile", filepath.Base(path), len(b))
		}
	}
}
