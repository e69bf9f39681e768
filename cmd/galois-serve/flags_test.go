package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/optimizer"
)

// TestParseFlags: the argument lists the repository benchmark starts the
// server with (benchmark/workload.go, serverFlags) yield the engine
// options and store configuration written out below.
func TestParseFlags(t *testing.T) {
	defaults := core.Options{
		Optimizer:          optimizer.Options{PushdownPredicates: true, UseLLMFilter: true, CostBased: true},
		Clean:              clean.Options{NormalizeNumbers: true, EnforceTypes: true},
		MaxScanIterations:  12,
		BatchWorkers:       8,
		Pipelined:          true,
		CacheEnabled:       true,
		CacheSize:          4096,
		ResultCacheEnabled: true,
		ResultCacheSize:    256,
		DefaultSource:      "LLM",
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
		if want := (serverConfig{maxConcurrent: 16}); c.server != want {
			t.Errorf("%v: server = %+v, want %+v", tc.args, c.server, want)
		}
	}
}
