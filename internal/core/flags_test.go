package core

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"
)

// TestBindFlags: every engine flag defaults to its field's current value,
// parsing sets exactly the named fields, and an unknown flag is an error.
func TestBindFlags(t *testing.T) {
	o := ServeOptions()
	o.Retries = -1
	o.RetryBackoff = 250 * time.Millisecond
	before := o // binding writes each default back into its field
	fs := flag.NewFlagSet("galois", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.BindFlags(fs)

	fields := map[string]any{
		"pushdown":           before.Optimizer.PromptPushdown,
		"costbased":          before.Optimizer.CostBased,
		"cache":              before.CacheEnabled,
		"cache-size":         before.CacheSize,
		"result-cache":       before.ResultCacheEnabled,
		"result-cache-size":  before.ResultCacheSize,
		"result-cache-bytes": before.ResultCacheBytes,
		"workers":            before.BatchWorkers,
		"retries":            before.Retries,
		"retry-backoff":      before.RetryBackoff,
		"prompt-timeout":     before.PromptTimeout,
		"breaker-threshold":  before.BreakerThreshold,
	}
	bound := 0
	fs.VisitAll(func(f *flag.Flag) {
		bound++
		v, ok := fields[f.Name]
		if !ok {
			t.Errorf("unexpected flag -%s", f.Name)
			return
		}
		if want := fmt.Sprint(v); f.DefValue != want {
			t.Errorf("-%s default = %q, want %q", f.Name, f.DefValue, want)
		}
	})
	if bound != len(fields) {
		t.Errorf("bound %d flags, want %d", bound, len(fields))
	}

	want := before
	want.CacheSize = 128
	want.ResultCacheSize = 16
	want.Optimizer.CostBased = false
	want.BatchWorkers = 3
	want.PromptTimeout = 2 * time.Second
	if err := fs.Parse([]string{"-cache-size", "128", "-result-cache-size", "16", "-costbased=false", "-workers", "3", "-prompt-timeout", "2s"}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, want) {
		t.Errorf("parsed options = %+v\nwant %+v", o, want)
	}

	if err := fs.Parse([]string{"-resilient=false"}); err == nil {
		t.Error("unknown flag -resilient parsed without error")
	}
}

// TestStoreConfigBindFlags: the durable-store flags set their fields and
// leave the rest alone.
func TestStoreConfigBindFlags(t *testing.T) {
	c := StoreConfig{SnapshotInterval: time.Minute}
	fs := flag.NewFlagSet("galois", flag.ContinueOnError)
	c.BindFlags(fs)
	if err := fs.Parse([]string{"-data-dir", "d", "-store-bytes", "4096", "-store-ttl", "1h"}); err != nil {
		t.Fatal(err)
	}
	want := StoreConfig{Dir: "d", MaxBytes: 4096, TTL: time.Hour, SnapshotInterval: time.Minute}
	if c != want {
		t.Errorf("parsed store config = %+v, want %+v", c, want)
	}
}
