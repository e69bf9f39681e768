package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFailedFinalFlushFails: a one-shot run over -data-dir whose final
// flush fails exits with an error, not silently, because the next run
// would pay again for everything this one learned.
func TestFailedFinalFlushFails(t *testing.T) {
	dir := t.TempDir()
	// A fresh store's final compaction writes its second segment; a
	// non-empty directory in its place makes that write fail.
	if err := os.MkdirAll(filepath.Join(dir, "seg-000002.log", "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	args, fs := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, fs }()
	flag.CommandLine = flag.NewFlagSet("galois", flag.ContinueOnError)
	os.Args = []string{"galois", "-data-dir", dir, "SELECT name FROM city WHERE population > 5000000"}

	err := run()
	if err == nil || !strings.Contains(err.Error(), "draining durable store") {
		t.Fatalf("run() = %v, want the failed final flush", err)
	}
}
