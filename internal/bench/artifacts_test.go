package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/simllm"
)

// TestArtifacts checks every row of Artifacts (checkArtifact). Every
// harness is deterministic, so any difference is a behavior change.
// Regenerate after an intentional change with:
//
//	go test ./internal/bench -run TestArtifacts -update
func TestArtifacts(t *testing.T) {
	for _, a := range Artifacts {
		t.Run(a.Name, func(t *testing.T) { checkArtifact(t, a) })
	}
}

// checkArtifact runs row a twice on ChatGPT, each time in a fresh runner
// and scratch directory, checks both reports' acceptance criteria, and
// compares both encodings byte for byte with the committed
// BENCH_<name>.json at the repository root — so a run that differs from
// its twin fails even when it differs from nothing committed. With
// -update the first run rewrites the file and the second is compared
// with it.
func checkArtifact(t *testing.T, a Artifact) {
	t.Helper()
	path := filepath.Join("..", "..", "BENCH_"+a.Name+".json")
	for run := 1; run <= 2; run++ {
		rep, err := a.Run(context.Background(), runner(t), simllm.ChatGPT, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.CheckAcceptance(); err != nil {
			t.Errorf("run %d: acceptance criteria violated:\n%v", run, err)
		}
		if *update && run == 1 {
			if err := WriteArtifact(path, rep); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := EncodeArtifact(rep)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing committed artifact (run with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("run %d: report drifted from %s (run with -update to accept):\n%s", run, path, firstDiff(got, want))
		}
	}
}

// firstDiff renders the first line on which got and want differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return ""
}
