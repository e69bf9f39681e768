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

// TestArtifacts runs every row of Artifacts once on ChatGPT, checks the
// report's acceptance criteria, and compares its encoding byte for byte
// with the committed BENCH_<name>.json at the repository root. Every
// harness is deterministic, so any difference is a behavior change.
// Regenerate after an intentional change with:
//
//	go test ./internal/bench -run TestArtifacts -update
func TestArtifacts(t *testing.T) {
	r := runner(t)
	ctx := context.Background()
	for _, a := range Artifacts {
		t.Run(a.Name, func(t *testing.T) {
			rep, err := a.Run(ctx, r, simllm.ChatGPT, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.CheckAcceptance(); err != nil {
				t.Errorf("acceptance criteria violated:\n%v", err)
			}
			path := filepath.Join("..", "..", "BENCH_"+a.Name+".json")
			if *update {
				if err := WriteArtifact(path, rep); err != nil {
					t.Fatal(err)
				}
				return
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
				t.Errorf("report drifted from %s (run with -update to accept):\n%s", path, firstDiff(got, want))
			}
		})
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
