package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/simllm"
)

func runner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestArtifacts checks every row of Artifacts (checkArtifact), and that
// every BENCH_*.json at the repository root is a row's, so a deleted or
// renamed row leaves no committed file that nothing diffs. Every harness
// is deterministic, so any difference is a behavior change. Regenerate
// after an intentional change with:
//
//	go test ./internal/bench -run TestArtifacts -update
func TestArtifacts(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json")
		if !slices.ContainsFunc(Artifacts, func(a Artifact) bool { return a.Name == name }) {
			t.Errorf("%s has no Artifacts row: delete the file or add the row", f)
		}
	}
	for _, a := range Artifacts {
		t.Run(a.Name, func(t *testing.T) { checkArtifact(t, a) })
	}
}

// checkArtifact checks runs 1 and 2 of row a (artifactRun): both
// reports' acceptance criteria, and both encodings byte for byte against
// the committed BENCH_<name>.json at the repository root — so a run that
// differs from its twin fails even when it differs from nothing
// committed. With -update the first run rewrites the file and the second
// is compared with it.
func checkArtifact(t *testing.T, a Artifact) {
	t.Helper()
	path := filepath.Join("..", "..", "BENCH_"+a.Name+".json")
	for run := 1; run <= 2; run++ {
		rep := artifactRun(t, a, run)
		if err := rep.CheckAcceptance(); err != nil {
			t.Errorf("run %d: acceptance criteria violated:\n%v", run, err)
		}
		got, err := EncodeArtifact(rep)
		if err != nil {
			t.Fatal(err)
		}
		if *update && run == 1 {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
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

// runs holds every artifact run of the test binary, keyed by row name
// and run number.
var runs sync.Map // "<name>/<run>" -> *memoRun

type memoRun struct {
	once sync.Once
	rep  Report
	err  error
}

// artifactRun returns run n of row a on ChatGPT, made in a fresh runner
// and scratch directory the first time any test asks for it. The tests
// of one row share its two runs, so a row runs twice per test binary,
// whatever -count says.
func artifactRun(t *testing.T, a Artifact, n int) Report {
	t.Helper()
	v, _ := runs.LoadOrStore(fmt.Sprintf("%s/%d", a.Name, n), new(memoRun))
	m := v.(*memoRun)
	m.once.Do(func() {
		r, err := NewRunner(1)
		if err != nil {
			m.err = err
			return
		}
		dir, err := os.MkdirTemp("", "bench-"+a.Name+"-")
		if err != nil {
			m.err = err
			return
		}
		defer os.RemoveAll(dir)
		m.rep, m.err = a.Run(context.Background(), r, simllm.ChatGPT, dir)
	})
	if m.err != nil {
		t.Fatalf("%s run %d: %v", a.Name, n, m.err)
	}
	return m.rep
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
