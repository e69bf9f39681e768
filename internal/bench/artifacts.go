package bench

import (
	"context"
	"encoding/json"
	"os"

	"repro/internal/simllm"
)

// Report is a committed artifact's machine-readable record: it encodes to
// BENCH_<name>.json and checks its own acceptance criteria, returning
// every violation.
type Report interface {
	CheckAcceptance() error
}

// Artifact is one committed, deterministic benchmark artifact: row x
// regenerates BENCH_x.json at the repository root.
type Artifact struct {
	Name string
	// Run executes the harness on profile p. dir is an empty scratch
	// directory; only the persist harness writes to it. On error the
	// report is undefined.
	Run func(ctx context.Context, r *Runner, p simllm.Profile, dir string) (Report, error)
}

// Artifacts is the one list of committed artifacts. TestArtifacts checks
// every row against its committed file, make bench-artifacts regenerates
// them, and galois-bench -ablation <name> prints one.
var Artifacts = []Artifact{
	{"pipeline", func(ctx context.Context, r *Runner, p simllm.Profile, _ string) (Report, error) {
		return r.PipelineComparison(ctx, p, simllm.GPT3)
	}},
	{"optimizer", func(ctx context.Context, r *Runner, p simllm.Profile, _ string) (Report, error) {
		return r.OptimizerComparison(ctx, p)
	}},
	{"concurrency", func(ctx context.Context, r *Runner, p simllm.Profile, _ string) (Report, error) {
		return r.ConcurrencyComparison(ctx, p)
	}},
	{"chaos", func(ctx context.Context, r *Runner, p simllm.Profile, _ string) (Report, error) {
		return r.ChaosComparison(ctx, p)
	}},
	{"resultcache", func(ctx context.Context, r *Runner, p simllm.Profile, _ string) (Report, error) {
		return r.ResultCacheComparison(ctx, p)
	}},
	{"semcache", func(ctx context.Context, r *Runner, p simllm.Profile, _ string) (Report, error) {
		return r.SemanticCacheComparison(ctx, p)
	}},
	{"routing", func(ctx context.Context, r *Runner, p simllm.Profile, _ string) (Report, error) {
		return r.RoutingComparison(ctx, p)
	}},
	{"persist", func(ctx context.Context, r *Runner, p simllm.Profile, dir string) (Report, error) {
		return r.PersistComparison(ctx, p, dir)
	}},
	{"sched", func(ctx context.Context, r *Runner, p simllm.Profile, _ string) (Report, error) {
		return r.SchedComparison(ctx, p)
	}},
}

// EncodeArtifact renders a report exactly as its committed file holds it:
// two-space indented JSON and a trailing newline.
func EncodeArtifact(rep Report) ([]byte, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteArtifact writes a report to path as EncodeArtifact renders it.
func WriteArtifact(path string, rep Report) error {
	data, err := EncodeArtifact(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
