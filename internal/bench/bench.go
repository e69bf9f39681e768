// Package bench wires the full reproduction together: it builds the
// synthetic world, loads the ground-truth DBMS, binds the LLM-side schema,
// and regenerates every experiment in the paper's evaluation (PAPER.md:
// Table 1, Table 2, the latency note), the ablations and Section 6
// explorations README describes, and the engine's own benchmarks, each
// as a committed BENCH_<name>.json artifact (Artifacts).
package bench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/clean"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/memdb"
	"repro/internal/schema"
	"repro/internal/simllm"
	"repro/internal/spider"
	"repro/internal/world"
)

// LLMTables lists the relations bound to the LLM side (everything except
// the DB-only employees table).
var LLMTables = []string{"country", "city", "mayor", "airport", "singer", "stadium", "mountain"}

// Runner holds the shared fixtures for one benchmark session.
type Runner struct {
	World *world.World
	DB    *memdb.DB
	Seed  int64
}

// NewRunner builds the world and the ground-truth database.
func NewRunner(seed int64) (*Runner, error) {
	w := world.Build()
	db := memdb.New()
	for _, name := range w.Tables() {
		t := w.Table(name)
		rel := w.Relation(name)
		if err := db.LoadRelation(t.Def, rel); err != nil {
			return nil, fmt.Errorf("bench: loading %s: %w", name, err)
		}
	}
	return &Runner{World: w, DB: db, Seed: seed}, nil
}

// Model instantiates a simulated model with the benchmark question bank
// registered.
func (r *Runner) Model(p simllm.Profile) *simllm.Model {
	m := simllm.New(p, r.World, r.Seed)
	m.RegisterQuestions(spider.QuestionBank())
	return m
}

// Runtime builds the shared engine tier over the model with the
// LLM-side schema bound and the ground-truth DB attached; callers open
// their sessions on it.
func (r *Runner) Runtime(client llm.Client, opts core.Options) (*core.Runtime, error) {
	return r.bind(core.NewRuntime(client, opts))
}

// verifiedRuntime builds the bench runtime over the primary model with
// Section 6 verification by verifier: the primary and the verifier are
// declared backends under their profile IDs, and the verify role routes
// to the verifier's. When both are one profile the primary verifies
// itself, on its own backend. A nil verifier builds the unverified
// Runtime.
func (r *Runner) verifiedRuntime(primary simllm.Profile, verifier *simllm.Profile, opts core.Options) (*core.Runtime, error) {
	if verifier == nil {
		return r.Runtime(r.Model(primary), opts)
	}
	defs := []core.BackendDef{{Name: primary.ID, Client: r.Model(primary)}}
	if verifier.ID != primary.ID {
		defs = append(defs, core.BackendDef{Name: verifier.ID, Client: r.Model(*verifier)})
	}
	rt, err := core.NewRuntimeWithBackends(defs, primary.ID, map[string]string{string(llm.RoleVerify): verifier.ID}, opts)
	if err != nil {
		return nil, err
	}
	return r.bind(rt)
}

// bind attaches the ground-truth DB to rt and binds the LLM-side schema.
func (r *Runner) bind(rt *core.Runtime) (*core.Runtime, error) {
	rt.AttachDB(r.DB)
	for _, name := range LLMTables {
		if err := rt.BindLLMTable(r.World.Table(name).Def); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// RuntimeFromConfig builds the multi-backend engine tier a -config file
// declares: one simulated model per backend (each with its own noise
// seed when the file sets one, the runner's seed otherwise), the
// default, the role routes and the failover chains, with the LLM-side
// schema bound and the ground-truth DB attached.
func (r *Runner) RuntimeFromConfig(cfg *config.Config, opts core.Options) (*core.Runtime, error) {
	defs := make([]core.BackendDef, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		profile, ok := simllm.ProfileByName(b.Model)
		if !ok {
			return nil, fmt.Errorf("bench: backend %q: unknown model %q", b.Name, b.Model)
		}
		seed := r.Seed
		if b.Seed != 0 {
			seed = b.Seed
		}
		m := simllm.New(profile, r.World, seed)
		m.RegisterQuestions(spider.QuestionBank())
		defs = append(defs, b.Spec(m))
	}
	rt, err := core.NewRuntimeWithBackends(defs, cfg.Default, cfg.Routes, opts)
	if err != nil {
		return nil, err
	}
	return r.bind(rt)
}

// RuntimeFor builds the runtime the CLIs' -model/-config pair selects:
// the backends configPath declares when it is set, the named simulated
// model otherwise. It also returns the one-line description of the
// model(s) the CLIs print.
func (r *Runner) RuntimeFor(model, configPath string, opts core.Options) (*core.Runtime, string, error) {
	if configPath == "" {
		profile, ok := simllm.ProfileByName(model)
		if !ok {
			return nil, "", fmt.Errorf("unknown model %q (want flan, tk, gpt3 or chatgpt)", model)
		}
		rt, err := r.Runtime(r.Model(profile), opts)
		return rt, fmt.Sprintf("%s (%s)", profile.DisplayName, profile.Params), err
	}
	cfg, err := config.Load(configPath)
	if err != nil {
		return nil, "", err
	}
	rt, err := r.RuntimeFromConfig(cfg, opts)
	names := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		names[i] = b.Name + "=" + b.Model
	}
	return rt, "routed: " + strings.Join(names, ", "), err
}

// GroundTruth executes a query on the DBMS (result b in Section 5).
func (r *Runner) GroundTruth(ctx context.Context, sql string) (*schema.Relation, error) {
	return r.DB.QuerySQL(ctx, sql)
}

// PaperOptions is the published configuration: the engine defaults with
// the prompt cache disabled (the paper's system had no prompt reuse) and
// the stop-and-go policy (each operator drains its input and issues one
// settled prompt wave, with latency summed across waves — the model
// behind the paper's ~20 s/query note). Experiments reproducing the
// paper's numbers run with these; the paper artifact's cache ablation
// and PipelineComparison measure the respective engine upgrades.
func PaperOptions() core.Options {
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	opts.Pipelined = false
	return opts
}

// CellOptions returns the content-matching configuration: 5% numeric
// tolerance plus the alias canonicalizer standing in for the paper's
// manual tuple mapping.
func (r *Runner) CellOptions() eval.CellOptions {
	return eval.CellOptions{
		NumericTolerance: 0.05,
		Canon:            clean.NewCanonicalizer(r.World.Aliases()),
	}
}
