package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/simllm"
	"repro/internal/spider"
	"repro/internal/value"
)

// The experiments in this file explore three research directions from
// Section 6 that the paper raises but does not evaluate: portability
// across models, verification of answers with a second model ("Knowledge
// of the Unknown"), and schema-less query equivalence.

// PortabilityCell is one pair of models' average mutual result overlap.
type PortabilityCell struct {
	ModelA, ModelB string
	Overlap        float64 // avg symmetric cell overlap % across the corpus
}

// Portability runs the corpus on every pair of models and measures how
// much their results agree — Section 6: "the same prompt does not give
// equivalent results across LLMs". Overlap of a pair is the mean of
// matching A's result against B's and vice versa.
func (r *Runner) Portability(ctx context.Context, profiles []simllm.Profile, opts core.Options) ([]PortabilityCell, error) {
	results := map[string][]*schema.Relation{}
	for _, p := range profiles {
		rt, err := r.Runtime(r.Model(p), opts)
		if err != nil {
			return nil, err
		}
		sess := rt.NewSession()
		for _, q := range spider.Queries() {
			rel, _, err := sess.Query(ctx, q.SQL)
			if err != nil {
				return nil, fmt.Errorf("bench: portability %s query %d: %w", p.ID, q.ID, err)
			}
			results[p.ID] = append(results[p.ID], rel)
		}
	}
	cellOpts := r.CellOptions()
	var out []PortabilityCell
	for i := 0; i < len(profiles); i++ {
		for j := i + 1; j < len(profiles); j++ {
			a, b := profiles[i].ID, profiles[j].ID
			var overlaps []float64
			for k := range results[a] {
				ab := eval.MatchContent(results[a][k], results[b][k], cellOpts).Percent()
				ba := eval.MatchContent(results[b][k], results[a][k], cellOpts).Percent()
				overlaps = append(overlaps, (ab+ba)/2)
			}
			out = append(out, PortabilityCell{ModelA: a, ModelB: b, Overlap: eval.Mean(overlaps)})
		}
	}
	return out, nil
}

// SchemaFreedomResult compares two SQL formulations of the same
// information need: Q1 joins two LLM relations, Q2 asks one denormalized
// relation with a derived attribute (the Section 6 schema-less example).
type SchemaFreedomResult struct {
	Q1Rows, Q2Rows int
	// MutualOverlap is the symmetric cell overlap % between the two
	// results (100 = the equivalence property holds).
	MutualOverlap float64
	// Q1Truth and Q2Truth score each formulation against the ground
	// truth.
	Q1Truth, Q2Truth float64
}

const (
	schemaFreeQ1 = `SELECT c.name, m.birth_date FROM city c, mayor m WHERE c.mayor = m.name`
	schemaFreeQ2 = `SELECT name, mayor_birth_date FROM city`
)

// SchemaFreedom executes both formulations on one model and measures how
// close they come to the equivalence a DBMS would guarantee.
func (r *Runner) SchemaFreedom(ctx context.Context, p simllm.Profile, opts core.Options) (*SchemaFreedomResult, error) {
	model := r.Model(p)

	// Q1: the explicit join over the declared schema.
	rt1, err := r.Runtime(model, opts)
	if err != nil {
		return nil, err
	}
	q1, _, err := rt1.NewSession().Query(ctx, schemaFreeQ1)
	if err != nil {
		return nil, fmt.Errorf("bench: schema-free Q1: %w", err)
	}

	// Q2: a user-declared denormalized schema with the derived attribute;
	// the LLM has no schema, so this is an equally valid formulation.
	rt2 := core.NewRuntime(model, opts)
	flatCity := &schema.TableDef{
		Name:      "city",
		KeyColumn: "name",
		Schema: schema.New(
			schema.Column{Name: "name", Type: value.KindString},
			schema.Column{Name: "mayor_birth_date", Type: value.KindDate},
		),
	}
	if err := rt2.BindLLMTable(flatCity); err != nil {
		return nil, err
	}
	q2, _, err := rt2.NewSession().Query(ctx, schemaFreeQ2)
	if err != nil {
		return nil, fmt.Errorf("bench: schema-free Q2: %w", err)
	}

	truth, err := r.GroundTruth(ctx, schemaFreeQ1)
	if err != nil {
		return nil, err
	}

	cellOpts := r.CellOptions()
	ab := eval.MatchContent(q1, q2, cellOpts).Percent()
	ba := eval.MatchContent(q2, q1, cellOpts).Percent()
	return &SchemaFreedomResult{
		Q1Rows:        q1.Cardinality(),
		Q2Rows:        q2.Cardinality(),
		MutualOverlap: (ab + ba) / 2,
		Q1Truth:       eval.MatchContent(truth, q1, cellOpts).Percent(),
		Q2Truth:       eval.MatchContent(truth, q2, cellOpts).Percent(),
	}, nil
}

// AblationVerification measures the effect of double-checking every
// fetched value with a second model (Section 6, "Knowledge of the
// Unknown": "verification is easier than generation"). It reports the
// corpus with and without a GPT-3 verifier over the primary model.
func (r *Runner) AblationVerification(ctx context.Context, primary, verifier simllm.Profile) ([]AblationRow, error) {
	queries := spider.Queries()

	plain := PaperOptions()
	verified := PaperOptions()
	verified.Verifier = r.Model(verifier)

	a, err := r.runConfig(ctx, primary, plain, queries, "unverified")
	if err != nil {
		return nil, err
	}
	b, err := r.runConfig(ctx, primary, verified, queries, "verified-by-"+verifier.ID)
	if err != nil {
		return nil, err
	}
	return []AblationRow{a, b}, nil
}
