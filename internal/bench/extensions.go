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
	ModelA  string  `json:"model_a"`
	ModelB  string  `json:"model_b"`
	Overlap float64 `json:"overlap_pct"` // avg symmetric cell overlap % across the corpus
}

// portability measures how much every pair of models' corpus passes
// agree — Section 6: "the same prompt does not give equivalent results
// across LLMs". Overlap of a pair is the mean of matching A's result
// against B's and vice versa.
func (r *Runner) portability(passes map[string][]scoredOutcome) []PortabilityCell {
	profiles := simllm.AllProfiles()
	cellOpts := r.CellOptions()
	var out []PortabilityCell
	for i := 0; i < len(profiles); i++ {
		for j := i + 1; j < len(profiles); j++ {
			a, b := profiles[i].ID, profiles[j].ID
			var overlaps []float64
			for k := range passes[a] {
				ab := eval.MatchContent(passes[a][k].relation, passes[b][k].relation, cellOpts).Percent()
				ba := eval.MatchContent(passes[b][k].relation, passes[a][k].relation, cellOpts).Percent()
				overlaps = append(overlaps, (ab+ba)/2)
			}
			out = append(out, PortabilityCell{ModelA: a, ModelB: b, Overlap: eval.Mean(overlaps)})
		}
	}
	return out
}

// SchemaFreedomResult compares two SQL formulations of the same
// information need: Q1 joins two LLM relations, Q2 asks one denormalized
// relation with a derived attribute (the Section 6 schema-less example).
type SchemaFreedomResult struct {
	Model  string `json:"model"`
	Q1Rows int    `json:"q1_rows"`
	Q2Rows int    `json:"q2_rows"`
	// MutualOverlap is the symmetric cell overlap % between the two
	// results (100 = the equivalence property holds).
	MutualOverlap float64 `json:"mutual_overlap_pct"`
	// Q1Truth and Q2Truth score each formulation against the ground
	// truth.
	Q1Truth float64 `json:"q1_truth_pct"`
	Q2Truth float64 `json:"q2_truth_pct"`
}

const (
	schemaFreeQ1 = `SELECT c.name, m.birth_date FROM city c, mayor m WHERE c.mayor = m.name`
	schemaFreeQ2 = `SELECT name, mayor_birth_date FROM city`
)

// schemaFreedom executes both formulations on one model and measures how
// close they come to the equivalence a DBMS would guarantee.
func (r *Runner) schemaFreedom(ctx context.Context, p simllm.Profile) (SchemaFreedomResult, error) {
	model := r.Model(p)
	opts := PaperOptions()

	// Q1: the explicit join over the declared schema.
	rt1, err := r.Runtime(model, opts)
	if err != nil {
		return SchemaFreedomResult{}, err
	}
	scored, err := r.scoredPass(ctx, rt1, []spider.Query{{SQL: schemaFreeQ1}}, "schema-free Q1")
	if err != nil {
		return SchemaFreedomResult{}, err
	}
	q1, truth := scored[0].relation, scored[0].truth

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
		return SchemaFreedomResult{}, err
	}
	q2, _, err := rt2.NewSession().Query(ctx, schemaFreeQ2)
	if err != nil {
		return SchemaFreedomResult{}, fmt.Errorf("bench: schema-free Q2: %w", err)
	}

	cellOpts := r.CellOptions()
	ab := eval.MatchContent(q1, q2, cellOpts).Percent()
	ba := eval.MatchContent(q2, q1, cellOpts).Percent()
	return SchemaFreedomResult{
		Model:         p.ID,
		Q1Rows:        q1.Cardinality(),
		Q2Rows:        q2.Cardinality(),
		MutualOverlap: (ab + ba) / 2,
		Q1Truth:       scored[0].cell,
		Q2Truth:       eval.MatchContent(truth, q2, cellOpts).Percent(),
	}, nil
}

// ablationVerification measures the effect of double-checking every
// fetched value with a second model (Section 6, "Knowledge of the
// Unknown": "verification is easier than generation"). It reports the
// corpus with and without the verifier over the primary model. paper is
// the primary's corpus pass under PaperOptions: the unverified arm.
func (r *Runner) ablationVerification(ctx context.Context, primary, verifier simllm.Profile, paper []scoredOutcome) (Ablation, error) {
	return r.ablation(ctx, primary, spider.Queries(),
		ablationArm{label: "unverified", pass: paper},
		ablationArm{label: "verified-by-" + verifier.ID, opts: PaperOptions(), verifier: &verifier})
}
