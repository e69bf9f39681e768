package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/clean"
	"repro/internal/eval"
	"repro/internal/prompt"
	"repro/internal/qa"
	"repro/internal/simllm"
	"repro/internal/spider"
)

// The paper contract: Section 5's Table 1, Table 2 and latency note, the
// ablations of the engine's Section 4 and 6 choices and the Section 6
// explorations, each run once under PaperOptions and recorded beside the
// published numbers in BENCH_paper.json.

// PaperReport is the machine-readable paper record (BENCH_paper.json).
// Table 2, the ablations and the verification arm run on Model; Table 1
// and portability on every profile; the latency note and the
// more-results sweep on GPT-3, as the paper reports them; schema freedom
// on GPT-3 and on Model.
type PaperReport struct {
	Model         string                `json:"model"`
	Table1        []Table1Row           `json:"table1"`
	Table2        []Table2Row           `json:"table2"`
	Latency       LatencyStats          `json:"latency"`
	Pushdown      Ablation              `json:"pushdown"`
	Cleaning      Ablation              `json:"cleaning"`
	Joins         Ablation              `json:"joins"`
	MoreResults   Ablation              `json:"more_results"`
	Cache         Ablation              `json:"cache"`
	Verify        Ablation              `json:"verify"`
	Portability   []PortabilityCell     `json:"portability"`
	SchemaFreedom []SchemaFreedomResult `json:"schema_freedom"`
}

// PaperCell is one published number beside its reproduction.
type PaperCell struct {
	Paper    float64 `json:"paper"`
	Measured float64 `json:"measured"`
	Delta    float64 `json:"delta"` // Measured − Paper
}

func paperCell(paper, measured float64) PaperCell {
	return PaperCell{Paper: paper, Measured: measured, Delta: measured - paper}
}

// paper runs every experiment of the paper contract once, with p as the
// model of Table 2 and the ablations.
func (r *Runner) paper(ctx context.Context, p simllm.Profile) (*PaperReport, error) {
	// One scored corpus pass per profile serves Table 1, Table 2's R_M,
	// the latency note, portability, and on p the cleaning-on and
	// unverified arms.
	passes := map[string][]scoredOutcome{}
	for _, prof := range simllm.AllProfiles() {
		rt, err := r.Runtime(r.Model(prof), PaperOptions())
		if err != nil {
			return nil, err
		}
		if passes[prof.ID], err = r.scoredPass(ctx, rt, spider.Queries(), prof.ID); err != nil {
			return nil, err
		}
	}
	rep := &PaperReport{
		Model:         p.ID,
		Table1:        table1(passes),
		Latency:       latency(simllm.GPT3.ID, passes[simllm.GPT3.ID]),
		Portability:   r.portability(passes),
		SchemaFreedom: make([]SchemaFreedomResult, 2),
	}
	paper := passes[p.ID]
	for _, step := range []func() error{
		func() (err error) { rep.Table2, err = r.table2(ctx, p, paper); return err },
		func() (err error) { rep.Pushdown, err = r.ablationPushdown(ctx, p); return err },
		func() (err error) { rep.Cleaning, err = r.ablationCleaning(ctx, p, paper); return err },
		func() (err error) { rep.Joins, err = r.ablationJoinFormats(ctx, p); return err },
		func() (err error) { rep.MoreResults, err = r.ablationMoreResults(ctx, simllm.GPT3); return err },
		func() (err error) { rep.Cache, err = r.ablationCache(ctx, p); return err },
		func() (err error) { rep.Verify, err = r.ablationVerification(ctx, p, simllm.GPT3, paper); return err },
		func() (err error) { rep.SchemaFreedom[0], err = r.schemaFreedom(ctx, simllm.GPT3); return err },
		func() (err error) { rep.SchemaFreedom[1], err = r.schemaFreedom(ctx, p); return err },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// CheckAcceptance enforces the shape of the paper's evaluation: the
// Table 1 ordering of the models, the Table 2 claims on ChatGPT, tens of
// skewed prompts and seconds per query, and the direction of every
// ablation and Section 6 exploration. Each violation names its band, the
// report field it reads, before a colon.
func (rep *PaperReport) CheckAcceptance() error {
	var v violations
	check := v.check

	// Table 1: small models miss roughly half the rows, GPT-3 is
	// near-perfect, ChatGPT sits in between.
	card := map[string]float64{}
	for _, row := range rep.Table1 {
		card[row.Model] = row.CardDiff.Measured
		check(row.Queries == 46, "table1: %s measured on %d queries, want 46", row.Model, row.Queries)
	}
	check(card["flan"] < -35, "table1: flan should miss a large fraction of rows, got %+.1f", card["flan"])
	check(card["tk"] < -30, "table1: tk should miss a large fraction of rows, got %+.1f", card["tk"])
	check(math.Abs(card["gpt3"]) <= 10, "table1: gpt3 should be near 0, got %+.1f", card["gpt3"])
	check(card["chatgpt"] < -10 && card["chatgpt"] > -35, "table1: chatgpt should sit between the small models and gpt3, got %+.1f", card["chatgpt"])
	check(card["flan"] <= card["tk"]+5 && card["tk"] < card["chatgpt"] && card["chatgpt"] < card["gpt3"],
		"table1: ordering flan <= tk < chatgpt < gpt3 violated: %v", card)

	// Table 2: Galois beats both QA baselines overall, selections >>
	// aggregates >> joins ~ 0, and the fixed CoT prompt does not beat
	// plain QA (Section 5).
	rm, tm, tmc := rep.Table2[0], rep.Table2[1], rep.Table2[2]
	check(rm.All.Measured > tm.All.Measured, "table2: Galois (%.1f) must beat plain QA (%.1f) overall", rm.All.Measured, tm.All.Measured)
	check(rm.All.Measured > tmc.All.Measured, "table2: Galois (%.1f) must beat CoT QA (%.1f) overall", rm.All.Measured, tmc.All.Measured)
	check(rm.Selections.Measured > rm.Aggregates.Measured && rm.Aggregates.Measured > rm.Joins.Measured,
		"table2: class ordering violated for R_M: %.1f/%.1f/%.1f", rm.Selections.Measured, rm.Aggregates.Measured, rm.Joins.Measured)
	check(rm.Joins.Measured <= 10, "table2: joins fail on ChatGPT (surface-form mismatches), got %.1f", rm.Joins.Measured)
	check(rm.Selections.Measured >= 60, "table2: selections are the easy class (paper: 80%%), got %.1f", rm.Selections.Measured)
	check(tmc.All.Measured <= tm.All.Measured, "table2: the fixed CoT prompt should not beat plain QA overall (paper: 41 vs 44), got %.1f vs %.1f", tmc.All.Measured, tm.All.Measured)
	check(tmc.Joins.Measured <= 1, "table2: CoT joins are 0 in the paper, got %.1f", tmc.Joins.Measured)

	// The latency note: tens of prompts per query, skewed, and seconds of
	// simulated latency.
	l := rep.Latency
	check(l.AvgPrompts >= 10, "latency: avg prompts = %.0f, expected tens per query", l.AvgPrompts)
	check(l.MaxPrompts >= int(2*l.AvgPrompts), "latency: distribution should be skewed: max %d vs avg %.0f", l.MaxPrompts, l.AvgPrompts)
	check(l.AvgSimLatencyMS >= 1000, "latency: simulated latency = %.0f ms, expected seconds per query", l.AvgSimLatencyMS)

	// Pushdown slashes prompts without collapsing accuracy.
	staged, merged := rep.Pushdown.Arms[0], rep.Pushdown.Arms[1]
	check(merged.AvgPrompts < staged.AvgPrompts/3, "pushdown: should cut prompts hard: %.1f vs %.1f", merged.AvgPrompts, staged.AvgPrompts)
	check(merged.CellMatch >= staged.CellMatch-20, "pushdown: accuracy collapsed: %.1f vs %.1f", merged.CellMatch, staged.CellMatch)

	// Cleaning helps (Section 4: "a simple but crucial step").
	on, off := rep.Cleaning.Arms[0], rep.Cleaning.Arms[1]
	check(on.CellMatch > off.CellMatch, "cleaning: must help: on=%.1f off=%.1f", on.CellMatch, off.CellMatch)

	// Canonicalizing surface forms repairs the broken joins.
	raw, canon := rep.Joins.Arms[0], rep.Joins.Arms[1]
	check(raw.CellMatch <= 15, "joins: raw joins should be near zero, got %.1f", raw.CellMatch)
	check(canon.CellMatch >= raw.CellMatch+20, "joins: canonicalization should repair joins: %.1f vs %.1f", canon.CellMatch, raw.CellMatch)

	// One more-results iteration truncates hard; more budget never hurts.
	more := func(n int) float64 { return rep.MoreResults.Arms[slices.Index(moreResultsSweep, n)].CellMatch }
	check(more(1) < more(4), "more_results: one iteration must truncate hard: %.1f vs %.1f", more(1), more(4))
	check(more(12) >= more(4)-5, "more_results: more budget must not hurt: %.1f vs %.1f", more(12), more(4))

	// The prompt cache cuts issued calls without changing a result.
	cOff, cOn := rep.Cache.Arms[0], rep.Cache.Arms[1]
	check(cOff.AvgPrompts > 0, "cache: cache-off arm issued no prompts: %+v", cOff)
	check(cOn.AvgPrompts < 0.8*cOff.AvgPrompts, "cache: must measurably cut prompts/query: on=%.1f off=%.1f", cOn.AvgPrompts, cOff.AvgPrompts)
	check(math.Abs(cOn.CellMatch-cOff.CellMatch) <= 0.01, "cache: must not change results: on=%.2f off=%.2f", cOn.CellMatch, cOff.CellMatch)
	check(math.Abs(cOn.CardDiff-cOff.CardDiff) <= 0.01, "cache: must not change cardinality: on=%.2f off=%.2f", cOn.CardDiff, cOff.CardDiff)

	// Verification runs and spends extra prompts.
	plain, verified := rep.Verify.Arms[0], rep.Verify.Arms[1]
	check(verified.AvgPrompts > plain.AvgPrompts, "verify: verification must issue extra prompts: %.1f vs %.1f", verified.AvgPrompts, plain.AvgPrompts)

	// Portability: every pair agrees somewhere and disagrees somewhere,
	// and the big models agree more with each other.
	pair := map[string]float64{}
	for _, c := range rep.Portability {
		pair[c.ModelA+"/"+c.ModelB] = c.Overlap
		check(c.Overlap < 100, "portability: %s vs %s overlap %.1f — models must disagree somewhere", c.ModelA, c.ModelB, c.Overlap)
		check(c.Overlap > 0, "portability: %s vs %s overlap %.1f — models must agree somewhere", c.ModelA, c.ModelB, c.Overlap)
	}
	check(pair["flan/gpt3"] < pair["gpt3/chatgpt"], "portability: big models should agree more with each other (flan/gpt3=%.1f, gpt3/chatgpt=%.1f)",
		pair["flan/gpt3"], pair["gpt3/chatgpt"])

	// Schema freedom on GPT-3: the two formulations are close but not
	// equivalent.
	sf := rep.SchemaFreedom[0]
	check(sf.Q1Rows != 0 && sf.Q2Rows != 0, "schema_freedom: both formulations must return rows: %+v", sf)
	check(sf.MutualOverlap >= 20, "schema_freedom: formulations should agree substantially (same beliefs), got %.1f%%", sf.MutualOverlap)
	check(sf.MutualOverlap < 100, "schema_freedom: perfect equivalence is not expected over an LLM, got %.1f%%", sf.MutualOverlap)
	return errors.Join(v...)
}

// ----------------------------------------------------------------- Table 1

// Table1Row is one model's cardinality result.
type Table1Row struct {
	Model string `json:"model"`
	// CardDiff is the average cardinality difference 1−f in %, R_M
	// against |R_D| (paper: Flan −47.4 … GPT-3 +1.0).
	CardDiff PaperCell `json:"card_diff_pct"`
	Queries  int       `json:"queries"` // queries with non-empty ground truth
}

// table1Paper holds the published Table 1.
var table1Paper = map[string]float64{"flan": -47.4, "tk": -43.7, "gpt3": 1.0, "chatgpt": -19.5}

// table1 is the cardinality experiment over every profile's corpus pass.
func table1(passes map[string][]scoredOutcome) []Table1Row {
	var rows []Table1Row
	for _, p := range simllm.AllProfiles() {
		_, card, _ := summarize(passes[p.ID])
		queries := 0
		for _, s := range passes[p.ID] {
			if s.truth.Cardinality() > 0 {
				queries++
			}
		}
		rows = append(rows, Table1Row{Model: p.ID, CardDiff: paperCell(table1Paper[p.ID], card), Queries: queries})
	}
	return rows
}

// ----------------------------------------------------------------- Table 2

// Table2Row is one method's cell-match percentages per query class.
type Table2Row struct {
	Method     string    `json:"method"` // "R_M", "T_M", "T_M^C"
	All        PaperCell `json:"all"`
	Selections PaperCell `json:"selections"`
	Aggregates PaperCell `json:"aggregates"`
	Joins      PaperCell `json:"joins"`
}

// table2Paper holds the published Table 2 (ChatGPT): All, Selections,
// Aggregates and Joins per method.
var table2Paper = map[string][4]float64{
	"R_M":   {50, 80, 29, 0},
	"T_M":   {44, 71, 20, 8},
	"T_M^C": {41, 71, 13, 0},
}

// table2 is the content experiment on one model: galois, its corpus
// pass, is R_M, and the same model answers the corpus's questions as T_M
// and T_M^C.
func (r *Runner) table2(ctx context.Context, p simllm.Profile, galois []scoredOutcome) ([]Table2Row, error) {
	model := r.Model(p)
	cellOpts := r.CellOptions()
	builder := prompt.NewBuilder()
	cleaner := clean.New(PaperOptions().Clean)

	// method holds each method's cell matches: all queries, selections,
	// aggregates and joins.
	method := map[string]*[4][]float64{"R_M": {}, "T_M": {}, "T_M^C": {}}
	column := map[spider.Class]int{spider.ClassSelection: 1, spider.ClassAggregate: 2, spider.ClassJoin: 3}
	record := func(name string, class spider.Class, pct float64) {
		a := method[name]
		a[0] = append(a[0], pct)
		if c, ok := column[class]; ok {
			a[c] = append(a[c], pct)
		}
	}
	for i, q := range spider.Queries() {
		truth := galois[i].truth
		record("R_M", q.Class, galois[i].cell)

		// (c) plain QA and (d) QA with chain of thought.
		for _, m := range []struct {
			name string
			cot  bool
		}{{"T_M", false}, {"T_M^C", true}} {
			res, err := qa.Ask(ctx, model, builder, q.NL, truth.Schema, cleaner, m.cot)
			if err != nil {
				return nil, fmt.Errorf("bench: %s on query %d: %w", m.name, q.ID, err)
			}
			record(m.name, q.Class, eval.MatchContent(truth, res.Relation, cellOpts).Percent())
		}
	}

	var out []Table2Row
	for _, name := range []string{"R_M", "T_M", "T_M^C"} {
		row := Table2Row{Method: name}
		for c, cell := range []*PaperCell{&row.All, &row.Selections, &row.Aggregates, &row.Joins} {
			*cell = paperCell(table2Paper[name][c], eval.Mean(method[name][c]))
		}
		out = append(out, row)
	}
	return out, nil
}

// ----------------------------------------------------------- latency note

// LatencyStats summarizes the prompt-count/latency observation in
// Section 5 (~110 batched prompts, ~20 s per query on GPT-3).
type LatencyStats struct {
	Model           string  `json:"model"`
	Queries         int     `json:"queries"`
	AvgPrompts      float64 `json:"avg_prompts"`
	MaxPrompts      int     `json:"max_prompts"`
	AvgSimLatencyMS float64 `json:"avg_simulated_latency_ms"`
	PaperAvgPrompts float64 `json:"paper_avg_prompts"`
	PaperLatencyMS  float64 `json:"paper_avg_latency_ms"`
}

// latency is the prompt counts and simulated latency of one model's
// corpus pass.
func latency(model string, pass []scoredOutcome) LatencyStats {
	_, _, avg := summarize(pass)
	stats := LatencyStats{Model: model, Queries: len(pass), AvgPrompts: avg, PaperAvgPrompts: 110, PaperLatencyMS: 20000}
	var total time.Duration
	for _, s := range pass {
		stats.MaxPrompts = max(stats.MaxPrompts, s.prompts)
		total += s.makespan
	}
	stats.AvgSimLatencyMS = ms(total) / float64(len(pass))
	return stats
}
