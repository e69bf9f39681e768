package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/spider"
)

// The one arm runner every harness in this package uses: a pass runs a
// statement list on a runtime and keeps each statement's outcome, a
// differ compares two passes, an invalidation probe replays a pass after
// an epoch bump, and a scored pass measures each relation against the
// ground truth.

// queryOutcome is one statement's record in one pass.
type queryOutcome struct {
	relation *schema.Relation
	// rel is the relation rendered: what the differs compare.
	rel     string
	prompts int
	// makespan is the query-alone simulated wall-clock.
	makespan time.Duration
	// sched is the query's scheduler accounting (concurrent aggregation).
	sched *llm.TenantStats
	// cached reports how the result cache answered (cache-on arms only).
	cached core.CacheOutcome
	// estimate is the planner's predicted prompt count (0 without one).
	estimate float64
	err      error
}

// runQuery executes one query on a fresh session of rt in the given
// admission class and weight ("" keeps the runtime's defaults). A
// session holds only options and counters, so a fresh one per statement
// gives the same results as one session per corpus.
func runQuery(ctx context.Context, rt *core.Runtime, sql, class string, weight int) queryOutcome {
	sess := rt.NewSession()
	if class != "" {
		o := sess.Options()
		o.AdmissionClass = class
		o.AdmissionWeight = weight
		sess.SetOptions(o)
	}
	rel, rep, err := sess.Query(ctx, sql)
	if err != nil {
		return queryOutcome{err: fmt.Errorf("%q: %w", sql, err)}
	}
	out := queryOutcome{
		relation: rel,
		rel:      rel.String(),
		prompts:  rep.Stats.Prompts,
		makespan: rep.Stats.SimulatedLatency,
		sched:    rep.Sched,
		cached:   rep.Cached,
	}
	if rep.Estimate != nil {
		out.estimate = rep.Estimate.Prompts
	}
	return out
}

// runPass runs stmts in order on rt and keeps every outcome, failed ones
// included. before, when non-nil, runs before statement i.
func runPass(ctx context.Context, rt *core.Runtime, stmts []string, before func(i int)) []queryOutcome {
	outs := make([]queryOutcome, len(stmts))
	for i, sql := range stmts {
		if before != nil {
			before(i)
		}
		outs[i] = runQuery(ctx, rt, sql, "", 0)
	}
	return outs
}

// cleanPass is runPass for arms in which every statement must succeed:
// it returns the first failure, prefixed with what.
func cleanPass(ctx context.Context, rt *core.Runtime, stmts []string, what string) ([]queryOutcome, error) {
	outs := runPass(ctx, rt, stmts, nil)
	for _, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("bench: %s: %w", what, o.err)
		}
	}
	return outs, nil
}

// corpusSQL is the corpus's statements in corpus order.
func corpusSQL() []string { return sqlOf(spider.Queries()) }

// sqlOf is the statements of queries, in order.
func sqlOf(queries []spider.Query) []string {
	stmts := make([]string, len(queries))
	for i, q := range queries {
		stmts[i] = q.SQL
	}
	return stmts
}

// totals sums a pass's prompts and simulated makespans.
func totals(outs []queryOutcome) (prompts int, makespan time.Duration) {
	for _, o := range outs {
		prompts += o.prompts
		makespan += o.makespan
	}
	return prompts, makespan
}

// ms renders a duration in (fractional) milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// passDiff is the differential of one pass against a baseline pass.
type passDiff struct {
	// rels: every relation rendered identically.
	rels bool
	// prompts: every statement issued as many prompts.
	prompts bool
	// makespan: every statement's simulated makespan is identical.
	makespan bool
	// failed counts the statements that failed in the compared pass.
	failed int
}

// diffPasses compares got against the baseline pass want statement by
// statement. A statement that failed in got has nothing to compare; it
// is counted instead.
func diffPasses(want, got []queryOutcome) passDiff {
	d := passDiff{rels: true, prompts: true, makespan: true}
	for i, o := range got {
		if o.err != nil {
			d.failed++
			continue
		}
		d.rels = d.rels && o.rel == want[i].rel
		d.prompts = d.prompts && o.prompts == want[i].prompts
		d.makespan = d.makespan && o.makespan == want[i].makespan
	}
	return d
}

// probeInvalidation replays stmts on rt after the caller bumped one
// component's epoch and compares the replay with want, a pass from
// before the bump. classify reports whether statement i is counted (the
// prompt checks apply to it: the result cache stores it) and whether it
// reads the bumped component. reexecuted: the first counted reader paid
// prompts (later readers may be subsumed by relations the replay itself
// repopulates). retained: every counted non-reader still cost zero
// prompts. identical: every relation matches want.
func probeInvalidation(ctx context.Context, rt *core.Runtime, stmts []string, want []queryOutcome, classify func(i int) (counted, reads bool), what string) (reexecuted, retained, identical bool, err error) {
	got, err := cleanPass(ctx, rt, stmts, what)
	if err != nil {
		return false, false, false, err
	}
	retained, identical = true, diffPasses(want, got).rels
	probedFirst := false
	for i, o := range got {
		counted, reads := classify(i)
		switch {
		case !counted:
		case reads && !probedFirst:
			probedFirst = true
			reexecuted = o.prompts > 0
		case !reads && o.prompts != 0:
			retained = false
		}
	}
	return reexecuted, retained, identical, nil
}

// scoredOutcome is one statement's outcome measured against the ground
// truth.
type scoredOutcome struct {
	queryOutcome
	truth *schema.Relation
	// cell is the cell-match percentage against the ground truth.
	cell float64
}

// scoredPass runs queries on rt and scores each relation against
// GroundTruth; every statement must succeed.
func (r *Runner) scoredPass(ctx context.Context, rt *core.Runtime, queries []spider.Query, what string) ([]scoredOutcome, error) {
	outs, err := cleanPass(ctx, rt, sqlOf(queries), what)
	if err != nil {
		return nil, err
	}
	cellOpts := r.CellOptions()
	scored := make([]scoredOutcome, len(outs))
	for i, o := range outs {
		truth, err := r.GroundTruth(ctx, queries[i].SQL)
		if err != nil {
			return nil, fmt.Errorf("bench: ground truth for query %d: %w", queries[i].ID, err)
		}
		scored[i] = scoredOutcome{
			queryOutcome: o,
			truth:        truth,
			cell:         eval.MatchContent(truth, o.relation, cellOpts).Percent(),
		}
	}
	return scored, nil
}

// summarize averages a scored pass: cell match, cardinality difference
// (over the statements whose ground truth has rows) and prompts per
// statement.
func summarize(scored []scoredOutcome) (cell, card, prompts float64) {
	var cells, cards []float64
	total := 0
	for _, s := range scored {
		cells = append(cells, s.cell)
		if s.truth.Cardinality() > 0 {
			cards = append(cards, eval.CardinalityDiffPercent(s.truth.Cardinality(), s.relation.Cardinality()))
		}
		total += s.prompts
	}
	if len(scored) > 0 {
		prompts = float64(total) / float64(len(scored))
	}
	return eval.Mean(cells), eval.Mean(cards), prompts
}

// violations collects the failed criteria of a CheckAcceptance.
type violations []error

// check records the criterion as failed unless ok.
func (v *violations) check(ok bool, format string, args ...any) {
	if !ok {
		*v = append(*v, fmt.Errorf(format, args...))
	}
}
