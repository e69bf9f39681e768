package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/simllm"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
)

// modelSeed is the noise seed of the simulated model: galois-serve's
// -seed default, which the benchmark never overrides. The benchmark's
// own --seed only shapes the request list.
const modelSeed = 1

// variant is the relation one lowering of a LIMIT-free statement
// produces on the reference runtime.
type variant struct {
	hash uint64         // of the rendered header and the sorted rows
	rows map[string]int // rendered rows as a multiset, for LIMIT subsets
	card int
	// match is eval.MatchContent of the relation against the memdb
	// ground truth (paper Table 2's metric); scored is false when the
	// ground truth is empty and there is nothing to match.
	match  float64
	scored bool
}

// reference is what the oracle accepts for one LIMIT-free statement: one
// relation per way of lowering its selections. A selection on an LLM
// attribute runs either as a per-key boolean prompt or as fetch-then-
// filter; the cost-based optimizer picks per conjunct from statistics
// that move with every query served, and the simulated model — like a
// real one — does not always answer "is X > c" the way its answer to
// "what is X" implies. A served relation is correct when it equals the
// relation of one of those lowerings.
type reference struct{ variants []variant }

// oracle computes each distinct statement once on an in-process
// reference runtime: the same simulated model and seed as the server,
// but no prompt cache, no result cache, no routing and no store — none
// of the layers whose correctness the benchmark guards.
type oracle struct {
	runner *bench.Runner
	rt     *core.Runtime
	refs   map[string]*reference
}

func newOracle() (*oracle, error) {
	runner, err := bench.NewRunner(modelSeed)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	rt, err := runner.Runtime(runner.Model(simllm.ChatGPT), opts)
	if err != nil {
		return nil, err
	}
	return &oracle{runner: runner, rt: rt, refs: map[string]*reference{}}, nil
}

// renderRow is the canonical text of one row: the cells as the server
// renders them, joined by a byte no cell contains.
func renderRow(cells []string) string { return strings.Join(cells, "\x1f") }

// hashRelation hashes a header and its rows as a multiset: none of the
// generated LIMIT-free statements has an ORDER BY, so SQL leaves their
// row order open, and the engine's order does follow the join order the
// cost-based optimizer picks from the statistics gathered so far.
func hashRelation(columns []string, rows []string) uint64 {
	rows = append([]string(nil), rows...)
	sort.Strings(rows)
	var h maphash.Hash
	h.SetSeed(hashSeed)
	h.WriteString(renderRow(columns))
	for _, r := range rows {
		h.WriteByte('\x1e')
		h.WriteString(r)
	}
	return h.Sum64()
}

func renderRelation(rel *schema.Relation) (columns, rows []string) {
	columns = make([]string, rel.Schema.Len())
	for i, c := range rel.Schema.Columns {
		columns[i] = c.QualifiedName()
	}
	rows = make([]string, len(rel.Rows))
	cells := make([]string, rel.Schema.Len())
	for i, row := range rel.Rows {
		for j, v := range row {
			cells[j] = v.String()
		}
		rows[i] = renderRow(cells)
	}
	return columns, rows
}

// choicePoints returns the optimizer's per-conjunct keys of the
// statement's simple selections (column op literal), the conjuncts it
// may lower either way.
func choicePoints(sql string) ([]string, error) {
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	if sel.Where == nil {
		return nil, nil
	}
	var keys []string
	for _, c := range optimizer.SplitConjuncts(sel.Where) {
		bin, ok := c.(*ast.Binary)
		if !ok {
			continue
		}
		_, col := bin.Left.(*ast.ColumnRef)
		_, lit := bin.Right.(*ast.Literal)
		if col && lit {
			keys = append(keys, strings.ToLower(bin.String()))
		}
	}
	return keys, nil
}

func (o *oracle) compute(ctx context.Context, sql string) (*reference, error) {
	keys, err := choicePoints(sql)
	if err != nil {
		return nil, fmt.Errorf("oracle: %q: %w", sql, err)
	}
	truth, err := o.runner.GroundTruth(ctx, sql)
	if err != nil {
		return nil, fmt.Errorf("oracle: ground truth for %q: %w", sql, err)
	}
	ref := &reference{}
	seen := map[uint64]bool{}
	for mask := 0; mask < 1<<len(keys); mask++ {
		sess := o.rt.NewSession()
		opts := sess.Options()
		opts.Optimizer.CostBased = false
		opts.Optimizer.DisableLLMFilter = map[string]bool{}
		for i, k := range keys {
			if mask&(1<<i) != 0 {
				opts.Optimizer.DisableLLMFilter[k] = true
			}
		}
		sess.SetOptions(opts)
		rel, _, err := sess.Query(ctx, sql)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", sql, err)
		}
		columns, rows := renderRelation(rel)
		v := variant{hash: hashRelation(columns, rows), rows: map[string]int{}, card: len(rows)}
		if seen[v.hash] {
			continue
		}
		seen[v.hash] = true
		for _, r := range rows {
			v.rows[r]++
		}
		if truth.Cardinality() > 0 {
			v.match = eval.MatchContent(truth, rel, o.runner.CellOptions()).Percent()
			v.scored = true
		}
		ref.variants = append(ref.variants, v)
	}
	return ref, nil
}

// prepare computes the references of every statement in sqls not known
// yet, on all cores (the server is not running at that point).
func (o *oracle) prepare(ctx context.Context, sqls []string) error {
	var todo []string
	seen := map[string]bool{}
	for _, s := range sqls {
		if o.refs[s] == nil && !seen[s] {
			seen[s] = true
			todo = append(todo, s)
		}
	}
	refs := make([]*reference, len(todo))
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += workers {
				refs[i], errs[i] = o.compute(ctx, todo[i])
			}
		}(w)
	}
	wg.Wait()
	for i, s := range todo {
		if errs[i] != nil {
			return errs[i]
		}
		o.refs[s] = refs[i]
	}
	return nil
}

// verdict is the outcome of checking one distinct response.
type verdict struct {
	failure string // "" = correct
	answer  *answer
	bytes   int
	// match and scored repeat the matching variant's cell-match score
	// (LIMIT-free statements only).
	match  float64
	scored bool
}

// check decodes one response and holds it against the oracle: a
// LIMIT-free relation must hold exactly the rows of one of the
// reference's variants; a truncated one must have the cardinality that
// variant implies and be a sub-multiset of it.
func (o *oracle) check(r *request, status int, body []byte) verdict {
	v := verdict{bytes: len(body)}
	if status != http.StatusOK {
		v.failure = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
		return v
	}
	var err error
	if r.Stream {
		v.answer, err = decodeNDJSON(bytes.NewReader(body))
	} else {
		v.answer, err = decodeBuffered(body)
	}
	if err != nil {
		v.failure = "undecodable response: " + err.Error()
		return v
	}
	refSQL := r.SQL
	if r.Ref != "" {
		refSQL = r.Ref
	}
	ref := o.refs[refSQL]
	if ref == nil {
		v.failure = "no oracle reference for " + refSQL
		return v
	}
	rows := make([]string, len(v.answer.Rows))
	for i, cells := range v.answer.Rows {
		rows[i] = renderRow(cells)
	}
	if r.Ref == "" {
		served := hashRelation(v.answer.Columns, rows)
		for _, vr := range ref.variants {
			if vr.hash == served {
				v.match, v.scored = vr.match, vr.scored
				return v
			}
		}
		v.failure = fmt.Sprintf("relation of %d rows equals none of the %d reference variants", len(rows), len(ref.variants))
		return v
	}
	for _, vr := range ref.variants {
		if truncationOf(rows, vr, r.Limit, r.Offset) {
			return v
		}
	}
	v.failure = fmt.Sprintf("truncated relation of %d rows is not a LIMIT %d OFFSET %d cut of any reference variant", len(rows), r.Limit, r.Offset)
	return v
}

// truncationOf reports whether rows could be what LIMIT/OFFSET leave of
// the variant: the cardinality the cut implies, and no row the variant
// lacks.
func truncationOf(rows []string, vr variant, limit, offset int) bool {
	want := vr.card - offset
	if want < 0 {
		want = 0
	}
	if limit >= 0 && want > limit {
		want = limit
	}
	if len(rows) != want {
		return false
	}
	used := map[string]int{}
	for _, row := range rows {
		used[row]++
		if used[row] > vr.rows[row] {
			return false
		}
	}
	return true
}
