// Package physical executes logical plans with an iterator (Open/Next/
// Close) operator model in which every tuple carries its virtual
// availability time. Traditional operators (scans, filters, joins,
// aggregation, sorting) implement exact relational semantics over
// materialized tuples; the LLM-backed operators (key scan, attribute
// fetch, boolean filter) realize the paper's prompt-based physical
// operators against any llm.Client. A consumer drives the tree itself:
// Open the root, pull Next until io.EOF, Close; Run is that loop
// materialized.
//
// Who owns a row. No operator writes a cell of a row it is handed:
// scans hand out a DB table's or a cached relation's own rows, and a
// join, a sort or an aggregate keeps the rows it drained. A row's spare
// capacity, past its length, belongs to the operator that allocated it,
// which gives it to one run: a key scan, or a fetch that copies its
// input, and the fetches above it, through any filters between them
// (Compile). The run's lowest operator allocates each row once, with
// room for every cell the run fetches, and each fetch above appends its
// cell in place; a row moves down the run one operator at a time, so no
// two hold it. A fetch over any other input copies each row. A
// projection builds new rows, so the rows a planned query returns at
// its root are its consumer's.
package physical

import (
	"fmt"
	"io"

	"repro/internal/clean"
	"repro/internal/expr"
	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/schema"
)

// Context carries the runtime environment shared by all operators of one
// query execution.
type Context struct {
	// Route resolves the client one prompt role's calls go out on, given
	// the role and the issuing table's pinned backend ("" when unpinned);
	// it returns nil when no model serves the role. The session installs
	// it over the runtime's backend registry. Nil for DB-only plans.
	Route   func(role llm.Role, tableBackend string) llm.Client
	Prompts *prompt.Builder // prompt construction
	Cleaner *clean.Cleaner  // answer normalization
	// MaxScanIterations caps the "return more results" loop per leaf
	// (Section 4's termination threshold).
	MaxScanIterations int
	// Scheduler is this query's tenant handle on the engine-global
	// fair-share scheduler; the LLM operators issue every prompt through
	// it, competing for the shared per-endpoint worker budget (and the
	// scheduler's prompt cache) with every other in-flight query. Its
	// policy decides how they issue: streaming (the default) submits
	// prompts as upstream tuples arrive, while stop-and-go
	// (llm.Tenant.SetWaves) drains each operator's input and issues it as
	// one settled wave, the execution the paper describes. Required by
	// plans with LLM operators.
	Scheduler *llm.Tenant
	// PipelineBuffer bounds how many tuples a streaming LLM operator may
	// run ahead of its consumer once it has started its producer, at its
	// first answer that had to wait (0 means DefaultPipelineBuffer);
	// before that it runs inline and issues only what is pulled. Smaller
	// buffers make LIMIT-driven early termination cut upstream prompt
	// issue sooner; larger ones decouple stages more.
	PipelineBuffer int
	// Metrics, when non-nil, collects per-operator actual prompt and row
	// counts, keyed by logical plan node — the "actual" side of EXPLAIN
	// ANALYZE and the feedback signal for the optimizer's statistics.
	Metrics *Metrics
	// Verifier, when non-nil, is a second model that double-checks every
	// fetched attribute value (Section 6, "Knowledge of the Unknown":
	// "verify generated query answers by another model"). Cells the
	// verifier disagrees with become NULL.
	Verifier llm.Client
	// Templates, when non-nil, memoizes the fetch and key-scan prompt
	// templates across the queries of one session resolution, all of
	// whose contexts share Prompts. Nil builds each operator's afresh.
	Templates *Templates
}

// client resolves the transport one prompt role's calls go out on for a
// table binding, or reports why an LLM operator (named by what and its
// subject, joined only on failure) cannot issue prompts under this
// context.
func (c *Context) client(role llm.Role, tableBackend, what, subject string) (llm.Client, error) {
	var cl llm.Client
	if c.Route != nil {
		cl = c.Route(role, tableBackend)
	}
	if cl == nil || c.Scheduler == nil {
		return nil, fmt.Errorf("physical: %s%s without an LLM client and scheduler tenant", what, subject)
	}
	return cl, nil
}

// DefaultPipelineBuffer is the fallback bound on how far a streaming LLM
// operator runs ahead of its consumer.
const DefaultPipelineBuffer = 16

func (c *Context) pipeBuffer() int {
	if c.PipelineBuffer > 0 {
		return c.PipelineBuffer
	}
	return DefaultPipelineBuffer
}

// Operator is one physical operator. Next returns each tuple together
// with its virtual availability time on the simulated-latency axis: the
// completion time of the prompt chain that produced it. The LLM operators
// use it as the ready time of the prompts they issue for the tuple;
// prompt-free operators forward their input's times, and an operator
// that materializes its input (a join's build side, an aggregate, a sort)
// stamps what it derives with the input's high-water time. Scans of
// materialized data report 0: their tuples are available immediately.
// io.EOF ends the stream. Close releases the operator and its inputs
// (under the streaming policy it stops upstream prompt issue); it is
// safe after a failed Open.
type Operator interface {
	Schema() *schema.Schema
	Open(*Context) error
	Next() (schema.Tuple, llm.VTime, error)
	Close() error
}

// drain materializes an operator's remaining stream together with the
// high-water virtual time across the consumed tuples — the availability
// time of anything derived from the whole input.
func drain(op Operator) ([]schema.Tuple, llm.VTime, error) {
	var rows []schema.Tuple
	var vt llm.VTime
	for {
		t, tvt, err := op.Next()
		if err == io.EOF {
			return rows, vt, nil
		}
		if err != nil {
			return nil, 0, err
		}
		vt = max(vt, tvt)
		rows = append(rows, t)
	}
}

// Run opens an operator tree, drains it into a materialized relation and
// closes it: the buffered consumption of the same iterator a streaming
// consumer drives by hand.
func Run(ctx *Context, op Operator) (*schema.Relation, error) {
	err := op.Open(ctx)
	var rows []schema.Tuple
	if err == nil {
		rows, _, err = drain(op)
	}
	op.Close()
	if err != nil {
		return nil, err
	}
	return &schema.Relation{Schema: op.Schema().Clone(), Rows: rows}, nil
}

// memScan iterates a materialized relation under the scan's qualified
// schema.
type memScan struct {
	out  *schema.Schema
	rel  *schema.Relation
	next int
}

// NewMemScan builds a scan over data with the given output schema. The
// data's column order must match the schema.
func NewMemScan(out *schema.Schema, data *schema.Relation) Operator {
	return &memScan{out: out, rel: data}
}

func (s *memScan) Schema() *schema.Schema { return s.out }
func (s *memScan) Open(*Context) error    { s.next = 0; return nil }
func (s *memScan) Close() error           { return nil }

func (s *memScan) Next() (schema.Tuple, llm.VTime, error) {
	if s.next >= len(s.rel.Rows) {
		return nil, 0, io.EOF
	}
	t := s.rel.Rows[s.next]
	s.next++
	return t, 0, nil
}

// filterOp streams tuples passing the predicate.
type filterOp struct {
	input Operator
	cond  expr.Func
}

// NewFilter compiles cond against the input schema.
func NewFilter(input Operator, cond expr.Func) Operator {
	return &filterOp{input: input, cond: cond}
}

func (f *filterOp) Schema() *schema.Schema { return f.input.Schema() }
func (f *filterOp) Open(c *Context) error  { return f.input.Open(c) }
func (f *filterOp) Close() error           { return f.input.Close() }

func (f *filterOp) Next() (schema.Tuple, llm.VTime, error) {
	for {
		t, vt, err := f.input.Next()
		if err != nil {
			return nil, 0, err
		}
		ok, err := expr.EvalBool(f.cond, t)
		if err != nil {
			return nil, 0, err
		}
		if ok {
			return t, vt, nil
		}
	}
}

// projectOp evaluates one function per output column.
type projectOp struct {
	input Operator
	out   *schema.Schema
	funcs []expr.Func
}

func (p *projectOp) Schema() *schema.Schema { return p.out }
func (p *projectOp) Open(c *Context) error  { return p.input.Open(c) }
func (p *projectOp) Close() error           { return p.input.Close() }

func (p *projectOp) Next() (schema.Tuple, llm.VTime, error) {
	t, vt, err := p.input.Next()
	if err != nil {
		return nil, 0, err
	}
	out := make(schema.Tuple, len(p.funcs))
	for i, f := range p.funcs {
		v, err := f(t)
		if err != nil {
			return nil, 0, fmt.Errorf("physical: projecting column %d: %w", i, err)
		}
		out[i] = v
	}
	return out, vt, nil
}

// stripOp keeps the first k columns.
type stripOp struct {
	input Operator
	out   *schema.Schema
	keep  int
}

func (s *stripOp) Schema() *schema.Schema { return s.out }
func (s *stripOp) Open(c *Context) error  { return s.input.Open(c) }
func (s *stripOp) Close() error           { return s.input.Close() }

func (s *stripOp) Next() (schema.Tuple, llm.VTime, error) {
	t, vt, err := s.input.Next()
	if err != nil {
		return nil, 0, err
	}
	return t[:s.keep], vt, nil
}

// limitOp emits at most n tuples after skipping offset.
type limitOp struct {
	input   Operator
	n       int // -1 = unlimited
	offset  int
	skipped int
	emitted int
}

func (l *limitOp) Schema() *schema.Schema { return l.input.Schema() }

func (l *limitOp) Open(c *Context) error {
	l.skipped, l.emitted = 0, 0
	return l.input.Open(c)
}

func (l *limitOp) Close() error { return l.input.Close() }

func (l *limitOp) Next() (schema.Tuple, llm.VTime, error) {
	// A satisfied limit — including LIMIT 0 — ends the stream without
	// pulling (or skipping offset rows of) the input; closing the tree
	// then tells streaming producers to stop issuing prompts (stop-and-go
	// waves run to completion).
	if l.n >= 0 && l.emitted >= l.n {
		return nil, 0, io.EOF
	}
	for l.skipped < l.offset {
		if _, _, err := l.input.Next(); err != nil {
			return nil, 0, err
		}
		l.skipped++
	}
	t, vt, err := l.input.Next()
	if err != nil {
		return nil, 0, err
	}
	l.emitted++
	return t, vt, nil
}

// distinctOp drops duplicates over the first keyCols columns. Each
// row's key is appended into key, a buffer the operator reuses, so only
// a row that is kept allocates its key.
type distinctOp struct {
	input   Operator
	keyCols int
	seen    map[string]bool
	key     []byte
}

func (d *distinctOp) Schema() *schema.Schema { return d.input.Schema() }

func (d *distinctOp) Open(c *Context) error {
	d.seen = map[string]bool{}
	return d.input.Open(c)
}

func (d *distinctOp) Close() error { return d.input.Close() }

func (d *distinctOp) Next() (schema.Tuple, llm.VTime, error) {
	for {
		t, vt, err := d.input.Next()
		if err != nil {
			return nil, 0, err
		}
		d.key = t[:d.keyCols].AppendKey(d.key[:0])
		if d.seen[string(d.key)] {
			continue
		}
		d.seen[string(d.key)] = true
		return t, vt, nil
	}
}
