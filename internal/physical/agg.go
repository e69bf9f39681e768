package physical

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/expr"
	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// accumulator folds values of one aggregate within one group.
type accumulator interface {
	add(v value.Value) error
	result() value.Value
}

type countAcc struct {
	star     bool
	distinct bool
	seen     map[string]bool
	n        int64
}

func (a *countAcc) add(v value.Value) error {
	if !a.star && v.IsNull() {
		return nil
	}
	if a.distinct {
		if a.seen == nil {
			a.seen = map[string]bool{}
		}
		k := v.Key()
		if a.seen[k] {
			return nil
		}
		a.seen[k] = true
	}
	a.n++
	return nil
}

func (a *countAcc) result() value.Value { return value.Int(a.n) }

type sumAcc struct {
	distinct bool
	seen     map[string]bool
	sum      float64
	any      bool
	avg      bool
	n        int64
}

func (a *sumAcc) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	f, ok := v.Numeric()
	if !ok {
		// Un-typed text (cleaning disabled): try a strict parse, and skip
		// the cell when it is not a number — the SQL NULL treatment.
		parsed, err := value.ParseAs(value.KindFloat, v.String())
		if err != nil || parsed.IsNull() {
			return nil
		}
		f, _ = parsed.Numeric()
	}
	if a.distinct {
		if a.seen == nil {
			a.seen = map[string]bool{}
		}
		k := v.Key()
		if a.seen[k] {
			return nil
		}
		a.seen[k] = true
	}
	a.sum += f
	a.n++
	a.any = true
	return nil
}

func (a *sumAcc) result() value.Value {
	if !a.any {
		return value.Null()
	}
	if a.avg {
		return value.Float(a.sum / float64(a.n))
	}
	return value.Float(a.sum)
}

type minMaxAcc struct {
	max  bool
	best value.Value
	any  bool
}

func (a *minMaxAcc) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	if !a.any {
		a.best, a.any = v, true
		return nil
	}
	c, err := value.Compare(v, a.best)
	if err != nil {
		return nil // incomparable values are skipped
	}
	if (a.max && c > 0) || (!a.max && c < 0) {
		a.best = v
	}
	return nil
}

func (a *minMaxAcc) result() value.Value {
	if !a.any {
		return value.Null()
	}
	return a.best
}

// firstAcc keeps the first non-NULL value (implicit GROUP BY columns).
type firstAcc struct {
	v   value.Value
	any bool
}

func (a *firstAcc) add(v value.Value) error {
	if !a.any && !v.IsNull() {
		a.v, a.any = v, true
	}
	return nil
}

func (a *firstAcc) result() value.Value {
	if !a.any {
		return value.Null()
	}
	return a.v
}

func newAccumulator(call *ast.FuncCall) (accumulator, error) {
	switch call.Name {
	case "FIRST":
		return &firstAcc{}, nil
	case "COUNT":
		_, star := starArg(call)
		return &countAcc{star: star, distinct: call.Distinct}, nil
	case "SUM":
		return &sumAcc{distinct: call.Distinct}, nil
	case "AVG":
		return &sumAcc{distinct: call.Distinct, avg: true}, nil
	case "MIN":
		return &minMaxAcc{}, nil
	case "MAX":
		return &minMaxAcc{max: true}, nil
	default:
		return nil, fmt.Errorf("physical: unknown aggregate %s", call.Name)
	}
}

func starArg(call *ast.FuncCall) (ast.Expr, bool) {
	if len(call.Args) == 1 {
		if _, ok := call.Args[0].(*ast.Star); ok {
			return call.Args[0], true
		}
	}
	return nil, false
}

// hashAggOp materializes the input, groups and folds.
type hashAggOp struct {
	input Operator
	node  *logical.Aggregate
	out   *schema.Schema

	groupFns []expr.Func
	argFns   []expr.Func // nil entry = COUNT(*)

	results []schema.Tuple
	cursor  int
	vt      llm.VTime // every group is available once the whole input is
}

func newHashAgg(node *logical.Aggregate, input Operator) (*hashAggOp, error) {
	op := &hashAggOp{input: input, node: node, out: node.Schema()}
	in := input.Schema()
	for _, g := range node.GroupBy {
		f, err := expr.Compile(g, in)
		if err != nil {
			return nil, err
		}
		op.groupFns = append(op.groupFns, f)
	}
	for _, spec := range node.Aggs {
		if _, star := starArg(spec.Call); star {
			op.argFns = append(op.argFns, nil)
			continue
		}
		if len(spec.Call.Args) != 1 {
			return nil, fmt.Errorf("physical: %s expects one argument", spec.Call.Name)
		}
		f, err := expr.Compile(spec.Call.Args[0], in)
		if err != nil {
			return nil, err
		}
		op.argFns = append(op.argFns, f)
	}
	return op, nil
}

func (a *hashAggOp) Schema() *schema.Schema { return a.out }

func (a *hashAggOp) Open(c *Context) error {
	if err := a.input.Open(c); err != nil {
		return err
	}
	rows, vt, err := drain(a.input)
	a.input.Close()
	if err != nil {
		return err
	}
	a.vt = vt

	type group struct {
		key  schema.Tuple
		accs []accumulator
	}
	newGroup := func(key schema.Tuple) (*group, error) {
		g := &group{key: key, accs: make([]accumulator, len(a.node.Aggs))}
		for i, spec := range a.node.Aggs {
			acc, err := newAccumulator(spec.Call)
			if err != nil {
				return nil, err
			}
			g.accs[i] = acc
		}
		return g, nil
	}
	// Each row's group key is evaluated into keyVals and appended into
	// key, buffers reused across rows: a row allocates a key, and a copy
	// of its key values, only when it starts a new group.
	groups := map[string]*group{}
	var order []*group
	keyVals := make(schema.Tuple, len(a.groupFns))
	var key []byte

	for _, row := range rows {
		for i, f := range a.groupFns {
			v, err := f(row)
			if err != nil {
				return err
			}
			keyVals[i] = v
		}
		key = keyVals.AppendKey(key[:0])
		g, ok := groups[string(key)]
		if !ok {
			if g, err = newGroup(keyVals.Clone()); err != nil {
				return err
			}
			groups[string(key)] = g
			order = append(order, g)
		}
		for i, acc := range g.accs {
			var v value.Value
			if a.argFns[i] == nil {
				v = value.Int(1) // COUNT(*): any non-value
			} else {
				v, err = a.argFns[i](row)
				if err != nil {
					return err
				}
			}
			if err := acc.add(v); err != nil {
				return err
			}
		}
	}

	// Global aggregate over empty input still yields one row.
	if len(a.groupFns) == 0 && len(order) == 0 {
		g, err := newGroup(nil)
		if err != nil {
			return err
		}
		order = append(order, g)
	}

	a.results = a.results[:0]
	for _, g := range order {
		row := make(schema.Tuple, 0, a.out.Len())
		row = append(row, g.key...)
		for _, acc := range g.accs {
			row = append(row, acc.result())
		}
		a.results = append(a.results, row)
	}
	a.cursor = 0
	return nil
}

func (a *hashAggOp) Close() error { return nil }

func (a *hashAggOp) Next() (schema.Tuple, llm.VTime, error) {
	if a.cursor >= len(a.results) {
		return nil, 0, io.EOF
	}
	t := a.results[a.cursor]
	a.cursor++
	return t, a.vt, nil
}

// sortOp materializes and orders the input.
type sortOp struct {
	input Operator
	items []ast.OrderItem
	fns   []expr.Func
	desc  []bool

	rows   []schema.Tuple
	cursor int
	vt     llm.VTime // the sorted run exists once the whole input does
}

func newSort(node *logical.Sort, input Operator) (*sortOp, error) {
	op := &sortOp{input: input, items: node.Items}
	for _, it := range node.Items {
		f, err := expr.Compile(it.Expr, input.Schema())
		if err != nil {
			return nil, err
		}
		op.fns = append(op.fns, f)
		op.desc = append(op.desc, it.Desc)
	}
	return op, nil
}

func (s *sortOp) Schema() *schema.Schema { return s.input.Schema() }

func (s *sortOp) Open(c *Context) error {
	if err := s.input.Open(c); err != nil {
		return err
	}
	rows, vt, err := drain(s.input)
	s.input.Close()
	if err != nil {
		return err
	}
	s.vt = vt

	// Precompute sort keys once per row.
	keys := make([][]value.Value, len(rows))
	for i, row := range rows {
		keys[i] = make([]value.Value, len(s.fns))
		for j, f := range s.fns {
			v, err := f(row)
			if err != nil {
				return err
			}
			keys[i][j] = v
		}
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		a, b := keys[idx[x]], keys[idx[y]]
		for j := range s.fns {
			c := compareForSort(a[j], b[j])
			if c == 0 {
				continue
			}
			if s.desc[j] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	s.rows = make([]schema.Tuple, len(rows))
	for i, j := range idx {
		s.rows[i] = rows[j]
	}
	s.cursor = 0
	return nil
}

// compareForSort orders values with NULLs last and incomparable values by
// their textual form, so sorting never fails.
func compareForSort(a, b value.Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return 1
	case b.IsNull():
		return -1
	}
	if c, err := value.Compare(a, b); err == nil {
		return c
	}
	as, bs := a.String(), b.String()
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	default:
		return 0
	}
}

func (s *sortOp) Close() error { return nil }

func (s *sortOp) Next() (schema.Tuple, llm.VTime, error) {
	if s.cursor >= len(s.rows) {
		return nil, 0, io.EOF
	}
	t := s.rows[s.cursor]
	s.cursor++
	return t, s.vt, nil
}
