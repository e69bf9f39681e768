package physical

import (
	"repro/internal/expr"
	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// joinOp implements every join, inner and left outer, as one loop: Open
// drains the right input into buckets, and Next streams the left input,
// pairing each left row with the rows of its bucket and keeping the
// combinations the residual predicate accepts. When the ON condition has
// equality conjuncts across the two sides, the buckets are keyed by those
// expressions (a hash join); otherwise every right row shares one bucket
// (a nested-loop join under the whole condition, or a cross join without
// one).
type joinOp struct {
	left, right Operator
	out         *schema.Schema
	leftKeys    []expr.Func // compiled against the left schema; none for a nested loop
	rightKeys   []expr.Func // compiled against the right schema
	residual    expr.Func   // compiled against the combined schema; may be nil
	leftOuter   bool

	buckets map[string][]schema.Tuple
	buildVT llm.VTime // the buckets exist once the right side drained

	leftRow schema.Tuple // nil between left rows
	leftVT  llm.VTime
	matches []schema.Tuple // the current left row's bucket
	cursor  int
	matched bool
}

func (j *joinOp) Schema() *schema.Schema { return j.out }

func (j *joinOp) Open(c *Context) error {
	if err := j.right.Open(c); err != nil {
		return err
	}
	rows, buildVT, err := drain(j.right)
	j.right.Close()
	if err != nil {
		return err
	}
	j.buildVT = buildVT
	j.buckets = make(map[string][]schema.Tuple, len(rows))
	for _, r := range rows {
		k, ok, err := joinKey(j.rightKeys, r)
		if err != nil {
			return err
		}
		if ok {
			j.buckets[k] = append(j.buckets[k], r)
		}
	}
	j.leftRow, j.matches, j.cursor = nil, nil, 0
	return j.left.Open(c)
}

func (j *joinOp) Close() error { return j.left.Close() }

// Next stamps each output row with the later of the build side's
// high-water time and the current left row's.
func (j *joinOp) Next() (schema.Tuple, llm.VTime, error) {
	for {
		for j.leftRow != nil && j.cursor < len(j.matches) {
			combined := j.leftRow.Concat(j.matches[j.cursor])
			j.cursor++
			if j.residual != nil {
				ok, err := expr.EvalBool(j.residual, combined)
				if err != nil {
					return nil, 0, err
				}
				if !ok {
					continue
				}
			}
			j.matched = true
			return combined, max(j.buildVT, j.leftVT), nil
		}
		// Left outer: the unmatched left row, padded with NULLs.
		if j.leftRow != nil && j.leftOuter && !j.matched {
			pad := make(schema.Tuple, j.out.Len()-len(j.leftRow))
			for i := range pad {
				pad[i] = value.Null()
			}
			row := j.leftRow.Concat(pad)
			j.leftRow = nil
			return row, max(j.buildVT, j.leftVT), nil
		}
		t, vt, err := j.left.Next()
		if err != nil {
			return nil, 0, err
		}
		k, ok, err := joinKey(j.leftKeys, t)
		if err != nil {
			return nil, 0, err
		}
		j.leftRow, j.leftVT, j.matches, j.cursor, j.matched = t, vt, nil, 0, false
		if ok {
			j.matches = j.buckets[k]
		}
	}
}

// joinKey renders a row's bucket key; ok is false when a component is
// NULL, which never matches. With no key expressions every row shares the
// empty key.
func joinKey(funcs []expr.Func, t schema.Tuple) (key string, ok bool, err error) {
	var b []byte
	for _, f := range funcs {
		v, err := f(t)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", false, nil
		}
		b = append(b, v.Key()...)
		b = append(b, 0x1f)
	}
	return string(b), true, nil
}

// buildJoin splits the ON condition into the equality conjuncts across
// the two sides, which key the buckets, and the residual rest.
func buildJoin(node *logical.Join, left, right Operator) (Operator, error) {
	j := &joinOp{left: left, right: right, out: node.Schema(), leftOuter: node.Type == ast.JoinLeft}
	if node.On == nil {
		return j, nil
	}
	var residuals []ast.Expr
	for _, c := range ast.Conjuncts(node.On) {
		l, r, ok := equiSides(c, left.Schema(), right.Schema())
		if !ok {
			residuals = append(residuals, c)
			continue
		}
		lf, err := expr.Compile(l, left.Schema())
		if err != nil {
			return nil, err
		}
		rf, err := expr.Compile(r, right.Schema())
		if err != nil {
			return nil, err
		}
		j.leftKeys = append(j.leftKeys, lf)
		j.rightKeys = append(j.rightKeys, rf)
	}
	if len(residuals) > 0 {
		pred, err := expr.Compile(ast.And(residuals), j.out)
		if err != nil {
			return nil, err
		}
		j.residual = pred
	}
	return j, nil
}

// equiSides decomposes "a = b" with a resolvable on one side and b on the
// other, returning the expressions oriented (left, right).
func equiSides(c ast.Expr, left, right *schema.Schema) (ast.Expr, ast.Expr, bool) {
	b, ok := c.(*ast.Binary)
	if !ok || b.Op != "=" {
		return nil, nil, false
	}
	resolves := func(e ast.Expr, s *schema.Schema) bool {
		ok := true
		ast.Walk(e, func(x ast.Expr) bool {
			if ref, isRef := x.(*ast.ColumnRef); isRef {
				if s.IndexOf(ref.Table, ref.Name) < 0 {
					ok = false
					return false
				}
			}
			return true
		})
		// A literal-only side must not count as a join key.
		return ok && len(ast.ColumnRefs(e)) > 0
	}
	switch {
	case resolves(b.Left, left) && resolves(b.Right, right):
		return b.Left, b.Right, true
	case resolves(b.Right, left) && resolves(b.Left, right):
		return b.Right, b.Left, true
	}
	return nil, nil, false
}
