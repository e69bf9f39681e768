package physical

import (
	"repro/internal/expr"
	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/schema"
	"repro/internal/sql/ast"
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

	// The build side: its rows, and its buckets as chains through next,
	// each in build order, with index mapping a key to its chain. key is
	// the buffer each row's key is appended into, so a probe allocates
	// nothing and a build allocates one string per distinct key.
	build   []schema.Tuple
	next    []int // next[i]: the row after build[i] in its bucket, or -1
	chains  []chain
	index   map[string]int
	key     []byte
	buildVT llm.VTime // the buckets exist once the right side drained

	leftRow schema.Tuple // nil between left rows
	leftVT  llm.VTime
	match   int // the current left row's next candidate in build, or -1
	matched bool
}

// chain is one bucket: the build rows of its first and last row.
type chain struct{ first, last int }

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
	j.build, j.buildVT = rows, buildVT
	j.next, j.chains, j.index = make([]int, len(rows)), j.chains[:0], make(map[string]int, len(rows))
	for i, r := range rows {
		var ok bool
		j.key, ok, err = joinKey(j.key[:0], j.rightKeys, r)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		j.next[i] = -1
		if b, seen := j.index[string(j.key)]; seen {
			j.next[j.chains[b].last], j.chains[b].last = i, i
			continue
		}
		j.index[string(j.key)] = len(j.chains)
		j.chains = append(j.chains, chain{i, i})
	}
	j.leftRow, j.match = nil, -1
	return j.left.Open(c)
}

func (j *joinOp) Close() error { return j.left.Close() }

// Next stamps each output row with the later of the build side's
// high-water time and the current left row's.
func (j *joinOp) Next() (schema.Tuple, llm.VTime, error) {
	for {
		for j.leftRow != nil && j.match >= 0 {
			combined := j.leftRow.Concat(j.build[j.match])
			j.match = j.next[j.match]
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
		// Left outer: the unmatched left row, padded with NULLs (the zero
		// Value).
		if j.leftRow != nil && j.leftOuter && !j.matched {
			row := make(schema.Tuple, j.out.Len())
			copy(row, j.leftRow)
			j.leftRow = nil
			return row, max(j.buildVT, j.leftVT), nil
		}
		t, vt, err := j.left.Next()
		if err != nil {
			return nil, 0, err
		}
		var ok bool
		j.key, ok, err = joinKey(j.key[:0], j.leftKeys, t)
		if err != nil {
			return nil, 0, err
		}
		j.leftRow, j.leftVT, j.match, j.matched = t, vt, -1, false
		if b, found := j.index[string(j.key)]; ok && found {
			j.match = j.chains[b].first
		}
	}
}

// joinKey appends a row's bucket key to dst; ok is false when a
// component is NULL, which never matches. With no key expressions every
// row shares the empty key.
func joinKey(dst []byte, funcs []expr.Func, t schema.Tuple) (key []byte, ok bool, err error) {
	for _, f := range funcs {
		v, err := f(t)
		if err != nil {
			return dst, false, err
		}
		if v.IsNull() {
			return dst, false, nil
		}
		dst = append(v.AppendKey(dst), 0x1f)
	}
	return dst, true, nil
}

// buildJoin splits the ON condition into the equality conjuncts across
// the two sides, which key the buckets, and the residual rest.
func buildJoin(node *logical.Join, left, right Operator) (Operator, error) {
	j := &joinOp{left: left, right: right, out: node.Schema(), leftOuter: node.Type == ast.JoinLeft}
	var residuals []ast.Expr
	for _, c := range node.Conjuncts() {
		l, r, ok := equiSides(c.Expr, left.Schema(), right.Schema())
		if !ok {
			residuals = append(residuals, c.Expr)
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
