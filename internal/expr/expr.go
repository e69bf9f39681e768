// Package expr compiles AST expressions into evaluators over tuples.
// Compilation resolves every column reference against a schema once, so
// per-row evaluation is a tree of closures with no name lookups.
package expr

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// Func evaluates an expression over one tuple.
type Func func(schema.Tuple) (value.Value, error)

// Compile resolves e against s and returns an evaluator. Aggregate calls
// are rejected: the planner must have replaced them with column references
// into an aggregation operator's output before compiling.
func Compile(e ast.Expr, s *schema.Schema) (Func, error) {
	switch n := e.(type) {
	case *ast.Literal:
		v := n.Val
		return func(schema.Tuple) (value.Value, error) { return v, nil }, nil

	case *ast.ColumnRef:
		idx, err := s.Resolve(n.Table, n.Name)
		if err != nil {
			return nil, err
		}
		return func(t schema.Tuple) (value.Value, error) { return t[idx], nil }, nil

	case *ast.Star:
		return nil, fmt.Errorf("expr: * is not valid in this context")

	case *ast.Binary:
		return compileBinary(n, s)

	case *ast.Unary:
		inner, err := Compile(n.Expr, s)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "NOT":
			return func(t schema.Tuple) (value.Value, error) {
				v, err := inner(t)
				if err != nil {
					return value.Null(), err
				}
				if v.IsNull() {
					return value.Null(), nil
				}
				return value.Bool(!v.Truthy()), nil
			}, nil
		case "-":
			return func(t schema.Tuple) (value.Value, error) {
				v, err := inner(t)
				if err != nil {
					return value.Null(), err
				}
				return value.Sub(value.Int(0), v)
			}, nil
		default:
			return nil, fmt.Errorf("expr: unknown unary operator %q", n.Op)
		}

	case *ast.InList, *ast.Between:
		return Compile(desugar(n), s)

	case *ast.Like:
		return compileLike(n, s)

	case *ast.IsNull:
		inner, err := Compile(n.Expr, s)
		if err != nil {
			return nil, err
		}
		not := n.Not
		return func(t schema.Tuple) (value.Value, error) {
			v, err := inner(t)
			if err != nil {
				return value.Null(), err
			}
			return value.Bool(v.IsNull() != not), nil
		}, nil

	case *ast.Case:
		return compileCase(n, s)

	case *ast.FuncCall:
		if n.IsAggregate() {
			return nil, fmt.Errorf("expr: aggregate %s not allowed here (planner bug?)", n.Name)
		}
		return compileScalarFunc(n, s)

	default:
		return nil, fmt.Errorf("expr: unsupported expression %T", e)
	}
}

func compileBinary(n *ast.Binary, s *schema.Schema) (Func, error) {
	left, err := Compile(n.Left, s)
	if err != nil {
		return nil, err
	}
	right, err := Compile(n.Right, s)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "AND":
		return func(t schema.Tuple) (value.Value, error) {
			l, err := left(t)
			if err != nil {
				return value.Null(), err
			}
			if !l.IsNull() && !l.Truthy() {
				return value.Bool(false), nil
			}
			r, err := right(t)
			if err != nil {
				return value.Null(), err
			}
			if !r.IsNull() && !r.Truthy() {
				return value.Bool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return value.Null(), nil
			}
			return value.Bool(true), nil
		}, nil
	case "OR":
		return func(t schema.Tuple) (value.Value, error) {
			l, err := left(t)
			if err != nil {
				return value.Null(), err
			}
			if !l.IsNull() && l.Truthy() {
				return value.Bool(true), nil
			}
			r, err := right(t)
			if err != nil {
				return value.Null(), err
			}
			if !r.IsNull() && r.Truthy() {
				return value.Bool(true), nil
			}
			if l.IsNull() || r.IsNull() {
				return value.Null(), nil
			}
			return value.Bool(false), nil
		}, nil
	case "+", "-", "*", "/", "%":
		op := n.Op
		return func(t schema.Tuple) (value.Value, error) {
			l, err := left(t)
			if err != nil {
				return value.Null(), err
			}
			r, err := right(t)
			if err != nil {
				return value.Null(), err
			}
			switch op {
			case "+":
				return value.Add(l, r)
			case "-":
				return value.Sub(l, r)
			case "*":
				return value.Mul(l, r)
			case "/":
				return value.Div(l, r)
			default: // %
				if l.IsNull() || r.IsNull() {
					return value.Null(), nil
				}
				lf, lok := l.Numeric()
				rf, rok := r.Numeric()
				if !lok || !rok {
					return value.Null(), fmt.Errorf("expr: %% requires numeric operands")
				}
				if rf == 0 {
					return value.Null(), fmt.Errorf("expr: modulo by zero")
				}
				return value.Float(math.Mod(lf, rf)), nil
			}
		}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		op := n.Op
		return func(t schema.Tuple) (value.Value, error) {
			l, err := left(t)
			if err != nil {
				return value.Null(), err
			}
			r, err := right(t)
			if err != nil {
				return value.Null(), err
			}
			if l.IsNull() || r.IsNull() {
				return value.Null(), nil
			}
			c, err := value.Compare(l, r)
			if err != nil {
				// Incomparable values never satisfy a predicate; SQL
				// engines differ here, and for LLM-sourced data a silent
				// false keeps malformed cells out of results.
				return value.Bool(false), nil
			}
			var ok bool
			switch op {
			case "=":
				ok = c == 0
			case "!=":
				ok = c != 0
			case "<":
				ok = c < 0
			case "<=":
				ok = c <= 0
			case ">":
				ok = c > 0
			case ">=":
				ok = c >= 0
			}
			return value.Bool(ok), nil
		}, nil
	default:
		return nil, fmt.Errorf("expr: unknown binary operator %q", n.Op)
	}
}

// desugar expands the abbreviations SQL defines by comparisons, so
// their three-valued logic is the AND, OR and NOT closures' own:
// `x [NOT] IN (a, b, …)` is `[NOT] (x = a OR x = b …)` and
// `x [NOT] BETWEEN lo AND hi` is `[NOT] (x >= lo AND x <= hi)`. Any other
// expression is returned as it is.
func desugar(e ast.Expr) ast.Expr {
	var out ast.Expr
	not := false
	switch n := e.(type) {
	case *ast.InList:
		for _, item := range n.List {
			eq := &ast.Binary{Op: "=", Left: n.Expr, Right: item}
			if out == nil {
				out = eq
			} else {
				out = &ast.Binary{Op: "OR", Left: out, Right: eq}
			}
		}
		not = n.Not
	case *ast.Between:
		out = &ast.Binary{Op: "AND",
			Left:  &ast.Binary{Op: ">=", Left: n.Expr, Right: n.Lo},
			Right: &ast.Binary{Op: "<=", Left: n.Expr, Right: n.Hi}}
		not = n.Not
	default:
		return e
	}
	if not {
		return &ast.Unary{Op: "NOT", Expr: out}
	}
	return out
}

func compileLike(n *ast.Like, s *schema.Schema) (Func, error) {
	inner, err := Compile(n.Expr, s)
	if err != nil {
		return nil, err
	}
	pat, err := Compile(n.Pattern, s)
	if err != nil {
		return nil, err
	}
	not := n.Not
	return func(t schema.Tuple) (value.Value, error) {
		v, err := inner(t)
		if err != nil {
			return value.Null(), err
		}
		pv, err := pat(t)
		if err != nil {
			return value.Null(), err
		}
		if v.IsNull() || pv.IsNull() {
			return value.Null(), nil
		}
		ok := MatchLike(v.String(), pv.String())
		return value.Bool(ok != not), nil
	}, nil
}

// MatchLike implements SQL LIKE matching: % matches any run (including
// empty), _ matches exactly one character. Matching is case-insensitive,
// which is the friendlier choice for LLM-sourced text.
func MatchLike(s, pattern string) bool {
	return likeMatch([]rune(strings.ToLower(s)), []rune(strings.ToLower(pattern)))
}

func likeMatch(s, p []rune) bool {
	// Iterative matcher with backtracking over the last %.
	var si, pi int
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			starP = pi
			starS = si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

func compileCase(n *ast.Case, s *schema.Schema) (Func, error) {
	type arm struct{ cond, res Func }
	arms := make([]arm, len(n.Whens))
	for i, w := range n.Whens {
		c, err := Compile(w.Cond, s)
		if err != nil {
			return nil, err
		}
		r, err := Compile(w.Result, s)
		if err != nil {
			return nil, err
		}
		arms[i] = arm{c, r}
	}
	var elseF Func
	if n.Else != nil {
		f, err := Compile(n.Else, s)
		if err != nil {
			return nil, err
		}
		elseF = f
	}
	return func(t schema.Tuple) (value.Value, error) {
		for _, a := range arms {
			c, err := a.cond(t)
			if err != nil {
				return value.Null(), err
			}
			if !c.IsNull() && c.Truthy() {
				return a.res(t)
			}
		}
		if elseF != nil {
			return elseF(t)
		}
		return value.Null(), nil
	}, nil
}

func compileScalarFunc(n *ast.FuncCall, s *schema.Schema) (Func, error) {
	args := make([]Func, len(n.Args))
	for i, a := range n.Args {
		f, err := Compile(a, s)
		if err != nil {
			return nil, err
		}
		args[i] = f
	}
	requireArgs := func(k int) error {
		if len(args) != k {
			return fmt.Errorf("expr: %s expects %d argument(s), got %d", n.Name, k, len(args))
		}
		return nil
	}
	switch n.Name {
	case "UPPER":
		if err := requireArgs(1); err != nil {
			return nil, err
		}
		return stringFunc(args[0], strings.ToUpper), nil
	case "LOWER":
		if err := requireArgs(1); err != nil {
			return nil, err
		}
		return stringFunc(args[0], strings.ToLower), nil
	case "TRIM":
		if err := requireArgs(1); err != nil {
			return nil, err
		}
		return stringFunc(args[0], strings.TrimSpace), nil
	case "LENGTH":
		if err := requireArgs(1); err != nil {
			return nil, err
		}
		f := args[0]
		return func(t schema.Tuple) (value.Value, error) {
			v, err := f(t)
			if err != nil || v.IsNull() {
				return value.Null(), err
			}
			return value.Int(int64(len([]rune(v.String())))), nil
		}, nil
	case "ABS":
		if err := requireArgs(1); err != nil {
			return nil, err
		}
		f := args[0]
		return func(t schema.Tuple) (value.Value, error) {
			v, err := f(t)
			if err != nil || v.IsNull() {
				return value.Null(), err
			}
			n, ok := v.Numeric()
			if !ok {
				return value.Null(), fmt.Errorf("expr: ABS requires a numeric argument")
			}
			if v.Kind() == value.KindInt {
				i := v.AsInt()
				if i < 0 {
					i = -i
				}
				return value.Int(i), nil
			}
			return value.Float(math.Abs(n)), nil
		}, nil
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return nil, fmt.Errorf("expr: ROUND expects 1 or 2 arguments")
		}
		f := args[0]
		var digits Func
		if len(args) == 2 {
			digits = args[1]
		}
		return func(t schema.Tuple) (value.Value, error) {
			v, err := f(t)
			if err != nil || v.IsNull() {
				return value.Null(), err
			}
			n, ok := v.Numeric()
			if !ok {
				return value.Null(), fmt.Errorf("expr: ROUND requires a numeric argument")
			}
			d := 0
			if digits != nil {
				dv, err := digits(t)
				if err != nil {
					return value.Null(), err
				}
				df, ok := dv.Numeric()
				if !ok {
					return value.Null(), fmt.Errorf("expr: ROUND digits must be numeric")
				}
				d = int(df)
			}
			scale := math.Pow(10, float64(d))
			return value.Float(math.Round(n*scale) / scale), nil
		}, nil
	default:
		return nil, fmt.Errorf("expr: unknown function %s", n.Name)
	}
}

func stringFunc(f Func, apply func(string) string) Func {
	return func(t schema.Tuple) (value.Value, error) {
		v, err := f(t)
		if err != nil || v.IsNull() {
			return value.Null(), err
		}
		return value.Text(apply(v.String())), nil
	}
}

// EvalBool evaluates f and reduces the result to a WHERE-clause boolean:
// NULL and errors from incomparable values count as false.
func EvalBool(f Func, t schema.Tuple) (bool, error) {
	v, err := f(t)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	return v.Truthy(), nil
}

// EvalConst evaluates e with no tuple context; it fails if e references
// columns. Used for INSERT literal rows and constant folding.
func EvalConst(e ast.Expr) (value.Value, error) {
	empty := schema.New()
	f, err := Compile(e, empty)
	if err != nil {
		return value.Null(), err
	}
	return f(nil)
}
