package expr

import (
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/value"
)

// evalWhere parses "SELECT x FROM t WHERE <cond>", compiles the condition
// against the test schema, and evaluates it over one tuple.
func evalWhere(t *testing.T, cond string, tuple schema.Tuple) value.Value {
	t.Helper()
	sel, err := parser.ParseSelect("SELECT a FROM t WHERE " + cond)
	if err != nil {
		t.Fatalf("parse %q: %v", cond, err)
	}
	f, err := Compile(sel.Where, testSchema())
	if err != nil {
		t.Fatalf("compile %q: %v", cond, err)
	}
	v, err := f(tuple)
	if err != nil {
		t.Fatalf("eval %q: %v", cond, err)
	}
	return v
}

func testSchema() *schema.Schema {
	return schema.New(
		schema.Column{Table: "t", Name: "a", Type: value.KindInt},
		schema.Column{Table: "t", Name: "b", Type: value.KindFloat},
		schema.Column{Table: "t", Name: "s", Type: value.KindString},
		schema.Column{Table: "t", Name: "n", Type: value.KindInt}, // holds NULLs
	)
}

func row(a int64, b float64, s string) schema.Tuple {
	return schema.Tuple{value.Int(a), value.Float(b), value.Text(s), value.Null()}
}

func TestComparisons(t *testing.T) {
	tuple := row(5, 2.5, "hello")
	cases := map[string]bool{
		"a = 5":             true,
		"a != 5":            false,
		"a < 10":            true,
		"a <= 5":            true,
		"a > 5":             false,
		"a >= 5":            true,
		"b = 2.5":           true,
		"a > b":             true,
		"s = 'hello'":       true,
		"s < 'world'":       true,
		"a = 5 AND b = 2.5": true,
		"a = 5 AND b = 9":   false,
		"a = 9 OR b = 2.5":  true,
		"NOT a = 9":         true,
		"NOT (a = 5)":       false,
	}
	for cond, want := range cases {
		v := evalWhere(t, cond, tuple)
		if v.IsNull() || v.AsBool() != want {
			t.Errorf("%q = %v, want %v", cond, v, want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	tuple := row(5, 2.5, "x")
	// Comparisons with NULL yield NULL.
	if v := evalWhere(t, "n = 5", tuple); !v.IsNull() {
		t.Errorf("NULL = 5 should be NULL, got %v", v)
	}
	// AND short-circuits false; OR short-circuits true.
	if v := evalWhere(t, "a = 9 AND n = 5", tuple); v.IsNull() || v.AsBool() {
		t.Errorf("false AND NULL = %v, want false", v)
	}
	if v := evalWhere(t, "a = 5 OR n = 5", tuple); v.IsNull() || !v.AsBool() {
		t.Errorf("true OR NULL = %v, want true", v)
	}
	if v := evalWhere(t, "a = 5 AND n = 5", tuple); !v.IsNull() {
		t.Errorf("true AND NULL = %v, want NULL", v)
	}
	// IS NULL.
	if v := evalWhere(t, "n IS NULL", tuple); !v.AsBool() {
		t.Error("n IS NULL should hold")
	}
	if v := evalWhere(t, "a IS NOT NULL", tuple); !v.AsBool() {
		t.Error("a IS NOT NULL should hold")
	}
}

func TestArithmetic(t *testing.T) {
	tuple := row(5, 2.5, "x")
	sel, _ := parser.ParseSelect("SELECT a + b * 2 - 1 FROM t")
	f, err := Compile(sel.Items[0].Expr, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	v, err := f(tuple)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := v.Numeric(); got != 9 {
		t.Errorf("5 + 2.5*2 - 1 = %v", v)
	}
}

func TestInBetweenLike(t *testing.T) {
	tuple := row(5, 2.5, "hello world")
	cases := map[string]bool{
		"a IN (1, 5, 9)":        true,
		"a NOT IN (1, 9)":       true,
		"a IN (1, 2)":           false,
		"a BETWEEN 1 AND 5":     true,
		"a BETWEEN 6 AND 9":     false,
		"a NOT BETWEEN 6 AND 9": true,
		"s LIKE 'hello%'":       true,
		"s LIKE '%world'":       true,
		"s LIKE '%lo wo%'":      true,
		"s LIKE 'h_llo world'":  true,
		"s LIKE 'HELLO%'":       true, // case-insensitive
		"s NOT LIKE 'bye%'":     true,
		"s LIKE 'hello'":        false,
	}
	for cond, want := range cases {
		v := evalWhere(t, cond, tuple)
		if v.IsNull() || v.AsBool() != want {
			t.Errorf("%q = %v, want %v", cond, v, want)
		}
	}
}

func TestCase(t *testing.T) {
	sel, _ := parser.ParseSelect("SELECT CASE WHEN a > 3 THEN 'big' WHEN a > 1 THEN 'mid' ELSE 'small' END FROM t")
	f, err := Compile(sel.Items[0].Expr, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		a    int64
		want string
	}{{5, "big"}, {2, "mid"}, {0, "small"}} {
		v, err := f(row(c.a, 0, ""))
		if err != nil {
			t.Fatal(err)
		}
		if v.AsString() != c.want {
			t.Errorf("CASE with a=%d = %q, want %q", c.a, v.AsString(), c.want)
		}
	}
}

func TestScalarFunctions(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"SELECT UPPER(s) FROM t", "HI"},
		{"SELECT LOWER(s) FROM t", "hi"},
		{"SELECT LENGTH(s) FROM t", "2"},
		{"SELECT ABS(a) FROM t", "5"},
		{"SELECT ROUND(b) FROM t", "3"},
		{"SELECT ROUND(b, 1) FROM t", "2.5"},
		{"SELECT TRIM(s) FROM t", "Hi"},
	}
	for _, c := range cases {
		sel, err := parser.ParseSelect(c.src)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Compile(sel.Items[0].Expr, testSchema())
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		tuple := schema.Tuple{value.Int(-5), value.Float(2.51), value.Text("Hi"), value.Null()}
		if strings.Contains(c.src, "ABS") {
			tuple[0] = value.Int(-5)
		}
		if strings.Contains(c.src, "TRIM") {
			tuple[2] = value.Text("  Hi  ")
		}
		v, err := f(tuple)
		if err != nil {
			t.Fatal(err)
		}
		got := v.String()
		if strings.Contains(c.src, "ROUND(b)") {
			// ROUND(2.51) = 3.
			if got != "3" {
				t.Errorf("%s = %q", c.src, got)
			}
			continue
		}
		if got != c.want && !(c.want == "5" && got == "5") {
			t.Errorf("%s = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestAggregateRejected(t *testing.T) {
	sel, _ := parser.ParseSelect("SELECT AVG(a) FROM t")
	if _, err := Compile(sel.Items[0].Expr, testSchema()); err == nil {
		t.Error("aggregates must be rejected by the expression compiler")
	}
}

func TestUnknownColumn(t *testing.T) {
	sel, _ := parser.ParseSelect("SELECT zzz FROM t")
	if _, err := Compile(sel.Items[0].Expr, testSchema()); err == nil {
		t.Error("unknown column must fail compilation")
	}
}

func TestEvalConst(t *testing.T) {
	sel, _ := parser.ParseSelect("SELECT 2 + 3 * 4 FROM t")
	v, err := EvalConst(sel.Items[0].Expr)
	if err != nil {
		t.Fatal(err)
	}
	if v.AsInt() != 14 {
		t.Errorf("EvalConst = %v", v)
	}
	refExpr, _ := parser.ParseSelect("SELECT a FROM t")
	if _, err := EvalConst(refExpr.Items[0].Expr); err == nil {
		t.Error("EvalConst with a column reference must fail")
	}
}

// TestMatchLikeAgainstRegexp cross-checks the LIKE matcher against a
// regexp reference implementation on random inputs.
func TestMatchLikeAgainstRegexp(t *testing.T) {
	alphabet := []rune("ab%_")
	f := func(sSeed, pSeed uint32) bool {
		s := genString(sSeed, []rune("ab"), 8)
		p := genString(pSeed, alphabet, 6)
		// Reference: translate the pattern to a regexp.
		var re strings.Builder
		re.WriteString("(?is)^")
		for _, r := range p {
			switch r {
			case '%':
				re.WriteString(".*")
			case '_':
				re.WriteString(".")
			default:
				re.WriteString(regexp.QuoteMeta(string(r)))
			}
		}
		re.WriteString("$")
		want := regexp.MustCompile(re.String()).MatchString(s)
		return MatchLike(s, p) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func genString(seed uint32, alphabet []rune, maxLen int) string {
	n := int(seed % uint32(maxLen+1))
	var b strings.Builder
	x := seed
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		b.WriteRune(alphabet[int(x>>16)%len(alphabet)])
	}
	return b.String()
}

func TestEvalBool(t *testing.T) {
	sel, _ := parser.ParseSelect("SELECT a FROM t WHERE n = 1")
	f, err := Compile(sel.Where, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := EvalBool(f, row(1, 0, ""))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("NULL predicate must evaluate to false in WHERE")
	}
}

// TestThreeValuedTruthTable evaluates every connective and predicate
// form over TRUE, FALSE and NULL operands, with a NULL in every operand
// position, against SQL's three-valued logic written out by hand. The
// row has a = 5 and n NULL; T, F and N are predicates that are TRUE,
// FALSE and NULL on it.
func TestThreeValuedTruthTable(t *testing.T) {
	const T, F, N = "(a = 5)", "(a = 6)", "(n = 5)"
	cases := []struct{ cond, want string }{
		{T + " AND " + T, "TRUE"}, {T + " AND " + F, "FALSE"}, {T + " AND " + N, "NULL"},
		{F + " AND " + T, "FALSE"}, {F + " AND " + F, "FALSE"}, {F + " AND " + N, "FALSE"},
		{N + " AND " + T, "NULL"}, {N + " AND " + F, "FALSE"}, {N + " AND " + N, "NULL"},
		{T + " OR " + T, "TRUE"}, {T + " OR " + F, "TRUE"}, {T + " OR " + N, "TRUE"},
		{F + " OR " + T, "TRUE"}, {F + " OR " + F, "FALSE"}, {F + " OR " + N, "NULL"},
		{N + " OR " + T, "TRUE"}, {N + " OR " + F, "NULL"}, {N + " OR " + N, "NULL"},
		{"NOT " + T, "FALSE"}, {"NOT " + F, "TRUE"}, {"NOT " + N, "NULL"},

		{"a = 5", "TRUE"}, {"a != 5", "FALSE"}, {"a < 5", "FALSE"},
		{"a <= 5", "TRUE"}, {"a > 5", "FALSE"}, {"a >= 5", "TRUE"},
		{"n = 5", "NULL"}, {"5 = n", "NULL"}, {"n = n", "NULL"}, {"a = NULL", "NULL"},
		{"n != 5", "NULL"}, {"n < 5", "NULL"}, {"5 >= n", "NULL"},

		{"a IN (5, 7)", "TRUE"}, {"a IN (6, 7)", "FALSE"},
		{"a IN (5, NULL)", "TRUE"}, {"a IN (NULL, 5)", "TRUE"}, {"a IN (6, NULL)", "NULL"},
		{"a IN (NULL)", "NULL"}, {"n IN (5, 7)", "NULL"}, {"n IN (NULL)", "NULL"},
		{"a NOT IN (5, 7)", "FALSE"}, {"a NOT IN (6, 7)", "TRUE"},
		{"a NOT IN (5, NULL)", "FALSE"}, {"a NOT IN (6, NULL)", "NULL"},
		{"a NOT IN (NULL)", "NULL"}, {"n NOT IN (5, 7)", "NULL"},

		{"a BETWEEN 1 AND 9", "TRUE"}, {"a BETWEEN 6 AND 9", "FALSE"}, {"a BETWEEN 1 AND 4", "FALSE"},
		{"a BETWEEN NULL AND 9", "NULL"}, {"a BETWEEN NULL AND 4", "FALSE"},
		{"a BETWEEN 1 AND NULL", "NULL"}, {"a BETWEEN 6 AND NULL", "FALSE"},
		{"a BETWEEN NULL AND NULL", "NULL"}, {"n BETWEEN 1 AND 9", "NULL"},
		{"a NOT BETWEEN 1 AND 9", "FALSE"}, {"a NOT BETWEEN 6 AND 9", "TRUE"},
		{"a NOT BETWEEN NULL AND 9", "NULL"}, {"a NOT BETWEEN NULL AND 4", "TRUE"},
		{"a NOT BETWEEN 1 AND NULL", "NULL"}, {"a NOT BETWEEN 6 AND NULL", "TRUE"},
		{"n NOT BETWEEN 1 AND 9", "NULL"},
		{"NOT (a BETWEEN NULL AND 4)", "TRUE"}, {"NOT (a IN (6, NULL))", "NULL"},
	}
	tuple := row(5, 2.5, "x")
	for _, tc := range cases {
		v := evalWhere(t, tc.cond, tuple)
		got := "NULL"
		if !v.IsNull() {
			got = "FALSE"
			if v.AsBool() {
				got = "TRUE"
			}
		}
		if got != tc.want {
			t.Errorf("%s = %s, want %s", tc.cond, got, tc.want)
		}
	}
}

// FuzzExprDesugar checks that IN and BETWEEN, with and without NOT,
// evaluate as the comparisons SQL defines them by, on rows of NULLs,
// numbers, numeric and non-numeric text and booleans: the result and
// whether evaluation fails agree.
func FuzzExprDesugar(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(2), uint8(3), false)
	f.Add(uint8(1), uint8(4), uint8(0), uint8(1), true)
	f.Fuzz(func(t *testing.T, x, a, b, c uint8, not bool) {
		vals := []value.Value{value.Null(), value.Int(1), value.Int(2), value.Float(2), value.Text("2"), value.Text("x"), value.Bool(true)}
		pick := func(k uint8) value.Value { return vals[int(k)%len(vals)] }
		tuple := schema.Tuple{pick(x), pick(a), pick(b), pick(c)}
		s := schema.New(
			schema.Column{Name: "x", Type: value.KindString},
			schema.Column{Name: "a", Type: value.KindString},
			schema.Column{Name: "b", Type: value.KindString},
			schema.Column{Name: "c", Type: value.KindString},
		)
		X, A, B, C := &ast.ColumnRef{Name: "x"}, &ast.ColumnRef{Name: "a"}, &ast.ColumnRef{Name: "b"}, &ast.ColumnRef{Name: "c"}
		cmp := func(op string, l, r ast.Expr) ast.Expr { return &ast.Binary{Op: op, Left: l, Right: r} }
		negate := func(e ast.Expr) ast.Expr {
			if not {
				return &ast.Unary{Op: "NOT", Expr: e}
			}
			return e
		}
		forms := []struct{ abbr, expansion ast.Expr }{
			{&ast.InList{Expr: X, List: []ast.Expr{A, B, C}, Not: not},
				negate(cmp("OR", cmp("OR", cmp("=", X, A), cmp("=", X, B)), cmp("=", X, C)))},
			{&ast.Between{Expr: X, Lo: A, Hi: B, Not: not},
				negate(cmp("AND", cmp(">=", X, A), cmp("<=", X, B)))},
		}
		for _, form := range forms {
			fa, err := Compile(form.abbr, s)
			if err != nil {
				t.Fatal(err)
			}
			fe, err := Compile(form.expansion, s)
			if err != nil {
				t.Fatal(err)
			}
			va, erra := fa(tuple)
			ve, erre := fe(tuple)
			if (erra != nil) != (erre != nil) || va.IsNull() != ve.IsNull() || !va.IsNull() && va.AsBool() != ve.AsBool() {
				t.Fatalf("%s on %v = %v (%v), its expansion %s = %v (%v)", form.abbr, tuple, va, erra, form.expansion, ve, erre)
			}
		}
	})
}
