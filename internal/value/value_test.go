package value

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INTEGER", KindFloat: "FLOAT",
		KindString: "TEXT", KindBool: "BOOLEAN", KindDate: "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	good := map[string]Kind{
		"INT": KindInt, "integer": KindInt, "BIGINT": KindInt,
		"FLOAT": KindFloat, "real": KindFloat, "DECIMAL": KindFloat,
		"TEXT": KindString, "VarChar": KindString,
		"BOOL": KindBool, "boolean": KindBool,
		"DATE": KindDate, "timestamp": KindDate,
	}
	for name, want := range good {
		got, err := ParseKind(name)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseKind("BLOB"); err == nil {
		t.Error("ParseKind(BLOB) should fail")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 {
		t.Errorf("Int(42) = %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("Float(2.5) = %v", v)
	}
	if v := Text("hi"); v.Kind() != KindString || v.AsString() != "hi" {
		t.Errorf("Text = %v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.AsBool() {
		t.Errorf("Bool(true) = %v", v)
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull misbehaves")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value must be NULL")
	}
}

func TestDate(t *testing.T) {
	d := Date(1961, time.May, 8)
	if d.Kind() != KindDate {
		t.Fatalf("Date kind = %v", d.Kind())
	}
	if got := d.String(); got != "1961-05-08" {
		t.Errorf("Date.String() = %q", got)
	}
	tm := d.AsTime()
	if tm.Year() != 1961 || tm.Month() != time.May || tm.Day() != 8 {
		t.Errorf("AsTime = %v", tm)
	}
	if d2 := DateFromTime(time.Date(1961, 5, 8, 13, 30, 0, 0, time.UTC)); !Equal(d, d2) {
		t.Errorf("DateFromTime ignores time-of-day: %v vs %v", d, d2)
	}
}

// TestDateOutsideDurationRange pins DATE values far from 1970: days are
// counted through Unix seconds, so dates beyond time.Duration's ±292
// years neither clamp nor shift, whichever way they enter.
func TestDateOutsideDurationRange(t *testing.T) {
	for _, tc := range []struct {
		text  string
		year  int
		month time.Month
		day   int
	}{
		{"0001-01-01", 1, time.January, 1},
		{"1066-10-14", 1066, time.October, 14},
		{"1677-09-21", 1677, time.September, 21},
		{"2262-04-12", 2262, time.April, 12},
		{"9999-12-31", 9999, time.December, 31},
	} {
		d := Date(tc.year, tc.month, tc.day)
		if got := d.String(); got != tc.text {
			t.Errorf("Date(%s).String() = %q", tc.text, got)
		}
		if d2 := DateFromTime(time.Date(tc.year, tc.month, tc.day, 23, 59, 0, 0, time.UTC)); !Equal(d, d2) {
			t.Errorf("DateFromTime(%s) = %v, want %v", tc.text, d2, d)
		}
		parsed, err := ParseAs(KindDate, tc.text)
		if err != nil {
			t.Fatalf("ParseAs(DATE, %q): %v", tc.text, err)
		}
		if !Equal(parsed, d) || parsed.String() != tc.text {
			t.Errorf("ParseAs(DATE, %q) = %v, want %v", tc.text, parsed, d)
		}
		if tm := d.AsTime(); tm.Year() != tc.year || tm.Month() != tc.month || tm.Day() != tc.day || tm.Location() != time.UTC {
			t.Errorf("Date(%s).AsTime() = %v", tc.text, tm)
		}
	}
	// Consecutive days stay one apart across the old clamp boundaries.
	for _, pair := range [][2]Value{
		{Date(1677, time.September, 21), Date(1677, time.September, 22)},
		{Date(2262, time.April, 11), Date(2262, time.April, 12)},
	} {
		if c, err := Compare(pair[0], pair[1]); err != nil || c >= 0 {
			t.Errorf("%v does not sort before %v (%d, %v)", pair[0], pair[1], c, err)
		}
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-7), "-7"},
		{Float(2.5), "2.5"},
		{Text("abc"), "abc"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Date(2019, 1, 2), "2019-01-02"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
}

func TestSQLLiteral(t *testing.T) {
	if got := Text("O'Brien").SQLLiteral(); got != "'O''Brien'" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := Int(5).SQLLiteral(); got != "5" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := Date(2020, 3, 4).SQLLiteral(); got != "'2020-03-04'" {
		t.Errorf("SQLLiteral = %q", got)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{Float(1.5), Int(2), -1},
		{Text("a"), Text("b"), -1},
		{Text("b"), Text("b"), 0},
		{Bool(false), Bool(true), -1},
		{Date(2020, 1, 1), Date(2021, 1, 1), -1},
		{Text("10"), Int(9), 1},  // numeric string coerces
		{Int(9), Text("10"), -1}, // mirrored
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Errorf("Compare(%v, %v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := Compare(Null(), Int(1)); err == nil {
		t.Error("Compare with NULL should error")
	}
}

func TestEqual(t *testing.T) {
	if !Equal(Int(2), Float(2)) {
		t.Error("2 == 2.0 under coercion")
	}
	if Equal(Null(), Null()) {
		t.Error("NULL never equals NULL")
	}
	if Equal(Text("a"), Text("b")) {
		t.Error("a != b")
	}
}

func TestKeyAgreesWithEqual(t *testing.T) {
	pairs := [][2]Value{
		{Int(2), Float(2)},
		{Int(-1), Float(-1)},
		{Bool(true), Bool(true)},
	}
	for _, p := range pairs {
		if p[0].Key() != p[1].Key() {
			t.Errorf("equal values %v and %v have different keys %q %q", p[0], p[1], p[0].Key(), p[1].Key())
		}
	}
	if Int(1).Key() == Text("1").Key() {
		t.Error("int 1 and text \"1\" must not share a key")
	}
}

func TestArithmetic(t *testing.T) {
	check := func(got Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if !Equal(got, want) && !(got.IsNull() && want.IsNull()) {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	v, err := Add(Int(2), Int(3))
	check(v, err, Int(5))
	if v.Kind() != KindInt {
		t.Errorf("int+int should stay INTEGER, got %v", v.Kind())
	}
	v, err = Add(Text("ab"), Text("cd"))
	check(v, err, Text("abcd"))
	v, err = Sub(Int(2), Float(0.5))
	check(v, err, Float(1.5))
	v, err = Mul(Int(4), Int(5))
	check(v, err, Int(20))
	v, err = Div(Int(5), Int(2))
	check(v, err, Float(2.5))
	if _, err := Div(Int(1), Int(0)); err == nil {
		t.Error("division by zero should error")
	}
	// NULL propagation.
	v, err = Add(Null(), Int(1))
	check(v, err, Null())
	v, err = Div(Null(), Int(0)) // NULL wins before the zero check
	check(v, err, Null())
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		in   Value
		to   Kind
		want Value
		ok   bool
	}{
		{Int(5), KindFloat, Float(5), true},
		{Float(5.0), KindInt, Int(5), true},
		{Float(5.5), KindInt, Null(), false},
		{Text("42"), KindInt, Int(42), true},
		{Text("2.5"), KindFloat, Float(2.5), true},
		{Text("yes"), KindBool, Bool(true), true},
		{Int(7), KindString, Text("7"), true},
		{Text("2020-01-02"), KindDate, Date(2020, 1, 2), true},
		{Null(), KindInt, Null(), true},
		// A float is an INTEGER only inside int64's range (IntOf).
		{Float(1e300), KindInt, Null(), false},
		{Float(math.Inf(1)), KindInt, Null(), false},
		{Float(math.Inf(-1)), KindInt, Null(), false},
		{Float(math.NaN()), KindInt, Null(), false},
		{Float(1 << 63), KindInt, Null(), false},
		{Float(-(1 << 63)), KindInt, Int(math.MinInt64), true},
		{Float(math.Copysign(0, -1)), KindInt, Int(0), true},
	}
	for _, c := range cases {
		got, err := Coerce(c.in, c.to)
		if c.ok && err != nil {
			t.Errorf("Coerce(%v, %v): %v", c.in, c.to, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("Coerce(%v, %v) should fail", c.in, c.to)
			}
			continue
		}
		if !Equal(got, c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("Coerce(%v, %v) = %v, want %v", c.in, c.to, got, c.want)
		}
	}
}

func TestParseAs(t *testing.T) {
	cases := []struct {
		kind Kind
		in   string
		want Value
		ok   bool
	}{
		{KindInt, "42", Int(42), true},
		{KindInt, " 42 ", Int(42), true},
		{KindInt, "42.0", Int(42), true},
		{KindInt, "4.2", Null(), false},
		{KindFloat, "3.14", Float(3.14), true},
		{KindBool, "yes", Bool(true), true},
		{KindBool, "N", Bool(false), true},
		{KindDate, "1961-05-08", Date(1961, 5, 8), true},
		{KindDate, "May 8, 1961", Date(1961, 5, 8), true},
		{KindDate, "8 May 1961", Date(1961, 5, 8), true},
		{KindDate, "not a date", Null(), false},
		{KindString, "  padded  ", Text("padded"), true},
		{KindInt, "", Null(), true},        // empty → NULL
		{KindInt, "Unknown", Null(), true}, // refusal → NULL
		// A float is an INTEGER only inside int64's range (IntOf), and
		// NaN and ±Inf are no FLOAT.
		{KindInt, "1e300", Null(), false},
		{KindInt, "inf", Null(), false},
		{KindInt, "-Inf", Null(), false},
		{KindInt, "NaN", Null(), false},
		{KindInt, "9.3e18", Null(), false},
		{KindInt, "-9.3e18", Null(), false},
		{KindInt, "9.223372036854775807e18", Null(), false}, // 2^63 as a float
		{KindInt, "-9.223372036854775808e18", Int(math.MinInt64), true},
		{KindInt, "9223372036854775807", Int(math.MaxInt64), true},
		{KindFloat, "NaN", Null(), false},
		{KindFloat, "inf", Null(), false},
		{KindFloat, "-Infinity", Null(), false},
	}
	for _, c := range cases {
		got, err := ParseAs(c.kind, c.in)
		if c.ok && err != nil {
			t.Errorf("ParseAs(%v, %q): %v", c.kind, c.in, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("ParseAs(%v, %q) should fail", c.kind, c.in)
			}
			continue
		}
		if !Equal(got, c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("ParseAs(%v, %q) = %v, want %v", c.kind, c.in, got, c.want)
		}
	}
}

func TestTruthy(t *testing.T) {
	truthy := []Value{Int(1), Int(-1), Float(0.1), Text("x"), Bool(true), Date(2020, 1, 2)}
	falsy := []Value{Null(), Int(0), Float(0), Text(""), Bool(false)}
	for _, v := range truthy {
		if !v.Truthy() {
			t.Errorf("%v should be truthy", v)
		}
	}
	for _, v := range falsy {
		if v.Truthy() {
			t.Errorf("%v should be falsy", v)
		}
	}
}

// Property: Compare is antisymmetric over ints and floats.
func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Int(int64(a)), Float(float64(b))
		ab, err1 := Compare(x, y)
		ba, err2 := Compare(y, x)
		return err1 == nil && err2 == nil && ab == -ba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add over ints is commutative and matches int64 addition when
// no overflow occurs.
func TestAddCommutative(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Int(int64(a)), Int(int64(b))
		ab, err1 := Add(x, y)
		ba, err2 := Add(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return Equal(ab, ba) && ab.AsInt() == int64(a)+int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String then ParseAs round-trips ints and dates.
func TestRoundTrip(t *testing.T) {
	f := func(a int32) bool {
		v := Int(int64(a))
		back, err := ParseAs(KindInt, v.String())
		return err == nil && Equal(v, back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(days uint16) bool {
		d := DateFromTime(time.Date(1970, time.January, 1+int(days), 0, 0, 0, 0, time.UTC))
		back, err := ParseAs(KindDate, d.String())
		return err == nil && Equal(d, back)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestNumeric(t *testing.T) {
	if f, ok := Int(3).Numeric(); !ok || f != 3 {
		t.Error("Int Numeric")
	}
	if f, ok := Float(2.5).Numeric(); !ok || f != 2.5 {
		t.Error("Float Numeric")
	}
	if _, ok := Text("x").Numeric(); ok {
		t.Error("Text is not numeric")
	}
	if f, ok := Bool(true).Numeric(); !ok || f != 1 {
		t.Error("Bool numeric is 0/1")
	}
	if f, ok := Date(1970, 1, 2).Numeric(); !ok || f != 1 {
		t.Error("Date numeric is days since epoch")
	}
}

func TestModEdge(t *testing.T) {
	// Exercised through Div path indirectly; ensure Inf never leaks from
	// numericOp int promotion.
	v, err := Mul(Float(math.MaxFloat64), Float(2))
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind() != KindFloat {
		t.Errorf("overflowing product stays FLOAT, got %v", v.Kind())
	}
}
