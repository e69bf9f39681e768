package clean

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestStrip(t *testing.T) {
	cases := map[string]string{
		"- New York City.":   "New York City",
		"* Paris":            "Paris",
		"• Rome,":            "Rome",
		"1. London":          "London",
		"2) Berlin":          "Berlin",
		"(3) Madrid":         "Madrid",
		"  \"Tokyo\"  ":      "Tokyo",
		"Washington D.C.":    "Washington D.C",
		"plain":              "plain",
		"93.7":               "93.7", // decimals are not list markers
		"12. item":           "item",
		"1234. not-a-marker": "1234. not-a-marker", // >3 digits
	}
	for in, want := range cases {
		if got := Strip(in); got != want {
			t.Errorf("Strip(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseNumber(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"42", 42, true},
		{"1,234", 1234, true},
		{"1,234.5", 1234.5, true},
		{"1k", 1000, true},
		{"1.5k", 1500, true},
		{"2.5M", 2.5e6, true},
		{"3 million", 3e6, true},
		{"1.2 billion", 1.2e9, true},
		{"0.5 trillion", 5e11, true},
		{"2 thousand", 2000, true},
		{"$5,400", 5400, true},
		{"about 78 years", 78, true},
		{"approximately 25.6", 25.6, true},
		{"~90", 90, true},
		{"-42", -42, true},
		{"12%", 12, true},
		{"The population of Chicago is 2.7 million.", 2.7e6, true},
		{"The height of K2 is 8611.", 8611, true}, // digit glued to a letter skipped
		{"1.2e9", 1.2e9, true},
		{"1.2e9 people", 1.2e9, true},
		{"about 3.4E6 km", 3.4e6, true},
		{"2.5e+12 dollars", 2.5e12, true},
		{"-4e-3 units", -4e-3, true},
		{"12 eggs", 12, true},
		{"5e", 5, true},
		{"5e+", 5, true},
		{"7 e9", 7, true},
		{"no numbers here", 0, false},
		{"", 0, false},
		{"K2", 0, false},
		{"1e999", 0, false},
		{"1.8e308", 0, false},
		{"-2e308 people", 0, false},
		{strings.Repeat("9", 300) + " trillion", 0, false},
		{"1.7e308", 1.7e308, true},
		{"1e-999", 0, true},
	}
	for _, c := range cases {
		got, ok := ParseNumber(c.in)
		if ok != c.ok {
			t.Errorf("ParseNumber(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if ok && got != c.want {
			t.Errorf("ParseNumber(%q) = %g, want %g", c.in, got, c.want)
		}
	}
}

// Property: ParseNumber inverts comma formatting of integers.
func TestParseNumberCommasRoundTrip(t *testing.T) {
	f := func(n int32) bool {
		s := commaFormat(int64(n))
		got, ok := ParseNumber(s)
		return ok && got == float64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzParseNumber throws arbitrary model answers at the numeric decoder.
// It must never panic, an ok result must be finite, and it must read
// back every finite float the way strconv's shortest 'g' form prints it,
// bare or followed by a unit.
//
// Run with: go test -run '^$' -fuzz FuzzParseNumber -fuzztime 30s ./internal/clean
func FuzzParseNumber(f *testing.F) {
	seeds := []struct {
		s string
		x float64
	}{
		{"1.2 million", 1.2e6},
		{"about 3.4E6 km", 3.4e21},
		{"$5,400", -1.5e-7},
		{"The height of K2 is 8611.", 8611},
		{"5e", 5e-324},
		{"12 eggs", math.MaxFloat64},
		{"1e999", 1},
		{"-2e308 people", 1},
	}
	for _, s := range seeds {
		f.Add(s.s, s.x)
	}
	f.Fuzz(func(t *testing.T, s string, x float64) {
		if got, ok := ParseNumber(s); ok && (math.IsNaN(got) || math.IsInf(got, 0)) {
			t.Errorf("ParseNumber(%q) = %g, true; want a finite number", s, got)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		g := strconv.FormatFloat(x, 'g', -1, 64)
		for _, in := range []string{g, g + " units"} {
			if got, ok := ParseNumber(in); !ok || got != x {
				t.Errorf("ParseNumber(%q) = %g, %v; want %g, true", in, got, ok, x)
			}
		}
	})
}

func commaFormat(n int64) string {
	s := strconv.FormatInt(n, 10)
	neg := false
	if s[0] == '-' {
		neg, s = true, s[1:]
	}
	var out []byte
	for i, d := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, d)
	}
	if neg {
		return "-" + string(out)
	}
	return string(out)
}

func TestParseDate(t *testing.T) {
	want := value.Date(1961, 5, 8)
	for _, in := range []string{"1961-05-08", "May 8, 1961", "8 May 1961", "May 8 1961"} {
		got, ok := ParseDate(in)
		if !ok || !value.Equal(got, want) {
			t.Errorf("ParseDate(%q) = %v, %v", in, got, ok)
		}
	}
	if _, ok := ParseDate("not a date"); ok {
		t.Error("garbage should not parse as a date")
	}
}

func TestCellTyped(t *testing.T) {
	c := New(DefaultOptions())
	if v := c.Cell("1.2 million", value.KindInt); v.AsInt() != 1200000 {
		t.Errorf("int cell = %v", v)
	}
	if v := c.Cell("3.5", value.KindFloat); v.AsFloat() != 3.5 {
		t.Errorf("float cell = %v", v)
	}
	if v := c.Cell("May 8, 1961", value.KindDate); !value.Equal(v, value.Date(1961, 5, 8)) {
		t.Errorf("date cell = %v", v)
	}
	if v := c.Cell("yes", value.KindBool); !v.AsBool() {
		t.Errorf("bool cell = %v", v)
	}
	if v := c.Cell("  Rome. ", value.KindString); v.AsString() != "Rome" {
		t.Errorf("string cell = %v", v)
	}
	if v := c.Cell("Unknown", value.KindInt); !v.IsNull() {
		t.Errorf("Unknown must become NULL, got %v", v)
	}
	// Type enforcement turns garbage into NULL.
	if v := c.Cell("not a number", value.KindInt); !v.IsNull() {
		t.Errorf("enforced garbage = %v", v)
	}
	// Without normalization, garbage passes through as text.
	loose := New(Options{})
	if v := loose.Cell("not a number", value.KindInt); v.Kind() != value.KindString {
		t.Errorf("unenforced garbage = %v (%v)", v, v.Kind())
	}
}

// TestCellIntRange: a numeric answer outside int64's range is no
// INTEGER: NULL when normalizing, the answer's text when not, never a
// wrapped -2^63; nor is NaN a FLOAT.
func TestCellIntRange(t *testing.T) {
	norm, loose := New(DefaultOptions()), New(Options{})
	for _, tc := range []struct {
		raw  string
		kind value.Kind
	}{
		{"99999999999999999999", value.KindInt},
		{"-99999999999999999999", value.KindInt},
		{"about 12000000000000000000 people", value.KindInt},
		{"1e300", value.KindInt},
		{"inf", value.KindInt},
		{"NaN", value.KindFloat},
		{"-Inf", value.KindFloat},
		{"1e999", value.KindInt},
		{"1e999", value.KindFloat},
		{"about -2e308 people", value.KindFloat},
		{strings.Repeat("9", 300) + " trillion", value.KindFloat},
	} {
		if v := norm.Cell(tc.raw, tc.kind); !v.IsNull() {
			t.Errorf("normalized %v cell %q = %v (%v), want NULL", tc.kind, tc.raw, v, v.Kind())
		}
		if v := loose.Cell(tc.raw, tc.kind); v.Kind() != value.KindString {
			t.Errorf("unnormalized %v cell %q = %v (%v), want its text", tc.kind, tc.raw, v, v.Kind())
		}
	}
	if v := norm.Cell("9.2e18", value.KindInt); v.Kind() != value.KindInt || v.AsInt() != 9200000000000000000 {
		t.Errorf("normalized cell 9.2e18 = %v (%v)", v, v.Kind())
	}
}

func TestCellCanonicalizer(t *testing.T) {
	canon := NewCanonicalizer(map[string]string{"IT": "ITA", "usa": "United States", "U.S.": "United States"})
	c := New(Options{Normalize: true, Canonicalizer: canon})
	if v := c.Cell("IT", value.KindString); v.AsString() != "ITA" {
		t.Errorf("canonicalized cell = %v", v)
	}
	if got := c.Key("- USA."); got != "United States" {
		t.Errorf("canonicalized key = %q", got)
	}
	if canon.Len() != 3 {
		t.Errorf("Len = %d", canon.Len())
	}
	if canon.Apply("u.s.") != "United States" {
		t.Error("case-insensitive Apply failed")
	}
	if canon.Apply("France") != "France" {
		t.Error("unknown values pass through")
	}
}

func TestSplitList(t *testing.T) {
	got := SplitList("- Paris\n- Rome\n- Paris\n- London")
	if len(got) != 3 || got[0] != "Paris" || got[2] != "London" {
		t.Errorf("SplitList dedup = %v", got)
	}
	got = SplitList("Paris, Rome, London")
	if len(got) != 3 {
		t.Errorf("comma list = %v", got)
	}
	got = SplitList("Here are some cities:\n- Paris\n- Rome")
	if len(got) != 2 || got[0] != "Paris" {
		t.Errorf("chatty prefix should be dropped: %v", got)
	}
	if got := SplitList(""); got != nil {
		t.Errorf("empty = %v", got)
	}
	got = SplitList("Unknown")
	if len(got) != 0 {
		t.Errorf("Unknown = %v", got)
	}
}

func TestKeyUnknown(t *testing.T) {
	c := New(DefaultOptions())
	if got := c.Key("n/a"); got != "" {
		t.Errorf("Key(n/a) = %q", got)
	}
	if got := c.Key("- Rome,"); got != "Rome" {
		t.Errorf("Key = %q", got)
	}
}
