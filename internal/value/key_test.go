package value_test

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/value"
)

// refKey is Key as the engine first wrote it, one string per kind, kept
// as the reference AppendKey's bytes must reproduce, except that a FLOAT
// −0 keys as 0 (it equals 0 under Compare).
func refKey(v value.Value) string {
	switch v.Kind() {
	case value.KindNull:
		return "\x00null"
	case value.KindString:
		return "s:" + v.AsString()
	case value.KindBool:
		if v.AsBool() {
			return "b:1"
		}
		return "b:0"
	case value.KindDate:
		return "d:" + strconv.FormatInt(v.AsTime().Unix()/(24*60*60), 10)
	case value.KindInt:
		return "n:" + strconv.FormatFloat(float64(v.AsInt()), 'g', -1, 64)
	case value.KindFloat:
		f := v.AsFloat()
		if f == 0 {
			f = 0
		}
		return "n:" + strconv.FormatFloat(f, 'g', -1, 64)
	default:
		return "?"
	}
}

// fuzzValue builds a value of the kind k selects (modulo the kinds) from
// the fuzzer's payloads.
func fuzzValue(k uint8, i int64, f float64, s string) value.Value {
	switch value.Kind(k % 6) {
	case value.KindInt:
		return value.Int(i)
	case value.KindFloat:
		return value.Float(f)
	case value.KindString:
		return value.Text(s)
	case value.KindBool:
		return value.Bool(i&1 == 1)
	case value.KindDate:
		// Days within ±1e6 years of the epoch, where the time package's
		// calendar is exact.
		return value.DateFromTime(time.Unix(0, 0).UTC().AddDate(0, 0, int(i%365_000_000)))
	default:
		return value.Null()
	}
}

// FuzzAppendKey checks AppendKey against the reference key on every
// kind: appended after any prefix, it adds exactly Key's bytes, and
// Key is the reference; a tuple's AppendKey is its fields' keys, each
// followed by 0x1f, and equals its Key. An INTEGER shares its key with
// the FLOAT it converts to, also above 2^53, where the integer rounds.
func FuzzAppendKey(f *testing.F) {
	for _, seed := range []struct {
		k   uint8
		i   int64
		f   float64
		s   string
		pre string
	}{
		{0, 0, 0, "", ""},
		{1, 1 << 53, 0, "", "x"},
		{1, 1<<53 + 1, float64(1 << 53), "", ""},
		{1, math.MaxInt64, math.MinInt64, "", ""},
		{1, math.MinInt64, 0, "", ""},
		{2, 0, math.Copysign(0, -1), "", "prefix\x1f"},
		{2, 0, math.SmallestNonzeroFloat64, "", ""},
		{2, 0, math.NaN(), "", ""},
		{2, 0, math.Inf(1), "", ""},
		{2, 0, math.Inf(-1), "", ""},
		{2, 0, 1e21, "", ""},
		{3, 0, 0, "", ""},
		{3, 0, 0, "Rome\x1fs:x", "s:"},
		{3, 0, 0, "naïve 北京", ""},
		{4, 1, 0, "", ""},
		{5, -719162, 0, "", ""},
		{5, 20000, 0, "", ""},
	} {
		f.Add(seed.k, seed.i, seed.f, seed.s, seed.pre)
	}
	f.Fuzz(func(t *testing.T, k uint8, i int64, fl float64, s, pre string) {
		v := fuzzValue(k, i, fl, s)
		want := refKey(v)
		if got := v.Key(); got != want {
			t.Fatalf("%#v: Key = %q, want %q", v, got, want)
		}
		if got := string(v.AppendKey(nil)); got != want {
			t.Fatalf("%#v: AppendKey(nil) = %q, want %q", v, got, want)
		}
		buf := append(make([]byte, 0, len(pre)+1), pre...)
		if got := string(v.AppendKey(buf)); got != pre+want {
			t.Fatalf("%#v: AppendKey(%q) = %q, want %q", v, pre, got, pre+want)
		}
		if n, x := value.Int(i), value.Float(float64(i)); n.Key() != x.Key() {
			t.Fatalf("value.Int(%d) keys %q, the FLOAT it converts to %q", i, n.Key(), x.Key())
		}
		tup := schema.Tuple{v, value.Text(s), value.Int(i), value.Float(fl), value.Null()}
		var ref strings.Builder
		for _, x := range tup {
			ref.WriteString(refKey(x))
			ref.WriteByte('\x1f')
		}
		if got := tup.Key(); got != ref.String() {
			t.Fatalf("%v: Tuple.Key = %q, want %q", tup, got, ref.String())
		}
		if got := string(tup.AppendKey(buf)); got != pre+ref.String() {
			t.Fatalf("%v: Tuple.AppendKey(%q) = %q, want %q", tup, pre, got, pre+ref.String())
		}
		if got := string(tup[:0].AppendKey(nil)); got != "" {
			t.Fatalf("empty tuple's key = %q", got)
		}
	})
}
