// Package value implements the typed scalar values that flow through the
// Galois query engine. A Value is a small immutable tagged union covering
// the SQL types the engine supports (NULL, INTEGER, FLOAT, TEXT, BOOLEAN,
// DATE). Values coming back from an LLM are strings first; this package
// owns the parsing and coercion rules that turn those strings into typed
// cells, and the comparison semantics used by filters, joins and sorts.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind maps a SQL type name to a Kind. It accepts the common aliases
// found in CREATE TABLE statements.
func ParseKind(name string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return KindInt, nil
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC":
		return KindFloat, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING":
		return KindString, nil
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	case "DATE", "DATETIME", "TIMESTAMP":
		return KindDate, nil
	default:
		return KindNull, fmt.Errorf("value: unknown type name %q", name)
	}
}

// Value is an immutable typed scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64 // KindInt; KindBool (0/1); KindDate (days since 1970-01-01)
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an INTEGER value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a FLOAT value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Text returns a TEXT value.
func Text(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a BOOLEAN value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// secondsPerDay converts between DATE payloads (days since 1970-01-01)
// and Unix seconds. Days are counted through Unix seconds, not
// time.Duration, whose ±292-year range would clamp earlier and later
// dates.
const secondsPerDay = 24 * 60 * 60

// Date returns a DATE value for the given calendar day.
func Date(year int, month time.Month, day int) Value {
	// A UTC midnight is a whole number of days from the epoch, so the
	// division is exact (and floors) on either side of it.
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{kind: KindDate, i: t.Unix() / secondsPerDay}
}

// DateFromTime returns a DATE value for the day containing t (UTC).
func DateFromTime(t time.Time) Value {
	t = t.UTC()
	return Date(t.Year(), t.Month(), t.Day())
}

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the int64 payload. It is valid only for KindInt.
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the float64 payload. It is valid only for KindFloat.
func (v Value) AsFloat() float64 { return v.f }

// AsString returns the string payload. It is valid only for KindString.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload. It is valid only for KindBool.
func (v Value) AsBool() bool { return v.i != 0 }

// AsTime returns the DATE payload as a UTC midnight time.
// It is valid only for KindDate.
func (v Value) AsTime() time.Time {
	return time.Unix(v.i*secondsPerDay, 0).UTC()
}

// Numeric reports the value as a float64 if it is numeric (INTEGER, FLOAT,
// BOOLEAN or DATE, the last as days since epoch); ok is false otherwise.
func (v Value) Numeric() (f float64, ok bool) {
	switch v.kind {
	case KindInt, KindBool, KindDate:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// String renders the value the way the engine prints result cells.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return v.AsTime().Format("2006-01-02")
	default:
		return fmt.Sprintf("<bad value kind %d>", v.kind)
	}
}

// SQLLiteral renders the value as a SQL literal (strings quoted).
func (v Value) SQLLiteral() string {
	switch v.kind {
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindDate:
		return "'" + v.String() + "'"
	default:
		return v.String()
	}
}

// Key returns a string usable as a hash-map key such that two values that
// compare Equal produce the same key. Numeric values of different kinds
// that represent the same number share a key.
func (v Value) Key() string {
	var buf [48]byte
	return string(v.AppendKey(buf[:0]))
}

// AppendKey appends v's Key to dst and returns the extended buffer, so a
// caller probing a map keyed by Key can build the probe in a buffer it
// reuses and allocate a key string only when it inserts. An INTEGER is
// keyed by its float64 rendering, as a FLOAT equal to it is, so integers
// above 2^53 that round to one float share a key. A FLOAT −0 keys as 0:
// Compare finds them equal, so DISTINCT, GROUP BY and a hash join must
// not tell them apart.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "\x00null"...)
	case KindString:
		return append(append(dst, "s:"...), v.s...)
	case KindBool:
		if v.i != 0 {
			return append(dst, "b:1"...)
		}
		return append(dst, "b:0"...)
	case KindDate:
		return strconv.AppendInt(append(dst, "d:"...), v.i, 10)
	case KindInt:
		return strconv.AppendFloat(append(dst, "n:"...), float64(v.i), 'g', -1, 64)
	case KindFloat:
		f := v.f
		if f == 0 {
			f = 0 // −0
		}
		return strconv.AppendFloat(append(dst, "n:"...), f, 'g', -1, 64)
	default:
		return append(dst, '?')
	}
}

// Equal reports whether a and b are equal under SQL value semantics with
// numeric coercion. NULL equals nothing, including NULL.
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Compare orders a and b, returning -1, 0 or +1. Numeric kinds are compared
// after coercion to float64; strings compare lexicographically
// (case-sensitive); booleans false < true; dates chronologically.
// Comparing NULL or incompatible kinds yields an error.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, fmt.Errorf("value: cannot compare NULL")
	}
	an, aNum := a.Numeric()
	bn, bNum := b.Numeric()
	switch {
	case aNum && bNum:
		switch {
		case an < bn:
			return -1, nil
		case an > bn:
			return 1, nil
		default:
			return 0, nil
		}
	case a.kind == KindString && b.kind == KindString:
		return strings.Compare(a.s, b.s), nil
	case a.kind == KindString || b.kind == KindString:
		// One side is text, the other numeric: try to parse the text side
		// as a number; if that fails, fall back to string comparison.
		if aNum {
			if f, err := strconv.ParseFloat(strings.TrimSpace(b.s), 64); err == nil {
				return cmpFloat(an, f), nil
			}
			return strings.Compare(a.String(), b.s), nil
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(a.s), 64); err == nil {
			return cmpFloat(f, bn), nil
		}
		return strings.Compare(a.s, b.String()), nil
	default:
		return 0, fmt.Errorf("value: cannot compare %s with %s", a.kind, b.kind)
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Arithmetic errors.
var errDivZero = fmt.Errorf("value: division by zero")

// Add returns a+b under numeric coercion. If either side is NULL the
// result is NULL. String operands concatenate.
func Add(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if a.kind == KindString && b.kind == KindString {
		return Text(a.s + b.s), nil
	}
	return numericOp(a, b, "+")
}

// Sub returns a-b under numeric coercion; NULL-propagating.
func Sub(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	return numericOp(a, b, "-")
}

// Mul returns a*b under numeric coercion; NULL-propagating.
func Mul(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	return numericOp(a, b, "*")
}

// Div returns a/b under numeric coercion; NULL-propagating. Integer inputs
// still produce a float result, matching the engine's AVG-friendly
// semantics.
func Div(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	return numericOp(a, b, "/")
}

func numericOp(a, b Value, op string) (Value, error) {
	an, aok := a.Numeric()
	bn, bok := b.Numeric()
	if !aok || !bok {
		return Null(), fmt.Errorf("value: %s is not valid between %s and %s", op, a.kind, b.kind)
	}
	bothInt := a.kind == KindInt && b.kind == KindInt
	var r float64
	switch op {
	case "+":
		r = an + bn
	case "-":
		r = an - bn
	case "*":
		r = an * bn
	case "/":
		if bn == 0 {
			return Null(), errDivZero
		}
		return Float(an / bn), nil
	}
	if bothInt && r == math.Trunc(r) && !math.IsInf(r, 0) {
		return Int(int64(r)), nil
	}
	return Float(r), nil
}

// Coerce converts v to the requested kind, parsing strings when necessary.
// NULL coerces to NULL of any kind. Lossy float→int conversion is allowed
// only when the float has no fractional part.
func Coerce(v Value, to Kind) (Value, error) {
	if v.IsNull() || v.kind == to {
		return v, nil
	}
	switch to {
	case KindInt:
		switch v.kind {
		case KindFloat:
			if i, ok := IntOf(v.f); ok {
				return i, nil
			}
			return Null(), fmt.Errorf("value: cannot coerce %g to INTEGER", v.f)
		case KindBool:
			return Int(v.i), nil
		case KindString:
			return ParseAs(KindInt, v.s)
		}
	case KindFloat:
		switch v.kind {
		case KindInt, KindBool:
			return Float(float64(v.i)), nil
		case KindString:
			return ParseAs(KindFloat, v.s)
		}
	case KindString:
		return Text(v.String()), nil
	case KindBool:
		switch v.kind {
		case KindInt:
			return Bool(v.i != 0), nil
		case KindFloat:
			return Bool(v.f != 0), nil
		case KindString:
			return ParseAs(KindBool, v.s)
		}
	case KindDate:
		if v.kind == KindString {
			return ParseAs(KindDate, v.s)
		}
	}
	return Null(), fmt.Errorf("value: cannot coerce %s to %s", v.kind, to)
}

// dateLayouts lists the date formats ParseAs accepts, most specific first.
var dateLayouts = []string{
	"2006-01-02",
	"2006/01/02",
	"01/02/2006",
	"January 2, 2006",
	"January 2 2006",
	"Jan 2, 2006",
	"Jan 2 2006",
	"2 January 2006",
	"2006",
}

// ParseAs parses s as a value of the requested kind. Strings are trimmed
// first. Empty strings parse to NULL.
func ParseAs(kind Kind, s string) (Value, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "null") || strings.EqualFold(s, "unknown") {
		return Null(), nil
	}
	switch kind {
	case KindString:
		return Text(s), nil
	case KindInt:
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return Int(i), nil
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			if i, ok := IntOf(f); ok {
				return i, nil
			}
		}
		return Null(), fmt.Errorf("value: %q is not an INTEGER", s)
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return Null(), fmt.Errorf("value: %q is not a FLOAT", s)
		}
		return Float(f), nil
	case KindBool:
		switch strings.ToLower(s) {
		case "true", "t", "yes", "y", "1":
			return Bool(true), nil
		case "false", "f", "no", "n", "0":
			return Bool(false), nil
		}
		return Null(), fmt.Errorf("value: %q is not a BOOLEAN", s)
	case KindDate:
		for _, layout := range dateLayouts {
			if t, err := time.Parse(layout, s); err == nil {
				return DateFromTime(t), nil
			}
		}
		return Null(), fmt.Errorf("value: %q is not a DATE", s)
	case KindNull:
		return Null(), nil
	default:
		return Null(), fmt.Errorf("value: cannot parse as %s", kind)
	}
}

// IntOf is the one float→INTEGER rule: f as an INTEGER when it is a
// whole number inside int64's range, else false (a fraction, NaN, ±Inf,
// or beyond ±2^63, which a conversion would wrap). Parsing, coercion and
// cleaning all convert through it.
func IntOf(f float64) (Value, bool) {
	if f != math.Trunc(f) || f < -(1<<63) || f >= 1<<63 {
		return Null(), false
	}
	return Int(int64(f)), true
}

// Truthy reports whether v counts as true in a WHERE clause: non-NULL,
// non-zero, non-empty, or boolean true.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindNull:
		return false
	case KindBool, KindInt, KindDate:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	default:
		return false
	}
}
