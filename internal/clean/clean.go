// Package clean normalizes the raw strings an LLM returns into typed cell
// values (Section 4 of the paper: "We normalize every string expressing a
// numerical value (say, 1k) into a number (1000). The enforcing of type
// and domain constraints is a simple but crucial step to limit the
// incorrect output due to model hallucinations.").
//
// The package is deliberately LLM-agnostic string surgery: numeric surface
// forms ("1.2 million", "$5,400", "78 years"), multiple date formats, list
// markers, and a pluggable canonicalizer for entity codes (the IT vs ITA
// join-failure fix explored by Ablation C).
package clean

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/value"
)

// Options select which normalizations a Cleaner applies.
type Options struct {
	// Normalize converts "1k" / "3.5 million" / "$1,200" style strings
	// into plain numbers before typing, and enforces types: a value that
	// cannot be parsed as the expected column type becomes NULL instead
	// of polluting results. Off, unparseable values pass through as TEXT.
	Normalize bool
	// Canonicalizer, when non-nil, rewrites known surface-form aliases to
	// a canonical spelling before string values are stored (e.g. alpha-2
	// country codes to alpha-3).
	Canonicalizer *Canonicalizer
}

// DefaultOptions is the paper-faithful configuration (numbers normalized,
// types enforced, no code canonicalization).
func DefaultOptions() Options {
	return Options{Normalize: true}
}

// Cleaner applies the configured normalizations.
type Cleaner struct {
	opts Options
}

// New builds a Cleaner.
func New(opts Options) *Cleaner { return &Cleaner{opts: opts} }

// Options reports the normalizations the Cleaner applies. Two Cleaners
// with equal Options clean every answer alike.
func (c *Cleaner) Options() Options { return c.opts }

// Cell converts one raw LLM answer into a typed value for a column of the
// given kind. With Normalize on, unparseable strings become NULL; off,
// they pass through as TEXT.
func (c *Cleaner) Cell(raw string, kind value.Kind) value.Value {
	s := Strip(raw)
	if s == "" || isUnknown(s) {
		return value.Null()
	}
	if c.opts.Canonicalizer != nil && kind == value.KindString {
		s = c.opts.Canonicalizer.Apply(s)
	}
	switch kind {
	case value.KindInt, value.KindFloat:
		if c.opts.Normalize {
			if f, ok := ParseNumber(s); ok {
				if kind == value.KindFloat {
					return value.Float(f)
				}
				if v, ok := value.IntOf(math.Round(f)); ok {
					return v
				}
			}
		} else if v, err := value.ParseAs(kind, s); err == nil {
			return v
		}
	case value.KindDate:
		if v, ok := ParseDate(s); ok {
			return v
		}
	case value.KindBool:
		if v, err := value.ParseAs(value.KindBool, s); err == nil {
			return v
		}
	case value.KindString:
		return value.Text(s)
	}
	if c.opts.Normalize {
		return value.Null()
	}
	return value.Text(s)
}

// Key cleans a key-attribute string from a list response: strip markers
// and decorations, keep the entity name, canonicalize if configured.
func (c *Cleaner) Key(raw string) string {
	s := Strip(raw)
	if isUnknown(s) {
		return ""
	}
	if c.opts.Canonicalizer != nil {
		s = c.opts.Canonicalizer.Apply(s)
	}
	return s
}

// Strip removes list markers, surrounding punctuation and whitespace from
// one response line: "- New York City." → "New York City".
func Strip(s string) string {
	s = strings.TrimSpace(s)
	// Leading bullets and enumerations: "-", "*", "•", "1.", "2)", "(3)".
	for {
		t := strings.TrimLeft(s, "-*•· \t")
		t = strings.TrimSpace(t)
		if n := leadingEnumeration(t); n > 0 {
			t = strings.TrimSpace(t[n:])
		}
		if t == s {
			break
		}
		s = t
	}
	s = strings.Trim(s, " \t\"'")
	s = strings.TrimRight(s, ".,;: ")
	return strings.TrimSpace(s)
}

// leadingEnumeration returns the byte length of a leading "12." / "12)" /
// "(12)" marker, or 0.
func leadingEnumeration(s string) int {
	i := 0
	open := false
	if i < len(s) && s[i] == '(' {
		open = true
		i++
	}
	start := i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == start || i-start > 3 {
		return 0
	}
	if i < len(s) && (s[i] == '.' || s[i] == ')') {
		if open && s[i] != ')' {
			return 0
		}
		// A marker must be followed by a space (or end the string);
		// otherwise "93.7" would lose its integer part.
		if i+1 < len(s) && s[i+1] != ' ' {
			return 0
		}
		return i + 1
	}
	return 0
}

// unknownAnswers are the answers that mean the model does not know.
var unknownAnswers = []string{"unknown", "n/a", "na", "none", "null", "i don't know", "i do not know", "not available", "no answer"}

func isUnknown(s string) bool {
	s = strings.TrimSpace(s)
	for _, u := range unknownAnswers {
		if strings.EqualFold(s, u) {
			return true
		}
	}
	return false
}

// magnitudes maps spelled-out and abbreviated magnitude suffixes to their
// multipliers.
var magnitudes = []struct {
	suffix string
	mult   float64
}{
	{"trillion", 1e12},
	{"billion", 1e9},
	{"million", 1e6},
	{"thousand", 1e3},
	{"bn", 1e9},
	{"tn", 1e12},
	{"mm", 1e6},
	{"k", 1e3},
	{"m", 1e6},
	{"b", 1e9},
	{"t", 1e12},
}

// ParseNumber extracts a numeric value from a human-formatted string:
// "1,234", "1.2M", "3.5 million", "$5,400", "about 78 years", "12%".
// It returns false when no usable number is present.
func ParseNumber(s string) (float64, bool) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, false
	}
	// Trim qualifiers and currency decorations.
	for _, prefix := range []string{"about", "around", "approximately", "approx.", "approx", "roughly", "over", "under", "nearly", "~"} {
		s = strings.TrimSpace(strings.TrimPrefix(s, prefix))
	}
	s = strings.TrimLeft(s, "$€£¥ ")

	// Find the first numeric token; chatty answers wrap the number in a
	// sentence ("The population of Chicago is 2.7 million."). Digits glued
	// to letters ("K2", "A380") are part of a word, not a number.
	firstDigit := -1
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			continue
		}
		if i > 0 {
			prev := s[i-1]
			if prev >= 'a' && prev <= 'z' || prev >= 'A' && prev <= 'Z' {
				// Skip the rest of this word.
				for i < len(s) && s[i] != ' ' {
					i++
				}
				continue
			}
		}
		firstDigit = i
		break
	}
	if firstDigit < 0 {
		return 0, false
	}
	if firstDigit > 0 {
		cut := firstDigit
		if s[cut-1] == '-' || s[cut-1] == '+' || s[cut-1] == '.' {
			cut--
		}
		s = s[cut:]
	}

	// Locate the leading numeric token.
	i := 0
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		i++
	}
	start := i
	dots := 0
	for i < len(s) {
		ch := s[i]
		if ch >= '0' && ch <= '9' || ch == ',' {
			i++
			continue
		}
		if ch == '.' && dots == 0 {
			dots++
			i++
			continue
		}
		break
	}
	if i == start {
		return 0, false
	}
	numTok := strings.ReplaceAll(s[:i], ",", "")
	f, err := strconv.ParseFloat(numTok, 64)
	if err != nil {
		return 0, false
	}

	// Scientific notation survives ("1.2e9 people"): an exponent is "e",
	// an optional sign and at least one digit, right after the mantissa.
	if j := exponentEnd(s, i); j > i {
		if full, err := strconv.ParseFloat(numTok+s[i:j], 64); err == nil {
			return full, true
		}
	}
	rest := strings.TrimSpace(s[i:])
	for _, m := range magnitudes {
		// The suffix is a whole word: the rest ends there, or goes on
		// with a space, a period or a comma.
		if strings.HasPrefix(rest, m.suffix) {
			if n := len(m.suffix); n == len(rest) || rest[n] == ' ' || rest[n] == '.' || rest[n] == ',' {
				return f * m.mult, true
			}
		}
	}
	// Units like "years", "people", "km²", "%" are ignored: the number
	// stands.
	return f, true
}

// exponentEnd returns the end of the exponent that starts at s[i] in the
// lower-cased s, or i when there is none ("e", "e+" and "eggs" are not
// exponents).
func exponentEnd(s string, i int) int {
	if i >= len(s) || s[i] != 'e' {
		return i
	}
	j := i + 1
	if j < len(s) && (s[j] == '+' || s[j] == '-') {
		j++
	}
	digits := j
	for j < len(s) && s[j] >= '0' && s[j] <= '9' {
		j++
	}
	if j == digits {
		return i
	}
	return j
}

// ParseDate parses the date surface forms models produce.
func ParseDate(s string) (value.Value, bool) {
	s = strings.TrimSpace(s)
	layouts := []string{
		"2006-01-02",
		"January 2, 2006",
		"January 2 2006",
		"Jan 2, 2006",
		"Jan 2 2006",
		"2 January 2006",
		"02/01/2006",
		"01/02/2006",
		"2006/01/02",
	}
	for _, l := range layouts {
		if t, err := time.Parse(l, s); err == nil {
			return value.DateFromTime(t), true
		}
	}
	return value.Null(), false
}

// Canonicalizer rewrites known aliases to canonical spellings. Lookups are
// case-insensitive; the canonical form is returned verbatim. It is
// immutable once built, so one pointer always means one alias table and
// Options compare by value.
type Canonicalizer struct {
	aliases map[string]string
}

// NewCanonicalizer builds a canonicalizer from alias→canonical pairs.
func NewCanonicalizer(pairs map[string]string) *Canonicalizer {
	m := make(map[string]string, len(pairs))
	for alias, canon := range pairs {
		m[strings.ToLower(strings.TrimSpace(alias))] = canon
	}
	return &Canonicalizer{aliases: m}
}

// Fingerprint digests the alias table into a short stable string, so
// engine tiers can fold the cleaning configuration into cache keys. A
// nil canonicalizer fingerprints as the empty string.
func (c *Canonicalizer) Fingerprint() string {
	if c == nil {
		return ""
	}
	keys := make([]string, 0, len(c.aliases))
	for k := range c.aliases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'='})
		h.Write([]byte(c.aliases[k]))
		h.Write([]byte{';'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Apply rewrites s if it is a known alias; otherwise s is returned
// unchanged.
func (c *Canonicalizer) Apply(s string) string {
	if canon, ok := c.aliases[strings.ToLower(strings.TrimSpace(s))]; ok {
		return canon
	}
	return s
}

// Len reports the number of registered aliases.
func (c *Canonicalizer) Len() int { return len(c.aliases) }

// SplitList breaks a list-style completion into items: one per line for
// bulleted output, comma-separated otherwise.
func SplitList(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var parts []string
	if strings.Contains(s, "\n") {
		parts = strings.Split(s, "\n")
	} else {
		parts = strings.Split(s, ",")
	}
	var out []string
	seen := map[string]bool{}
	for _, p := range parts {
		// Chatty preamble lines ("Here are some cities:") end with a
		// colon; they are framing, not data.
		if strings.HasSuffix(strings.TrimSpace(p), ":") {
			continue
		}
		item := Strip(p)
		if item == "" || isUnknown(item) {
			continue
		}
		lower := strings.ToLower(item)
		if seen[lower] {
			continue
		}
		seen[lower] = true
		out = append(out, item)
	}
	return out
}
