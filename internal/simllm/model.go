package simllm

import (
	"context"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/clean"
	"repro/internal/value"
	"repro/internal/world"
)

// Model is one simulated LLM. It implements the llm.Client interface
// (Name/Complete) and is safe for concurrent use: its state is immutable
// after construction, apart from a memo of pure functions, and every
// random decision is a pure hash of (seed, model, inputs).
type Model struct {
	profile Profile
	world   *world.World
	// hseed is the FNV-1a state after hashing "<seed>|<model id>", the
	// prefix every h64 shares.
	hseed     uint64
	questions map[string]QuerySpec
	// known memoises knownKeys per relation (string → []string): a pure
	// function of the seed, the profile and the relation.
	known sync.Map
}

// New builds a model over the world with the given noise seed.
func New(p Profile, w *world.World, seed int64) *Model {
	return &Model{
		profile:   p,
		world:     w,
		hseed:     fnvString(fnvOffset64, strconv.FormatInt(seed, 10)+"|"+p.ID),
		questions: map[string]QuerySpec{},
	}
}

// Name implements llm.Client.
func (m *Model) Name() string { return m.profile.ID }

// Profile returns the model's noise profile.
func (m *Model) Profile() Profile { return m.profile }

// RegisterQuestions adds NL question → semantic spec entries to the
// model's question understanding (see qa.go). The benchmark corpus calls
// this once per model.
func (m *Model) RegisterQuestions(bank map[string]QuerySpec) {
	for q, spec := range bank {
		m.questions[normalizeQuestion(q)] = spec
	}
}

// Complete implements llm.Client: parse the prompt, answer with noise.
func (m *Model) Complete(ctx context.Context, promptText string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	out := m.dispatch(promptText)
	// Re-check after the simulated work: a per-attempt deadline that
	// fired while the completion was being produced must win over the
	// completion, or the transport above would see a success from an
	// attempt it has already written off (and let a cache store it).
	if err := ctx.Err(); err != nil {
		return "", err
	}
	return out, nil
}

// ------------------------------------------------------------ determinism

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvString continues an FNV-1a hash h over the bytes of s.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fnvLower continues h over strings.ToLower(s). It lower-cases ASCII
// inline and hands anything else to strings.ToLower, so only a string
// with non-ASCII bytes allocates.
func fnvLower(h uint64, s string) uint64 {
	start := h
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return fnvString(start, strings.ToLower(s))
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// h64 hashes the seed, model id and parts with FNV-1a: the prefix
// "<seed>|<model id>", then per part a 0x1f separator and the lower-cased
// part.
func (m *Model) h64(parts ...string) uint64 {
	h := m.hseed
	for _, p := range parts {
		h = fnvLower((h^0x1f)*fnvPrime64, p)
	}
	return h
}

// h01 maps a hash to [0,1).
func (m *Model) h01(parts ...string) float64 {
	return float64(m.h64(parts...)%1e9) / 1e9
}

// hInt maps a hash to [0,n).
func (m *Model) hInt(n int, parts ...string) int {
	if n <= 0 {
		return 0
	}
	return int(m.h64(parts...) % uint64(n))
}

// ----------------------------------------------------------------- recall

// knows reports whether the model recalls the entity at all.
func (m *Model) knows(rel, key string, pop float64) bool {
	p := m.profile.KnowFloor + (m.profile.KnowCeil-m.profile.KnowFloor)*math.Pow(pop, m.profile.RecallBias)
	return m.h01("know", rel, key) < p
}

// knownKeys returns the keys the model recalls, most popular first. The
// slice is shared by every caller: it is read-only.
func (m *Model) knownKeys(rel string) []string {
	if keys, ok := m.known.Load(rel); ok {
		return keys.([]string)
	}
	var out []string
	for _, kp := range m.world.KeysByPopularity(rel) {
		if m.knows(rel, kp.Key, kp.Pop) {
			out = append(out, kp.Key)
		}
	}
	m.known.Store(rel, out)
	return out
}

// ---------------------------------------------------------------- beliefs

// belief returns what the model thinks the value of (rel, key, attr) is.
// ok is false when the model would answer "Unknown". Beliefs are stable:
// asking twice gives the same answer.
func (m *Model) belief(rel, key, attr string) (value.Value, bool) {
	truth, exists := m.world.Fact(rel, key, attr)
	if !exists {
		return value.Null(), false
	}
	// The key attribute is self-evident once the entity is recalled.
	if def := m.world.Def(rel); def != nil && strings.EqualFold(def.KeyColumn, attr) {
		return truth, true
	}
	// Derived attributes chain through the same beliefs the explicit join
	// formulation would touch, so the two schema-less formulations of one
	// information need agree up to per-step noise (Section 6).
	if d, ok := m.world.DerivedAttr(rel, attr); ok {
		mid, okMid := m.belief(rel, key, d.Via)
		if !okMid || mid.IsNull() {
			return value.Null(), false
		}
		return m.belief(d.Target, m.canon(mid.String()), d.TargetAttr)
	}
	r := m.h01("belief", rel, key, attr)
	switch {
	case r < m.profile.HallucinationRate:
		// Confuse with another entity's value — plausible but wrong.
		if v, ok := m.world.OtherValue(rel, key, attr, m.hInt(1<<20, "swap", rel, key, attr)); ok {
			return v, true
		}
		return truth, true
	case r < m.profile.HallucinationRate+m.profile.UnknownRate:
		return value.Null(), false
	}
	// Numeric imprecision: remembered magnitude, fuzzy digits. Year-like
	// integers drift by a few years; everything else by a relative error.
	if n, isNum := truth.Numeric(); isNum && truth.Kind() != value.KindDate {
		if m.h01("fuzz", rel, key, attr) < m.profile.NumericFuzz {
			amt := 2*m.h01("fuzzamt", rel, key, attr) - 1 // [-1, 1)
			if truth.Kind() == value.KindInt && n >= 1000 && n <= 2100 {
				drift := math.Round(amt * m.profile.NumericSpread * 20)
				return value.Int(int64(n + drift)), true
			}
			fuzzed := n * (1 + m.profile.NumericSpread*amt)
			if truth.Kind() == value.KindInt {
				return value.Int(int64(math.Round(fuzzed))), true
			}
			return value.Float(fuzzed), true
		}
	}
	return truth, true
}

// -------------------------------------------------------- surface forms

// render converts a belief into the text the model would emit, applying
// surface-form noise. The context strings keep the choice stable per
// (entity, attribute).
func (m *Model) render(rel, key, attr string, v value.Value) string {
	if v.IsNull() {
		return "Unknown"
	}
	switch v.Kind() {
	case value.KindString:
		s := v.AsString()
		// Registered alternate surface form (alpha-2 country code).
		if alt, ok := m.world.AltSurface(rel, key, attr); ok {
			if m.h01("altcode", rel, key, attr) < m.profile.AltCodeRate {
				return alt
			}
			return s
		}
		// Cross-relation references ("what country is Paris in?") may use
		// the target entity's alternate spelling. The style choice is
		// keyed per (relation, attribute): a model that says "French
		// Republic" for one city says it for all of them, which is why
		// joins break systematically rather than per row (Section 5's
		// IT-vs-ITA failure).
		if target, isRef := m.world.RefTarget(rel, attr); isRef {
			if alt, ok := m.world.EntityAlt(target, s); ok {
				if m.h01("refstyle", rel, attr) < m.profile.RefAltRate {
					return alt
				}
			}
			return s
		}
		return s
	case value.KindInt:
		n := v.AsInt()
		if m.h01("fmt", rel, key, attr) < m.profile.FormatNoise {
			switch m.hInt(3, "fmtpick", rel, key, attr) {
			case 0:
				return withCommas(n)
			case 1:
				return compactMagnitude(float64(n))
			default:
				return "about " + withCommas(n)
			}
		}
		return strconv.FormatInt(n, 10)
	case value.KindFloat:
		f := v.AsFloat()
		if m.h01("fmt", rel, key, attr) < m.profile.FormatNoise {
			switch m.hInt(2, "fmtpick", rel, key, attr) {
			case 0:
				return compactMagnitude(f)
			default:
				return "approximately " + strconv.FormatFloat(f, 'f', 1, 64)
			}
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	case value.KindDate:
		t := v.AsTime()
		switch {
		case m.h01("fmt", rel, key, attr) < m.profile.FormatNoise:
			if m.hInt(2, "fmtpick", rel, key, attr) == 0 {
				return t.Format("2 January 2006")
			}
			return t.Format("January 2, 2006")
		default:
			return t.Format("2006-01-02")
		}
	case value.KindBool:
		if v.AsBool() {
			return "yes"
		}
		return "no"
	default:
		return v.String()
	}
}

// withCommas renders 1234567 as "1,234,567".
func withCommas(n int64) string {
	s := strconv.FormatInt(n, 10)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var b strings.Builder
	pre := len(s) % 3
	if pre > 0 {
		b.WriteString(s[:pre])
	}
	for i := pre; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	out := b.String()
	if neg {
		out = "-" + out
	}
	return out
}

// compactMagnitude renders 2697000 as "2.7 million", 25460 as "25.5k".
func compactMagnitude(f float64) string {
	abs := math.Abs(f)
	switch {
	case abs >= 1e9:
		return trimF(f/1e9) + " billion"
	case abs >= 1e6:
		return trimF(f/1e6) + " million"
	case abs >= 1e4:
		return trimF(f/1e3) + "k"
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

func trimF(f float64) string {
	s := strconv.FormatFloat(f, 'f', 1, 64)
	return strings.TrimSuffix(s, ".0")
}

// evalCond checks a belief value against an operator and a literal string
// (as it appeared in the prompt), with numeric tolerance for surface forms.
func evalCond(belief value.Value, op, lit string) bool {
	if belief.IsNull() {
		return false
	}
	var litVal value.Value
	if f, ok := clean.ParseNumber(lit); ok {
		litVal = value.Float(f)
	} else {
		litVal = value.Text(lit)
	}
	c, err := value.Compare(belief, litVal)
	if err != nil {
		return false
	}
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}
