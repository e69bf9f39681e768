// Package prompt builds the textual prompts that implement Galois's
// physical operators (Section 4): key-list retrieval for leaf scans,
// "return more results" iteration, per-key attribute fetches, and per-key
// boolean filters. Prompts are generated automatically from the operator,
// the schema labels and the selection conditions — no human annotation.
//
// The canonical wording lives in exported constants so the simulated LLM
// (package simllm) can recognize the same prompts a real model would
// receive as plain text.
package prompt

import (
	"strings"
)

// Canonical wording anchors. simllm keys its prompt understanding on
// these; changing one requires changing both sides, which is exactly the
// prompt-engineering coupling the paper describes.
const (
	ListAnchor    = "List the names of all"
	MoreAnchor    = "List more names of"
	ExcludeAnchor = "Do not repeat any of:"
	AttrAnchor    = "What is the"
	FilterAnchor  = "Has"
	DoneMarker    = "Done"
	UnknownMarker = "Unknown"
	LineFormat    = "Return one name per line."
	ValueFormat   = "Answer with only the value."
	YesNoFormat   = "Answer yes or no."
)

// FewShotPreamble is the GPT-3 instruction-plus-examples prompt from
// Figure 4 of the paper, reproduced verbatim.
const FewShotPreamble = `I am a highly intelligent question answering bot. If you ask me a question that is rooted in truth, I will give you the short answer. If you ask me a question that is nonsense, trickery, or has no clear answer, I will respond with "Unknown". If the answer is numerical, I will return the number only.

Q: What is human life expectancy in the United States?
A: 78.
Q: Who was president of the United States in 1955?
A: Dwight D. Eisenhower.
Q: What is the capital of France?
A: Paris.
Q: What is a continent starting with letter O?
A: Oceania.
Q: Where were the 1992 Olympics held?
A: Barcelona.
Q: How many squigs are in a bonk?
A: Unknown
`

// CoTExemplar is the fixed, manually crafted chain-of-thought example used
// by the T_M^C baseline (Section 5): one worked decomposition, followed by
// the actual question and an instruction to reason step by step.
const CoTExemplar = `Example:
Question: List the names of the cities and the mayor birth date for the cities where the current mayor has been in charge since 2019.
Let's break the task into steps.
Step 1: list city names.
Step 2: for each city, find its current mayor.
Step 3: for each mayor, check if they took charge in 2019; keep only those cities.
Step 4: for each remaining mayor, find the birth date.
Step 5: output one line per city: city name, mayor birth date.
`

// Condition is a selection merged into a list prompt by the prompt
// pushdown optimization ("get names of cities with > 1M population").
type Condition struct {
	Attr     string // humanized attribute label
	OpPhrase string // "more than", "equal to", ...
	Value    string
}

// Builder assembles prompts. IncludePreamble controls whether retrieval
// prompts are prefixed with the few-shot preamble (the paper constructs
// prompts "appropriately for each model").
type Builder struct {
	IncludePreamble bool
}

// NewBuilder returns a Builder with the preamble enabled.
func NewBuilder() *Builder { return &Builder{IncludePreamble: true} }

func (b *Builder) wrap(body string) string {
	if b.IncludePreamble {
		return FewShotPreamble + "\n" + body
	}
	return body
}

// KeyList builds the leaf-scan prompt retrieving the key attribute values
// of a relation, optionally with pushed-down conditions and an exclusion
// list for the "more results" iteration.
func (b *Builder) KeyList(relation, keyAttr string, conds []Condition, exclude []string) string {
	var s strings.Builder
	if len(exclude) == 0 {
		s.WriteString(ListAnchor)
	} else {
		s.WriteString(MoreAnchor)
	}
	s.WriteByte(' ')
	s.WriteString(Pluralize(Humanize(relation)))
	for i, c := range conds {
		if i == 0 {
			s.WriteString(" with ")
		} else {
			s.WriteString(" and ")
		}
		s.WriteString(c.Attr)
		s.WriteByte(' ')
		s.WriteString(c.OpPhrase)
		s.WriteByte(' ')
		s.WriteString(c.Value)
	}
	s.WriteByte('.')
	if len(exclude) > 0 {
		s.WriteByte(' ')
		s.WriteString(ExcludeAnchor)
		s.WriteByte(' ')
		s.WriteString(strings.Join(exclude, "; "))
		s.WriteByte('.')
	}
	s.WriteByte(' ')
	s.WriteString(LineFormat)
	if len(exclude) > 0 {
		s.WriteString(" If there are no more, answer " + DoneMarker + ".")
	} else {
		s.WriteString(" If you do not know any, answer " + UnknownMarker + ".")
	}
	return b.wrap(s.String())
}

// excludeMark stands for the exclusion list in KeyListTemplate. After the
// list, KeyList writes only fixed text, so the last mark in a prompt is
// the list's.
const excludeMark = "\x00"

// KeyListTemplate returns KeyList's prompts as text around a key, so a
// key scan builds them once: first is the whole first-page prompt (its
// key is empty), and a later page's prompt, excluding keys, is pre +
// strings.Join(keys, "; ") + post.
func (b *Builder) KeyListTemplate(relation, keyAttr string, conds []Condition) (first, pre, post string) {
	more := b.KeyList(relation, keyAttr, conds, []string{excludeMark})
	i := strings.LastIndex(more, excludeMark)
	return b.KeyList(relation, keyAttr, conds, nil), more[:i], more[i+len(excludeMark):]
}

// Attr builds the per-key attribute fetch prompt: "What is the birth date
// of the politician B. Obama? Answer with only the value."
func (b *Builder) Attr(relation, key, attr string) string {
	pre, post := b.AttrTemplate(relation, attr)
	return pre + key + post
}

// AttrTemplate returns the text of Attr's prompt before and after the key,
// so an operator fetching one attribute for many keys builds the template
// once and each prompt with one concatenation.
func (b *Builder) AttrTemplate(relation, attr string) (pre, post string) {
	return b.wrap(AttrAnchor + " " + Humanize(attr) + " of the " + Humanize(relation) + " "),
		"? " + ValueFormat + " If unknown, answer " + UnknownMarker + "."
}

// Filter builds the per-key boolean selection prompt, instantiating the
// paper's template "Has relationName keyName attributeName operator
// value?" — e.g. "Has politician B. Obama age less than 40?".
func (b *Builder) Filter(relation, key, attr, opPhrase, val string) string {
	pre, post := b.FilterTemplate(relation, attr, opPhrase, val)
	return pre + key + post
}

// FilterTemplate returns the text of Filter's prompt before and after the
// key, as AttrTemplate does for Attr.
func (b *Builder) FilterTemplate(relation, attr, opPhrase, val string) (pre, post string) {
	return b.wrap(FilterAnchor + " " + Humanize(relation) + " "),
		" " + Humanize(attr) + " " + opPhrase + " " + val + "? " + YesNoFormat
}

// Question builds the plain QA prompt for the T_M baseline.
func (b *Builder) Question(q string) string {
	return FewShotPreamble + "\nQ: " + q + "\nA:"
}

// CoTQuestion builds the chain-of-thought QA prompt for T_M^C.
func (b *Builder) CoTQuestion(q string) string {
	return FewShotPreamble + "\n" + CoTExemplar + "\nQuestion: " + q + "\nLet's reason step by step, then answer.\nA:"
}

// OpPhrase renders a SQL comparison operator as the natural-language
// phrase used in prompts.
func OpPhrase(op string) string {
	switch op {
	case "=":
		return "equal to"
	case "!=":
		return "different from"
	case "<":
		return "less than"
	case "<=":
		return "at most"
	case ">":
		return "more than"
	case ">=":
		return "at least"
	default:
		return op
	}
}

// ParseOpPhrase is the inverse of OpPhrase; ok is false for unknown
// phrases.
func ParseOpPhrase(phrase string) (string, bool) {
	switch phrase {
	case "equal to":
		return "=", true
	case "different from":
		return "!=", true
	case "less than":
		return "<", true
	case "at most":
		return "<=", true
	case "more than":
		return ">", true
	case "at least":
		return ">=", true
	}
	return "", false
}

// Humanize turns a schema label into prompt-friendly words:
// "independence_year" → "independence year", "birthDate" → "birth date".
func Humanize(label string) string {
	var b strings.Builder
	prevLower := false
	for _, r := range label {
		switch {
		case r == '_' || r == '-':
			b.WriteByte(' ')
			prevLower = false
		case r >= 'A' && r <= 'Z':
			if prevLower {
				b.WriteByte(' ')
			}
			b.WriteRune(r - 'A' + 'a')
			prevLower = false
		default:
			b.WriteRune(r)
			prevLower = r >= 'a' && r <= 'z' || r >= '0' && r <= '9'
		}
	}
	return strings.TrimSpace(b.String())
}

// Pluralize produces the plural of a (humanized) relation noun: city →
// cities, country → countries, airport → airports, bus → buses.
func Pluralize(noun string) string {
	if noun == "" {
		return noun
	}
	// Pluralize only the head noun's last word.
	words := strings.Fields(noun)
	last := words[len(words)-1]
	switch {
	case strings.HasSuffix(last, "s") || strings.HasSuffix(last, "x") ||
		strings.HasSuffix(last, "ch") || strings.HasSuffix(last, "sh"):
		last += "es"
	case strings.HasSuffix(last, "y") && len(last) > 1 && !isVowel(last[len(last)-2]):
		last = last[:len(last)-1] + "ies"
	default:
		last += "s"
	}
	words[len(words)-1] = last
	return strings.Join(words, " ")
}

// Singularize is the inverse of Pluralize for the forms it produces.
func Singularize(noun string) string {
	words := strings.Fields(noun)
	if len(words) == 0 {
		return noun
	}
	last := words[len(words)-1]
	switch {
	case strings.HasSuffix(last, "ies"):
		last = last[:len(last)-3] + "y"
	case strings.HasSuffix(last, "ches") || strings.HasSuffix(last, "shes") ||
		strings.HasSuffix(last, "xes") || strings.HasSuffix(last, "ses"):
		last = last[:len(last)-2]
	case strings.HasSuffix(last, "s") && !strings.HasSuffix(last, "ss"):
		last = last[:len(last)-1]
	}
	words[len(words)-1] = last
	return strings.Join(words, " ")
}

func isVowel(b byte) bool {
	switch b {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}
