package prompt

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestKeyListFirst(t *testing.T) {
	b := &Builder{} // no preamble: easier golden checks
	got := b.KeyList("city", "name", nil, nil)
	want := "List the names of all cities. Return one name per line. If you do not know any, answer Unknown."
	if got != want {
		t.Errorf("KeyList =\n%q\nwant\n%q", got, want)
	}
}

func TestKeyListMoreWithExclusions(t *testing.T) {
	b := &Builder{}
	got := b.KeyList("city", "name", nil, []string{"Paris", "Rome"})
	want := "List more names of cities. Do not repeat any of: Paris; Rome. Return one name per line. If there are no more, answer Done."
	if got != want {
		t.Errorf("more prompt =\n%q\nwant\n%q", got, want)
	}
}

func TestKeyListPushedConditions(t *testing.T) {
	b := &Builder{}
	conds := []Condition{
		{Attr: "population", OpPhrase: "more than", Value: "1000000"},
		{Attr: "elevation", OpPhrase: "less than", Value: "100"},
	}
	got := b.KeyList("city", "name", conds, nil)
	if !strings.Contains(got, "cities with population more than 1000000 and elevation less than 100.") {
		t.Errorf("pushed conditions missing: %q", got)
	}
}

func TestAttrPrompt(t *testing.T) {
	b := &Builder{}
	got := b.Attr("mayor", "B. Obama", "birthDate")
	want := "What is the birth date of the mayor B. Obama? Answer with only the value. If unknown, answer Unknown."
	if got != want {
		t.Errorf("Attr =\n%q\nwant\n%q", got, want)
	}
}

// TestFilterPromptPaperTemplate instantiates the paper's exact template
// example: "Has politician B. Obama age less than 40?" (Section 4).
func TestFilterPromptPaperTemplate(t *testing.T) {
	b := &Builder{}
	got := b.Filter("politician", "B. Obama", "age", "less than", "40")
	want := "Has politician B. Obama age less than 40? Answer yes or no."
	if got != want {
		t.Errorf("Filter =\n%q\nwant\n%q", got, want)
	}
}

// TestTemplatesMatchPrompts: an operator that builds pre+key+post from a
// template sends exactly the prompt Attr/Filter build, and both keep the
// wording the simulated model parses, with and without the preamble.
func TestTemplatesMatchPrompts(t *testing.T) {
	cases := []struct{ rel, attr, humanRel, humanAttr string }{
		{"city", "population", "city", "population"},
		{"world_city", "independence_year", "world city", "independence year"},
		{"mayor", "birthDate", "mayor", "birth date"},
	}
	for _, preamble := range []string{"", FewShotPreamble + "\n"} {
		b := &Builder{IncludePreamble: preamble != ""}
		for _, c := range cases {
			for _, key := range []string{"B. Obama", "São Paulo"} {
				want := preamble + "What is the " + c.humanAttr + " of the " + c.humanRel + " " + key +
					"? Answer with only the value. If unknown, answer Unknown."
				pre, post := b.AttrTemplate(c.rel, c.attr)
				if got := pre + key + post; got != want {
					t.Errorf("AttrTemplate(%s, %s) + %q =\n%q\nwant\n%q", c.rel, c.attr, key, got, want)
				}
				if got := b.Attr(c.rel, key, c.attr); got != want {
					t.Errorf("Attr(%s, %q, %s) =\n%q\nwant\n%q", c.rel, key, c.attr, got, want)
				}
				want = preamble + "Has " + c.humanRel + " " + key + " " + c.humanAttr + " less than 40? Answer yes or no."
				pre, post = b.FilterTemplate(c.rel, c.attr, "less than", "40")
				if got := pre + key + post; got != want {
					t.Errorf("FilterTemplate(%s, %s) + %q =\n%q\nwant\n%q", c.rel, c.attr, key, got, want)
				}
				if got := b.Filter(c.rel, key, c.attr, "less than", "40"); got != want {
					t.Errorf("Filter(%s, %q, %s) =\n%q\nwant\n%q", c.rel, key, c.attr, got, want)
				}
			}
		}
	}
}

func TestPreambleIncluded(t *testing.T) {
	b := NewBuilder()
	got := b.KeyList("city", "name", nil, nil)
	if !strings.HasPrefix(got, FewShotPreamble) {
		t.Error("default builder must prepend the few-shot preamble")
	}
}

// TestFigure4Verbatim pins the Figure 4 preamble content.
func TestFigure4Verbatim(t *testing.T) {
	mustContain := []string{
		"I am a highly intelligent question answering bot.",
		`I will respond with "Unknown"`,
		"Q: What is human life expectancy in the United States?",
		"A: 78.",
		"Q: Who was president of the United States in 1955?",
		"A: Dwight D. Eisenhower.",
		"Q: What is the capital of France?",
		"A: Paris.",
		"Q: What is a continent starting with letter O?",
		"A: Oceania.",
		"Q: Where were the 1992 Olympics held?",
		"A: Barcelona.",
		"Q: How many squigs are in a bonk?",
		"A: Unknown",
	}
	for _, s := range mustContain {
		if !strings.Contains(FewShotPreamble, s) {
			t.Errorf("Figure 4 preamble missing %q", s)
		}
	}
}

func TestQuestionPrompts(t *testing.T) {
	b := NewBuilder()
	q := b.Question("What is the capital of Italy?")
	if !strings.HasSuffix(q, "Q: What is the capital of Italy?\nA:") {
		t.Errorf("Question = %q", q)
	}
	cot := b.CoTQuestion("What is the capital of Italy?")
	if !strings.Contains(cot, CoTExemplar) || !strings.Contains(cot, "reason step by step") {
		t.Errorf("CoTQuestion missing exemplar: %q", cot)
	}
}

func TestOpPhraseRoundTrip(t *testing.T) {
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		phrase := OpPhrase(op)
		back, ok := ParseOpPhrase(phrase)
		if !ok || back != op {
			t.Errorf("OpPhrase round trip %q → %q → %q", op, phrase, back)
		}
	}
	if _, ok := ParseOpPhrase("whatever"); ok {
		t.Error("unknown phrase must not parse")
	}
}

func TestHumanize(t *testing.T) {
	cases := map[string]string{
		"independence_year": "independence year",
		"birthDate":         "birth date",
		"name":              "name",
		"GDP":               "gdp",
		"mountain_range":    "mountain range",
		"electionYear":      "election year",
	}
	for in, want := range cases {
		if got := Humanize(in); got != want {
			t.Errorf("Humanize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPluralize(t *testing.T) {
	cases := map[string]string{
		"city":           "cities",
		"country":        "countries",
		"airport":        "airports",
		"bus":            "buses",
		"church":         "churches",
		"box":            "boxes",
		"mayor":          "mayors",
		"day":            "days", // vowel+y
		"mountain range": "mountain ranges",
	}
	for in, want := range cases {
		if got := Pluralize(in); got != want {
			t.Errorf("Pluralize(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: Singularize inverts Pluralize on the nouns we use.
func TestSingularizeInverse(t *testing.T) {
	nouns := []string{"city", "country", "airport", "singer", "stadium", "mountain", "mayor", "bus", "church"}
	for _, n := range nouns {
		if got := Singularize(Pluralize(n)); got != n {
			t.Errorf("Singularize(Pluralize(%q)) = %q", n, got)
		}
	}
	// And it holds for random lowercase words without tricky suffixes.
	f := func(seed uint32) bool {
		word := genWord(seed)
		if word == "" || strings.HasSuffix(word, "s") || strings.HasSuffix(word, "y") ||
			strings.HasSuffix(word, "x") || strings.HasSuffix(word, "h") ||
			strings.HasSuffix(word, "e") {
			// Plurals of these suffixes are ambiguous to invert
			// ("ses" could be se+s or s+es); skip them.
			return true
		}
		return Singularize(Pluralize(word)) == word
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func genWord(seed uint32) string {
	n := int(seed%6) + 1
	var b strings.Builder
	x := seed
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		b.WriteByte(byte('a' + (x>>16)%26))
	}
	return b.String()
}
