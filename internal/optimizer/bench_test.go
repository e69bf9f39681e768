package optimizer

import (
	"testing"

	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/sql/parser"
)

// chooseJoin returns one templated enumeration of a two-conjunct join
// statement, as on a plan-cache miss under a prompt cache: eight
// candidates (two filter lowerings, two join orders), each lowered and
// estimated, with every read recorded as a guard.
func chooseJoin(tb testing.TB) func() {
	built := joinStatement(tb)
	tpl := TemplateOf(logical.Canonicalize(built), "")
	if !tpl.Distinct() {
		tb.Fatal("no template")
	}
	st := NewStatistics()
	st.SetTableKeys("city", 24)
	st.SetTableKeys("mayor", 24)
	p := CostParams{Resident: func(llm.Role, string, llm.PromptClass) int { return 0 }}
	base := Defaults()
	base.CostBased = true
	return func() {
		if _, cost, g, err := Choose(built, base, st, p, nil, tpl); err != nil || g == nil || cost.Candidates != 8 {
			tb.Fatalf("Choose: %v (guarded %t)", err, g != nil)
		}
	}
}

// BenchmarkChoose is chooseJoin's enumeration.
func BenchmarkChoose(b *testing.B) {
	choose := chooseJoin(b)
	b.ReportAllocs()
	for b.Loop() {
		choose()
	}
}

// joinStatement builds chooseJoin's statement.
func joinStatement(tb testing.TB) logical.Node {
	sel, err := parser.ParseSelect(`SELECT c.name FROM city c, mayor m WHERE c.mayor = m.name AND c.population > 1000000 AND m.age < 40`)
	if err != nil {
		tb.Fatal(err)
	}
	built, err := logical.Build(sel, resolver{})
	if err != nil {
		tb.Fatal(err)
	}
	return built
}

// templateJoin returns the rendering a parsed statement pays for, after
// its build: chooseJoin's statement canonicalized and its plan-cache
// template cut from that rendering.
func templateJoin(tb testing.TB) func() {
	built := joinStatement(tb)
	return func() {
		if tpl := TemplateOf(logical.Canonicalize(built), ""); !tpl.Distinct() {
			tb.Fatal("no template")
		}
	}
}

// BenchmarkTemplateOf is templateJoin's rendering.
func BenchmarkTemplateOf(b *testing.B) {
	render := templateJoin(b)
	b.ReportAllocs()
	for b.Loop() {
		render()
	}
}
