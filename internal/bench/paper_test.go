package bench

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The band tests below assert the qualitative claims of the paper's
// evaluation, one experiment each: each reports the violations of
// PaperReport.CheckAcceptance that name its band, on run 1 of the paper
// row — the run TestArtifacts/paper checks whole and diffs against
// BENCH_paper.json.

// paperRun returns run n of the paper row on ChatGPT (artifactRun).
func paperRun(t *testing.T, n int) *PaperReport {
	t.Helper()
	return artifactRun(t, artifact(t, "paper"), n).(*PaperReport)
}

// paperBands are the bands CheckAcceptance names: PaperReport's JSON
// fields but the model.
func paperBands() []string {
	var bands []string
	typ := reflect.TypeFor[PaperReport]()
	for i := range typ.NumField() {
		if tag := typ.Field(i).Tag.Get("json"); tag != "model" {
			bands = append(bands, tag)
		}
	}
	return bands
}

// paperViolations returns the criteria rep violates, one error each.
func paperViolations(rep *PaperReport) []error {
	if err := rep.CheckAcceptance(); err != nil {
		return err.(interface{ Unwrap() []error }).Unwrap()
	}
	return nil
}

// checkPaperBand fails the test for every criterion of band that run 1
// of the paper row violates.
func checkPaperBand(t *testing.T, band string) {
	t.Helper()
	if !slices.Contains(paperBands(), band) {
		t.Fatalf("no paper band %q", band)
	}
	for _, err := range paperViolations(paperRun(t, 1)) {
		if strings.HasPrefix(err.Error(), band+": ") {
			t.Error(err)
		}
	}
}

// TestPaperBandsNameEveryCriterion: every criterion of
// PaperReport.CheckAcceptance names a band, and every band has one, so no
// band test passes for want of a prefix.
func TestPaperBandsNameEveryCriterion(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "paper.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); !ok || fn.Name.Name != "CheckAcceptance" {
			continue
		}
		ast.Inspect(d, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || fmt.Sprint(call.Fun) != "check" {
				return true
			}
			format, _ := strconv.Unquote(call.Args[1].(*ast.BasicLit).Value)
			band, _, _ := strings.Cut(format, ": ")
			if !slices.Contains(paperBands(), band) {
				t.Errorf("criterion names no band: %q", format)
			}
			named[band] = true
			return true
		})
	}
	for _, band := range paperBands() {
		if !named[band] {
			t.Errorf("band %q has no criterion", band)
		}
	}
}

// TestTable1Shape: small models miss roughly half the rows, GPT-3 is
// near-perfect, ChatGPT sits in between (Table 1 orders
// flan < tk < chatgpt < gpt3 on cardinality fidelity).
func TestTable1Shape(t *testing.T) { checkPaperBand(t, "table1") }

// TestTable2Shape: on ChatGPT Galois beats both QA baselines overall,
// selections >> aggregates >> joins ~ 0, and the fixed CoT prompt does
// not beat plain QA.
func TestTable2Shape(t *testing.T) { checkPaperBand(t, "table2") }

// TestLatencyShape: tens of prompts per query, skewed, and seconds of
// simulated latency (the Section 5 latency note, on GPT-3).
func TestLatencyShape(t *testing.T) { checkPaperBand(t, "latency") }

// TestAblationPushdownShape: pushdown slashes prompts without collapsing
// accuracy.
func TestAblationPushdownShape(t *testing.T) { checkPaperBand(t, "pushdown") }

// TestAblationCleaningShape: cleaning helps (Section 4: "a simple but
// crucial step").
func TestAblationCleaningShape(t *testing.T) { checkPaperBand(t, "cleaning") }

// TestAblationJoinShape: canonicalizing surface forms repairs the broken
// joins.
func TestAblationJoinShape(t *testing.T) { checkPaperBand(t, "joins") }

// TestAblationMoreResultsShape: one more-results iteration truncates
// hard; more budget never hurts (GPT-3, budgets 1, 4 and 12).
func TestAblationMoreResultsShape(t *testing.T) { checkPaperBand(t, "more_results") }

// TestAblationCacheShape: the engine-level prompt cache must cut issued
// model calls substantially on the corpus (key scans and attribute
// fetches recur across queries) without changing results — the simulated
// models answer each prompt as a pure function, so a cached completion is
// bit-identical to a fresh one.
func TestAblationCacheShape(t *testing.T) { checkPaperBand(t, "cache") }

// TestAblationVerificationRuns: verification trades recall for precision;
// at minimum it must run and spend extra prompts.
func TestAblationVerificationRuns(t *testing.T) { checkPaperBand(t, "verify") }

// TestPortabilityShape: stronger model pairs overlap more than pairs
// involving a small model (Section 6, Portability).
func TestPortabilityShape(t *testing.T) { checkPaperBand(t, "portability") }

// TestSchemaFreedom: the two formulations should be close but not
// identical — the equivalence property a DBMS guarantees does not hold
// over an LLM (Section 6, Schema-less querying).
func TestSchemaFreedom(t *testing.T) { checkPaperBand(t, "schema_freedom") }

// TestDeterminismAcrossRunners: the benchmark is reproducible bit for
// bit for a fixed seed — the paper row's two runs, each in its own
// runner, measure the same Table 1.
func TestDeterminismAcrossRunners(t *testing.T) {
	a, b := paperRun(t, 1), paperRun(t, 2)
	if !reflect.DeepEqual(a.Table1, b.Table1) {
		t.Errorf("non-deterministic benchmark: %+v vs %+v", a.Table1, b.Table1)
	}
}

// TestCalibrationReport prints the regenerated Tables 1 and 2 and the
// latency note next to the paper's numbers. It never fails on
// magnitudes — the bands above do — but it is the quickest way to see
// the calibration state (run with -v).
func TestCalibrationReport(t *testing.T) {
	rep := paperRun(t, 1)
	t.Log("Table 1 — cardinality diff % (paper vs measured):")
	for _, row := range rep.Table1 {
		t.Logf("  %-8s paper=%+6.1f measured=%+6.1f (n=%d)", row.Model, row.CardDiff.Paper, row.CardDiff.Measured, row.Queries)
	}
	t.Logf("Table 2 — cell match %% on %s (All/Sel/Agg/Join):", rep.Model)
	for _, row := range rep.Table2 {
		t.Logf("  %-6s paper=%2.0f/%2.0f/%2.0f/%2.0f measured=%4.1f/%4.1f/%4.1f/%4.1f", row.Method,
			row.All.Paper, row.Selections.Paper, row.Aggregates.Paper, row.Joins.Paper,
			row.All.Measured, row.Selections.Measured, row.Aggregates.Measured, row.Joins.Measured)
	}
	l := rep.Latency
	t.Logf("Latency on %s — paper: ~%.0f prompts, ~%.0f s/query; measured: %.0f prompts, %.2f s/query",
		l.Model, l.PaperAvgPrompts, l.PaperLatencyMS/1000, l.AvgPrompts, l.AvgSimLatencyMS/1000)
}
