package physical

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clean"
	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// TestTemplatesMemo: the fetches and key scans opened under one
// Templates share one template per role, table, column and decoder, so
// a resident hit compares pointers; a scan with pushed conditions builds
// its own; and after a rebind of the table to another key column the
// scan asks with the new column's template and types its keys as that
// column.
func TestTemplatesMemo(t *testing.T) {
	memo := &Templates{}
	client := (&scriptedLLM{}).
		on("Do not repeat", "Done").
		on("List the names of all towns", "101\n202")
	ctx := func() *Context {
		c := pipelinedCtx(context.Background(), client, 2, 2)
		c.Templates = memo
		return c
	}
	open := func(op Operator) {
		t.Helper()
		if err := op.Open(ctx()); err != nil {
			t.Fatal(err)
		}
		op.Close()
	}
	scanOf := func(def *schema.TableDef, pushed ...logical.Conjunct) *llmKeyScanOp {
		scan := logical.NewScan(def, "t", "LLM")
		scan.Pushed = pushed
		return &llmKeyScanOp{scan: scan, out: scan.Schema()}
	}

	a, b := scanOf(townDef()), scanOf(townDef())
	open(a)
	open(b)
	if a.firstPage != b.firstPage || a.morePage != b.morePage {
		t.Error("two scans of one binding built two templates")
	}
	fetch := func() *llmFetchAttrOp {
		scan := logical.NewScan(townDef(), "t", "LLM")
		fa, err := logical.NewFetchAttr(scan, townDef(), "t", "population", 0)
		if err != nil {
			t.Fatal(err)
		}
		f := &llmFetchAttrOp{node: fa, input: &memScan{out: scan.Schema(), rel: keysRelation()}, out: fa.Schema()}
		open(f)
		return f
	}
	if fetch().tmpl != fetch().tmpl {
		t.Error("two fetches of one attribute built two templates")
	}
	cond := logical.NewConjunct(&ast.Binary{Op: ">", Left: &ast.ColumnRef{Table: "t", Name: "population"}, Right: &ast.Literal{Val: value.Int(1000)}})
	p, q := scanOf(townDef(), cond), scanOf(townDef(), cond)
	open(p)
	open(q)
	if p.firstPage == q.firstPage || p.firstPage == a.firstPage {
		t.Error("a scan with pushed conditions shared a memoized template")
	}

	// Rebind town with its INTEGER column as the key.
	rebound := &schema.TableDef{Name: "town", KeyColumn: "population", Schema: townDef().Schema}
	c := scanOf(rebound)
	rel, err := Run(ctx(), c)
	if err != nil {
		t.Fatal(err)
	}
	if c.firstPage == a.firstPage {
		t.Error("the scan of the rebound key column reused the old key column's template")
	}
	if len(rel.Rows) != 2 || rel.Rows[0][0] != value.Int(101) || rel.Rows[1][0] != value.Int(202) {
		t.Errorf("rebound scan = %v, want the INTEGER keys 101 and 202", rel.Rows)
	}
	if text, err := Run(ctx(), scanOf(townDef())); err != nil || text.Rows[0][0] != value.Text("101") {
		t.Errorf("scan of the TEXT key after the rebound one = %v, %v; want the key \"101\"", text, err)
	}
}

// TestStepAfter: a chain's step keeps each key new to the chain once,
// case-insensitively, within a page and across pages, and its next key
// is every kept key so far joined by "; "; a link reused by another page
// derives that page's step, not the memoized one.
func TestStepAfter(t *testing.T) {
	cleaner := clean.New(clean.DefaultOptions())
	page := func(answer string) *keyPage { return decodePage(answer, cleaner, value.KindString) }
	keys := func(st *pageStep) []string {
		var out []string
		for _, k := range st.fresh {
			out = append(out, k.key)
		}
		return out
	}
	var first atomic.Pointer[pageStep]
	p1, p2 := page("Alpha\nBeta\nGamma"), page("beta\nDelta\nALPHA\nEpsilon")
	s1 := stepAfter(&first, nil, p1)
	s2 := stepAfter(&s1.after, s1, p2)
	if got := keys(s2); fmt.Sprint(got) != "[Delta Epsilon]" {
		t.Errorf("second page's new keys = %q, want Delta and Epsilon", got)
	}
	if want := "Alpha; Beta; Gamma; Delta; Epsilon"; s2.next != want {
		t.Errorf("next = %q, want %q", s2.next, want)
	}
	if stepAfter(&first, nil, p1) != s1 || stepAfter(&s1.after, s1, p2) != s2 {
		t.Error("a resident chain derived its steps again")
	}
	if len(p1.keys) != 3 || len(p2.keys) != 4 {
		t.Errorf("deriving steps changed the pages: %d and %d keys", len(p1.keys), len(p2.keys))
	}
	other := page("Zeta\nzeta\nAlpha")
	s3 := stepAfter(&first, nil, other)
	if s3 == s1 || fmt.Sprint(keys(s3)) != "[Zeta Alpha]" || s3.next != "Zeta; Alpha" {
		t.Errorf("another first page = %q (next %q), want its own step with Zeta and Alpha", keys(s3), s3.next)
	}
	if stepAfter(&first, nil, p1) == s1 || keys(stepAfter(&first, nil, p1))[0] != "Alpha" {
		t.Error("the first page, read again after another, was not derived again")
	}
}

// TestKeyScanChainShared: scans of one binding under one Templates and
// one prompt cache, run at once, share their resident chain's steps and
// return the keys a scan without the memo returns.
func TestKeyScanChainShared(t *testing.T) {
	client := &dynamicLLM{f: func(p string) string {
		switch {
		case strings.Contains(p, "Do not repeat any of: Alpha; Beta; Gamma; Delta"):
			return "Done"
		case strings.Contains(p, "Do not repeat"):
			return "beta\nDelta"
		}
		return "Alpha\nBeta\nGamma\nalpha"
	}}
	sched := llm.NewScheduler(llm.NewCache(64), 2)
	scan := func(memo *Templates) (*llmKeyScanOp, string) {
		c := pipelinedCtx(context.Background(), client, 2, 2)
		c.Scheduler, c.Templates = sched.Tenant(context.Background(), "t"), memo
		defer c.Scheduler.Close()
		s := logical.NewScan(townDef(), "t", "LLM")
		op := &llmKeyScanOp{scan: s, out: s.Schema()}
		rel, err := Run(c, op)
		if err != nil {
			t.Error(err)
			return op, ""
		}
		return op, fmt.Sprint(rel.Rows)
	}
	_, want := scan(nil)
	if want != "[[Alpha] [Beta] [Gamma] [Delta]]" {
		t.Fatalf("scan = %s, want Alpha, Beta, Gamma and Delta", want)
	}
	memo := &Templates{}
	warm, _ := scan(memo)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op, got := scan(memo)
			if got != want {
				t.Errorf("concurrent scan = %s, want %s", got, want)
			}
			if op.step != warm.step {
				t.Error("a scan of the resident chain derived its own steps")
			}
		}()
	}
	wg.Wait()
}
