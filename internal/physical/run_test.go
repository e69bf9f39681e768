package physical

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/prompt"
	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// runTownDef is a town relation with two fetchable attributes.
func runTownDef() *schema.TableDef {
	return &schema.TableDef{
		Name:      "town",
		KeyColumn: "name",
		Schema: schema.New(
			schema.Column{Name: "name", Type: value.KindString},
			schema.Column{Name: "population", Type: value.KindInt},
			schema.Column{Name: "mayor", Type: value.KindString},
		),
	}
}

// runTownClient answers a town world of 3 pages of 4 towns each: a
// town's population is 1000 times its number and its mayor is named
// after it; the LLM filter keeps towns whose number is not a multiple
// of 3.
func runTownClient() *dynamicLLM {
	return &dynamicLLM{f: func(p string) string {
		switch {
		case strings.Contains(p, prompt.ListAnchor):
			return "Town 1\nTown 2\nTown 3\nTown 4"
		case strings.Contains(p, "Do not repeat"):
			n := strings.Count(p, ";") + 1
			if n >= 12 {
				return prompt.DoneMarker
			}
			return fmt.Sprintf("Town %d\nTown %d\nTown %d\nTown %d", n+1, n+2, n+3, n+4)
		}
		var i int
		if k := strings.Index(p, "Town "); k >= 0 {
			fmt.Sscanf(p[k:], "Town %d", &i)
		}
		switch {
		case strings.HasSuffix(p, prompt.YesNoFormat):
			if i%3 == 0 {
				return "No."
			}
			return "Yes."
		case strings.Contains(p, "population"):
			return fmt.Sprint(i * 1000)
		default:
			return fmt.Sprintf("Mayor of %d", i)
		}
	}}
}

// policyCtx is a Context over runTownClient, four workers wide, running
// the stop-and-go policy or streaming with a buffer of two rows.
func policyCtx(stopAndGo bool) *Context {
	c := pipelinedCtx(context.Background(), runTownClient(), 4, 2)
	c.Scheduler = testTenant(context.Background(), nil, 4, stopAndGo)
	return c
}

// fetchRun compiles scan → fetch population → LLM filter → filter
// (population > 1500) → fetch mayor over input (nil: the LLM key scan):
// two fetches that, over the key scan, append into one row each.
func fetchRun(t *testing.T, input logical.Node, data func(string) (*schema.Relation, error)) Operator {
	t.Helper()
	def := runTownDef()
	if input == nil {
		input = logical.NewScan(def, "t", "LLM")
	}
	pop, err := logical.NewFetchAttr(input, def, "t", "population", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := func(name string) *ast.ColumnRef { return &ast.ColumnRef{Table: "t", Name: name} }
	big := &logical.LLMFilter{Input: pop, Table: def, Binding: "t", KeyCol: 0,
		Cond: logical.NewConjunct(&ast.Binary{Op: ">", Left: ref("population"), Right: &ast.Literal{Val: value.Int(1)}})}
	local := logical.NewFilter(big, &ast.Binary{Op: ">", Left: ref("population"), Right: &ast.Literal{Val: value.Int(1500)}})
	mayor, err := logical.NewFetchAttr(local, def, "t", "mayor", 0)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Compile(mayor, data)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// vandalRun drives op to io.EOF as a consumer that owns what it is
// handed: it keeps a copy of each row, then overwrites every cell of the
// row and appends to it. It returns the copies.
func vandalRun(t *testing.T, c *Context, op Operator) []string {
	t.Helper()
	if err := op.Open(c); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var got []string
	for {
		row, _, err := op.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprint(row))
		for i := range row {
			row[i] = value.Text("overwritten")
		}
		_ = append(row, value.Text("appended"), value.Text("appended"))
	}
}

// TestFetchRunRowsAreTheConsumers: a fetch run allocates each row once,
// with room for every fetched cell, and hands it down one operator at a
// time, so a consumer that overwrites and extends every row it gets
// changes neither the rows still in flight — the page rows beside it, a
// producer's next row — nor the DB rows a fetch copies. Run under -race,
// under both policies.
func TestFetchRunRowsAreTheConsumers(t *testing.T) {
	want := func() []string {
		rel, err := Run(policyCtx(true), fetchRun(t, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, r := range rel.Rows {
			rows = append(rows, fmt.Sprint(r))
		}
		return rows
	}()
	if len(want) != 7 || want[0] != "[Town 2 2000 Mayor of 2]" {
		t.Fatalf("reference run = %q, want the 7 towns past 1500 whose number is not a multiple of 3", want)
	}
	// Over the key scan both fetches append in place into rows the scan
	// allocates three cells wide; over a cached relation the lower fetch
	// copies each row, three cells wide, and the upper appends.
	for _, c := range []struct {
		input       logical.Node
		lowerCopies bool
	}{{nil, false}, {logical.NewCachedScan("t", "keys", "", 0, keysRelation().Schema), true}} {
		mayor := fetchRun(t, c.input, nil).(*llmFetchAttrOp)
		pop := mayor.input.(*filterOp).input.(*llmFilterOp).input.(*llmFetchAttrOp)
		width := pop.width
		if scan, ok := pop.input.(*llmKeyScanOp); ok {
			width = scan.width
		}
		if !mayor.inPlace || pop.inPlace != !c.lowerCopies || width != 3 {
			t.Errorf("fetch run over %T: in place %t and %t, rows %d cells wide; want true, %t, 3",
				pop.input, mayor.inPlace, pop.inPlace, width, !c.lowerCopies)
		}
	}
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("Town %d", i+1)
	}
	db := keysRelation(keys...)
	dbText := db.String()
	for _, tc := range []struct {
		name string
		ctx  func() *Context
	}{
		{"stop-and-go", func() *Context { return policyCtx(true) }},
		{"streaming", func() *Context { return policyCtx(false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := vandalRun(t, tc.ctx(), fetchRun(t, nil, nil)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("over the key scan:\n got %q\nwant %q", got, want)
			}
			cached := logical.NewCachedScan("t", "keys", "", db.Cardinality(), db.Schema)
			got := vandalRun(t, tc.ctx(), fetchRun(t, cached, func(string) (*schema.Relation, error) { return db, nil }))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("over a cached relation:\n got %q\nwant %q", got, want)
			}
			if db.String() != dbText {
				t.Errorf("the consumer changed the relation a fetch read:\n%s", db.String())
			}
		})
	}
}
