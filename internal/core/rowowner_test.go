package core

import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/difftest"
	"repro/internal/logical"
	"repro/internal/memdb"
	"repro/internal/physical"
	"repro/internal/rescache"
	"repro/internal/schema"
	"repro/internal/simllm"
	"repro/internal/spider"
	"repro/internal/sql/parser"
	"repro/internal/value"
	"repro/internal/world"
)

// TestConsumerOwnsRows: a row an operator tree returns at its root is
// its consumer's, also when the plan's fetch runs append their cells in
// place. Over the corpus and the differential generator's statements,
// each is planned as QueryStream plans it — residual plans over the
// result cache's relations competing — and its tree is run twice: once
// plainly, and once by a consumer that keeps a copy of every row, then
// overwrites each cell and appends to it. The copies must equal the
// plain run's rows, and neither the result-cache relations earlier
// queries left nor the DB's tables may change. Run under -race, under
// the streaming and the stop-and-go policy.
func TestConsumerOwnsRows(t *testing.T) {
	stmts := []string{
		`SELECT name, population FROM DB.city WHERE population > 1000000`,
		`SELECT * FROM DB.employees WHERE salary > 60000`,
		`SELECT e.name, c.name, c.capital FROM employees e JOIN country c ON e.countryCode = c.code WHERE e.salary > 60000`,
	}
	for _, q := range spider.Queries() {
		stmts = append(stmts, q.SQL)
	}
	for seed := int64(1); seed <= 4; seed++ {
		gen := difftest.New(seed)
		for range 10 {
			p := gen.Pair()
			stmts = append(stmts, gen.Query().SQL, gen.Adhoc().SQL, p.Parent, p.Child)
		}
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{{"serve", ServeOptions()}, {"stop-and-go", func() Options {
		o := ServeOptions()
		o.Pipelined = false
		return o
	}()}} {
		t.Run(tc.name, func(t *testing.T) {
			w := world.Build()
			rt := NewRuntime(simllm.New(simllm.ChatGPT, w, 1), tc.opts)
			db := memdb.New()
			for _, name := range w.Tables() {
				if err := db.LoadRelation(w.Table(name).Def, w.Relation(name)); err != nil {
					t.Fatal(err)
				}
			}
			rt.AttachDB(db)
			for _, name := range llmTableNames {
				if err := rt.BindLLMTable(w.Table(name).Def); err != nil {
					t.Fatal(err)
				}
			}
			tables := map[string]string{}
			for _, name := range db.Tables() {
				rel, _ := db.Relation(name)
				tables[name] = rel.String()
			}
			ctx := context.Background()
			s := rt.NewSession()
			cached := map[*schema.Relation]string{}
			for _, sql := range stmts {
				rel, _, err := s.Query(ctx, sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				cached[rel] = rel.String()
			}
			residuals := 0
			for _, sql := range stmts {
				want, residual := runOwned(t, s, sql, false)
				if got, _ := runOwned(t, s, sql, true); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: a consumer that overwrites its rows got\n%s\nwhere the plain run got\n%s", sql, got, want)
				}
				if residual {
					residuals++
				}
			}
			if residuals == 0 {
				t.Error("no statement ran as a residual plan over a cached relation")
			}
			for rel, text := range cached {
				if rel.String() != text {
					t.Errorf("a result relation changed:\n%s\nwas\n%s", rel.String(), text)
				}
			}
			for name, text := range tables {
				if rel, _ := db.Relation(name); rel.String() != text {
					t.Errorf("DB table %s changed", name)
				}
			}
		})
	}
}

// runOwned plans sql on s as openShaped does and runs the chosen plan's
// operator tree to io.EOF, returning each row as it was returned, and
// whether the plan was a residual over a cached relation. With
// overwrite, the consumer then overwrites every cell of the row and
// appends to it.
func runOwned(t *testing.T, s *Session, sql string, overwrite bool) (rows []string, residual bool) {
	t.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.prepare(sel)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := s.choose(q, s.residualCandidates(q.canon, s.rt.stampFor(q.canon.Components)))
	if err != nil {
		t.Fatal(err)
	}
	pctx, data := &physical.Context{}, s.rt.database().Relation
	cs := logical.FindCachedScan(plan)
	if cs != nil {
		entry, ok := s.rt.resultCache.Subsumed(rescache.Key{Fingerprint: cs.Source, Stamp: cs.Stamp})
		if !ok {
			t.Fatalf("%s: the residual's relation was evicted", sql)
		}
		data = func(string) (*schema.Relation, error) { return entry.Rel, nil }
	} else {
		tenant := s.openTenant(context.Background())
		defer tenant.Quiesce()
		defer tenant.Close()
		pctx = s.liveContext(tenant)
	}
	op, err := physical.Compile(plan, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(pctx); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	for {
		row, _, err := op.Next()
		if err == io.EOF {
			return rows, cs != nil
		}
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		rows = append(rows, fmt.Sprint(row))
		if overwrite {
			for i := range row {
				row[i] = value.Text("overwritten")
			}
			_ = append(row, value.Text("appended"), value.Text("appended"))
		}
	}
}
