package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/memdb"
	"repro/internal/simllm"
	"repro/internal/spider"
	"repro/internal/world"
)

// TestDecodedSlotMatchesText: every resident prompt answer that carries a
// decoded value — a fetch's cleaned cell, a filter's verdict, a key-scan
// page's cleaned keys — holds exactly what decoding its text gives, after
// the corpus ran on one shared prompt cache under the serving options,
// cost-based and with the paper's fixed rewrites.
func TestDecodedSlotMatchesText(t *testing.T) {
	w := world.Build()
	db := memdb.New()
	for _, name := range w.Tables() {
		if err := db.LoadRelation(w.Table(name).Def, w.Relation(name)); err != nil {
			t.Fatal(err)
		}
	}
	rt := NewRuntime(simllm.New(simllm.ChatGPT, w, 1), ServeOptions())
	rt.AttachDB(db)
	for _, name := range []string{"country", "city", "mayor", "airport", "singer", "stadium", "mountain"} {
		if err := rt.BindLLMTable(w.Table(name).Def); err != nil {
			t.Fatal(err)
		}
	}
	// The paper's fixed rewrites judge selections with boolean filters,
	// which the cost-based planner prefers to avoid here.
	heuristic := ServeOptions()
	heuristic.Optimizer.CostBased = false
	for _, opts := range []Options{ServeOptions(), heuristic} {
		for _, q := range spider.Queries() {
			sess := rt.NewSession()
			sess.SetOptions(opts)
			if _, _, err := sess.Query(context.Background(), q.SQL); err != nil {
				t.Fatalf("corpus %d %q: %v", q.ID, q.SQL, err)
			}
		}
	}
	slots := map[string]int{}
	rt.cache.EachDecoded(func(out string, slot, fresh any) {
		slots[fmt.Sprintf("%T", slot)]++
		if !reflect.DeepEqual(slot, fresh) {
			t.Errorf("answer %.80q: slot %+v, decoding the text gives %+v", out, slot, fresh)
		}
	})
	for _, kind := range []string{"value.Value", "bool", "*physical.keyPage"} {
		if slots[kind] == 0 {
			t.Errorf("no resident %s slot (slots %v): the corpus must exercise every decoder", kind, slots)
		}
	}
}
