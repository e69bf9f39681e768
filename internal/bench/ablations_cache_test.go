package bench

import (
	"context"
	"testing"

	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/simllm"
	"repro/internal/spider"
)

// TestAblationCacheShape: the engine-level prompt cache must cut issued
// model calls substantially on the corpus (key scans and attribute
// fetches recur across queries) without changing results — the simulated
// models answer each prompt as a pure function, so a cached completion is
// bit-identical to a fresh one.
func TestAblationCacheShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	r := runner(t)
	rows, err := r.AblationCache(context.Background(), simllm.ChatGPT)
	if err != nil {
		t.Fatal(err)
	}
	off, on := rows[0], rows[1]
	if off.AvgPrompts <= 0 {
		t.Fatalf("cache-off arm issued no prompts: %+v", off)
	}
	if on.AvgPrompts >= 0.8*off.AvgPrompts {
		t.Errorf("cache must measurably cut prompts/query: on=%.1f off=%.1f", on.AvgPrompts, off.AvgPrompts)
	}
	if diff := on.CellMatch - off.CellMatch; diff > 0.01 || diff < -0.01 {
		t.Errorf("cache must not change results: on=%.2f off=%.2f", on.CellMatch, off.CellMatch)
	}
	if diff := on.CardDiff - off.CardDiff; diff > 0.01 || diff < -0.01 {
		t.Errorf("cache must not change cardinality: on=%.2f off=%.2f", on.CardDiff, off.CardDiff)
	}
}

// TestCleaningAblationSharedCache: the cleaning ablation's two arms run
// side by side on one runtime, so on one prompt cache. Their fetch
// prompts are the same text, so each answer is resident for both arms,
// decoded by whichever asked first; the other arm's decoder has another
// tag. Each arm must still return exactly the relations it returns on
// its own with the cache off: a decoder never gets the other's value.
func TestCleaningAblationSharedCache(t *testing.T) {
	r := runner(t)
	ctx := context.Background()
	withClean := PaperOptions()
	withoutClean := PaperOptions()
	withoutClean.Clean = clean.Options{}
	shared := PaperOptions()
	shared.CacheEnabled = true
	rt, err := r.Runtime(r.Model(simllm.ChatGPT), shared)
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for i, q := range spider.Queries() {
		arms := []core.Options{withClean, withoutClean}
		if i%2 == 1 {
			arms[0], arms[1] = arms[1], arms[0] // each arm decodes first half the time
		}
		var alone []string
		for _, opts := range arms {
			ref, err := r.Runtime(r.Model(simllm.ChatGPT), opts)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := ref.NewSession().Query(ctx, q.SQL)
			if err != nil {
				t.Fatalf("query %d alone: %v", q.ID, err)
			}
			opts.CacheEnabled = true
			sess := rt.NewSession()
			sess.SetOptions(opts)
			got, _, err := sess.Query(ctx, q.SQL)
			if err != nil {
				t.Fatalf("query %d on the shared cache: %v", q.ID, err)
			}
			if got.String() != want.String() {
				t.Errorf("query %d, clean %+v: shared cache returned\n%s\nalone\n%s", q.ID, opts.Clean, got, want)
			}
			alone = append(alone, want.String())
		}
		if alone[0] != alone[1] {
			differ++
		}
	}
	if differ == 0 {
		t.Error("no query's result depends on cleaning: the test is vacuous")
	}
	if st := rt.Stats().CacheStats; st.Hits == 0 {
		t.Errorf("the arms shared no prompt answer: %+v", st)
	}
}
