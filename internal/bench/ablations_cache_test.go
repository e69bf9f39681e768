package bench

import (
	"context"
	"testing"

	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/simllm"
	"repro/internal/spider"
)

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
