package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/clean"
	"repro/internal/optimizer"
	"repro/internal/simllm"
	"repro/internal/world"
)

// keyExempt lists the option fields that move neither the options key
// nor the plan-cache key, each with why it cannot change a computed
// relation. A session-tier entry (runtimeTier false) is also checked by
// TestOptionsKeyCoverage itself: a query run with the field changed
// returns the relation it returns without.
var keyExempt = map[string]struct {
	runtimeTier bool
	why         string
}{
	"CacheEnabled":       {true, "the prompt cache is built at NewRuntime; SetOptions ignores it"},
	"CacheSize":          {true, "the prompt cache is built at NewRuntime; SetOptions ignores it"},
	"ResultCacheEnabled": {true, "the result cache is built at NewRuntime; SetOptions ignores it"},
	"ResultCacheSize":    {true, "the result cache is built at NewRuntime; SetOptions ignores it"},
	"ResultCacheBytes":   {true, "the result cache is built at NewRuntime; SetOptions ignores it"},
	"Retries":            {true, "the resilient transport is built at NewRuntime; SetOptions ignores it"},
	"RetryBackoff":       {true, "the resilient transport is built at NewRuntime; SetOptions ignores it"},
	"PromptTimeout":      {true, "the resilient transport is built at NewRuntime; SetOptions ignores it"},
	"BreakerThreshold":   {true, "the resilient transport is built at NewRuntime; SetOptions ignores it"},
	"BreakerCooldown":    {true, "the resilient transport is built at NewRuntime; SetOptions ignores it"},
	"AdmissionClass":     {false, "the scheduler band the prompts dispatch in, not the prompts (TestServeStreamClassParams)"},
	"AdmissionWeight":    {false, "the tenant's share within its band, not its prompts (TestSchedulerWeightedShare)"},
	"DefaultSource": {false, "it decides table resolution, and the built plan's fingerprint folds in each " +
		"resolved binding (TestMemoPerSessionResolution)"},
	"Optimizer.Stats": {false, "Choose plans on the runtime's statistics whatever it holds, and statistics " +
		"steer only which candidate runs (TestDifferentialCostBased)"},
}

// keyPerturbations are the changed values of fields the generic
// perturbation cannot produce or would make vacuous.
var keyPerturbations = map[string]any{
	"AdmissionClass":      "batch",
	"Clean.Canonicalizer": clean.NewCanonicalizer(map[string]string{"uk": "GBR"}),
	"Optimizer.Stats":     optimizer.NewStatistics(),
}

// TestOptionsKeyCoverage walks every field of core.Options,
// optimizer.Options and clean.Options by reflection and changes each one
// in turn: the options key (every result-cache key's prefix) or the
// plan-cache key must change, or the field is on keyExempt. It fails on
// an exempt name that no longer exists, on an exempt field that does move
// a key, and on a new field on neither side.
func TestOptionsKeyCoverage(t *testing.T) {
	w := world.Build()
	base := DefaultOptions()
	base.Pipelined = false // so the wave width, BatchWorkers, reaches the plan-cache key
	base.CacheEnabled = false
	rt := NewRuntime(simllm.New(simllm.ChatGPT, w, 1), base)
	if err := rt.BindLLMTable(w.Table("city").Def); err != nil {
		t.Fatal(err)
	}
	keys := func(o Options) (string, string) {
		s := rt.NewSession()
		s.SetOptions(o)
		return s.res.key, s.res.planKey
	}
	const sql = `SELECT name, population FROM city WHERE population > 1000000`
	relation := func(o Options) string {
		t.Helper()
		s := rt.NewSession()
		s.SetOptions(o)
		rel, _, err := s.Query(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		return rel.String()
	}
	baseKey, basePlan := keys(base)
	baseRel := relation(base)

	seen := map[string]bool{}
	var walk func(v reflect.Value, prefix string)
	walk = func(v reflect.Value, prefix string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), prefix+v.Type().Field(i).Name
			if f.Kind() == reflect.Struct {
				walk(f, name+".")
				continue
			}
			seen[name] = true
			old := reflect.ValueOf(f.Interface())
			f.Set(perturb(t, name, f.Type(), old))
			key, plan := keys(base)
			moved := key != baseKey || plan != basePlan
			exempt, ok := keyExempt[name]
			switch {
			case !ok && !moved:
				t.Errorf("%s: changing it moves neither the options key nor the plan-cache key; key it in optionsFingerprint or exempt it with a reason", name)
			case ok && moved:
				t.Errorf("%s is exempt but moves a key; drop it from keyExempt", name)
			case ok && !exempt.runtimeTier:
				if rel := relation(base); rel != baseRel {
					t.Errorf("%s is exempt (%s) but changes the relation:\n%s\nwant:\n%s", name, exempt.why, rel, baseRel)
				}
			}
			f.Set(old)
		}
	}
	walk(reflect.ValueOf(&base).Elem(), "")
	for name := range keyExempt {
		if !seen[name] {
			t.Errorf("keyExempt names %s, which is no longer an option field", name)
		}
	}
}

// perturb returns a value of type typ other than old: a flipped bool, an
// incremented number, a longer string, a one-entry map, or the field's
// keyPerturbations entry.
func perturb(t *testing.T, name string, typ reflect.Type, old reflect.Value) reflect.Value {
	t.Helper()
	if v, ok := keyPerturbations[name]; ok {
		return reflect.ValueOf(v)
	}
	sample := func(typ reflect.Type) reflect.Value {
		switch typ.Kind() {
		case reflect.Bool:
			return reflect.ValueOf(true).Convert(typ)
		case reflect.Int:
			return reflect.ValueOf(1).Convert(typ)
		case reflect.String:
			return reflect.ValueOf("x").Convert(typ)
		}
		t.Fatalf("%s: no sample %s value", name, typ)
		return reflect.Value{}
	}
	out := reflect.New(typ).Elem()
	switch typ.Kind() {
	case reflect.Bool:
		out.SetBool(!old.Bool())
	case reflect.Int, reflect.Int64:
		out.SetInt(old.Int() + 1)
	case reflect.String:
		out.SetString(old.String() + "x")
	case reflect.Map:
		out.Set(reflect.MakeMap(typ))
		out.SetMapIndex(sample(typ.Key()), sample(typ.Elem()))
	default:
		t.Fatalf("%s: no perturbation for a %s field; add one to keyPerturbations", name, typ)
	}
	return out
}

// TestClassOnlySetOptionsResolvesNothing: a SetOptions that changes only
// the admission class and weight (galois-serve's ?class= and ?weight=)
// builds no resolution: the session keeps the runtime's.
func TestClassOnlySetOptionsResolvesNothing(t *testing.T) {
	rt := verifyRuntime(t, map[string]string{"verify": "checker"})
	s := rt.NewSession()
	o := s.Options()
	o.AdmissionClass, o.AdmissionWeight = "batch", 2
	s.SetOptions(o)
	if s.res != rt.res {
		t.Error("a class-only SetOptions built a resolution of its own")
	}
}
