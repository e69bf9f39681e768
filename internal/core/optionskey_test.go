package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/clean"
	"repro/internal/llm"
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
}

// keyPerturbations are the changed values of fields the generic
// perturbation cannot produce or would make vacuous.
var keyPerturbations = map[string]any{
	"AdmissionClass":      "batch",
	"Clean.Canonicalizer": clean.NewCanonicalizer(map[string]string{"uk": "GBR"}),
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

// declExempt lists the llm.BackendSpec fields that move neither the
// store's declaration record nor the options key, each with why it
// cannot change what a model answers.
var declExempt = map[string]string{
	"Workers":     "it bounds the scheduler's width and the planner's estimate, not the prompts",
	"CostWeight":  "it steers plan choice, and the result-cache key excludes candidate choice by design",
	"SpeedFactor": "it steers plan choice, and the result-cache key excludes candidate choice by design",
}

// TestDeclarationCoverage walks every field of llm.BackendSpec by
// reflection, then the default backend and each role route, and changes
// each in turn: the store's declaration record (what persisted relations
// are bound to) or the options key must change, or the field is on
// declExempt. It fails on an exempt name that is no longer a field, on
// an exempt field that does move one, and on a new field on neither
// side.
func TestDeclarationCoverage(t *testing.T) {
	w := world.Build()
	declare := func() ([]BackendDef, string, map[string]string) {
		return []BackendDef{
			{Name: "a", Client: simllm.New(simllm.ChatGPT, w, 1)},
			{Name: "b", Client: simllm.New(simllm.GPT3, w, 1), Fallback: []string{"a"}},
		}, "a", map[string]string{}
	}
	keys := func(defs []BackendDef, defaultName string, routes map[string]string) string {
		t.Helper()
		rt, err := NewRuntimeWithBackends(defs, defaultName, routes, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return declaration(rt.registry) + "\n" + rt.NewSession().res.key
	}
	base := keys(declare())

	spec := reflect.TypeOf(BackendDef{})
	for i := 0; i < spec.NumField(); i++ {
		name := spec.Field(i).Name
		defs, defaultName, routes := declare()
		f := reflect.ValueOf(&defs[1]).Elem().Field(i)
		var changed reflect.Value
		switch name {
		case "Client":
			changed = reflect.ValueOf(simllm.New(simllm.Flan, w, 1))
		case "Fallback":
			changed = reflect.ValueOf([]string(nil))
		default:
			changed = perturb(t, "BackendSpec."+name, f.Type(), f)
		}
		f.Set(changed)
		moved := keys(defs, defaultName, routes) != base
		why, exempt := declExempt[name]
		switch {
		case !exempt && !moved:
			t.Errorf("BackendSpec.%s: changing it moves neither the declaration record nor the options key; record it in declaration or exempt it with a reason", name)
		case exempt && moved:
			t.Errorf("BackendSpec.%s is exempt (%s) but moves a key; drop it from declExempt", name, why)
		}
	}
	for name := range declExempt {
		if _, ok := spec.FieldByName(name); !ok {
			t.Errorf("declExempt names %s, which is no longer a BackendSpec field", name)
		}
	}

	defs, _, routes := declare()
	if keys(defs, "b", routes) == base {
		t.Error("the default backend moves neither the declaration record nor the options key")
	}
	for _, role := range llm.Roles {
		defs, defaultName, routes := declare()
		routes[string(role)] = "b"
		if keys(defs, defaultName, routes) == base {
			t.Errorf("the %s route moves neither the declaration record nor the options key", role)
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
	case reflect.Float64:
		out.SetFloat(old.Float() + 1)
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
