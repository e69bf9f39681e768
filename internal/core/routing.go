package core

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"

	"repro/internal/clean"
	"repro/internal/llm"
	"repro/internal/optimizer"
	"repro/internal/physical"
)

// resolved is a session's options resolved against its runtime, once:
// by NewRuntime for the session defaults, by SetOptions for a session
// that changes them. Every query the session plans and executes reads
// it. Immutable; sessions under the runtime's defaults share the
// runtime's.
type resolved struct {
	key     string            // optionsFingerprint: every result-cache key's prefix
	planKey string            // key and the wave: every plan-cache key's prefix
	wave    int               // Options.wave
	routes  map[string]string // the session's own copy of Options.Routes
	// route resolves one prompt role, with a table's pinned backend, to
	// its failover-capable client (physical.Context.Route).
	route    func(role llm.Role, tableBackend string) llm.Client
	verifier llm.Client // nil when verification is off
	params   optimizer.CostParams
	cleaner  *clean.Cleaner
	// templates memoizes the fetch and key-scan prompt templates of every
	// query executed under this resolution (physical.Context.Templates).
	templates *physical.Templates
	err       error // an invalid route override; every query returns it
}

// resolve resolves normalized options, whose optionsFingerprint is key,
// against rt. A verify route, a session override or the runtime's, is
// what turns verification on (Section 6, "Knowledge of the Unknown"):
// the routed backend provides the second opinion.
func (rt *Runtime) resolve(opts *Options, key string) *resolved {
	r := &resolved{key: key, wave: opts.wave(), routes: maps.Clone(opts.Routes), cleaner: clean.New(opts.Clean),
		templates: new(physical.Templates)}
	r.planKey = key + "wave=" + strconv.Itoa(r.wave) + "|"
	overrides := make(map[llm.Role]string, len(r.routes))
	for roleName, backend := range r.routes {
		role, err := llm.ParseRole(roleName)
		if err != nil {
			r.err = fmt.Errorf("core: session route: %w", err)
			return r
		}
		if _, ok := rt.registry.Get(backend); !ok {
			r.err = fmt.Errorf("core: session route %s -> %q: backend not declared", role, backend)
			return r
		}
		overrides[role] = backend
	}
	router := rt.registry.Router(overrides)
	r.route = func(role llm.Role, tableBackend string) llm.Client {
		c, err := router.Client(role, tableBackend)
		if err != nil {
			return nil
		}
		return c
	}
	_, verify := overrides[llm.RoleVerify]
	if !verify {
		_, verify = rt.registry.Route(llm.RoleVerify)
	}
	if verify {
		r.verifier = r.route(llm.RoleVerify, "")
	}
	// On a multi-backend runtime, plans are priced against the backend
	// each operator role routes to (session overrides included); the
	// single-backend estimate stays unpriced.
	r.params = optimizer.CostParams{
		Workers:  rt.sched.Widths(r.wave),
		Verifier: verify,
		Price:    rt.priceFor(router),
		Resident: rt.residentFor(router),
	}
	return r
}

// matches reports whether r is the resolution of normalized options
// whose optionsFingerprint is key.
func (r *resolved) matches(opts *Options, key string) bool {
	return r.key == key && r.wave == opts.wave() && r.cleaner.Options() == opts.Clean && maps.Equal(r.routes, opts.Routes)
}

// pin is the backend a table's binding pins one role's prompts to (""
// for none). Verification is a second opinion on the fetched value, so
// it never follows the table's pin: only the verify route decides who
// checks. Pricing, residency and execution all resolve through here, so
// a plan is priced on the backend that answers.
func (rt *Runtime) pin(role llm.Role, table string) string {
	if role == llm.RoleVerify {
		return ""
	}
	return rt.tableBackend(table)
}

// priceFor builds the optimizer's backend-pricing hook over a routing
// view: each operator role is charged the cost weight and speed factor
// of the backend it would route to (the width that backend runs at is
// CostParams.Workers'). Nil (unpriced estimates, identical to the
// single-backend planner) when the runtime declared no explicit
// backends.
func (rt *Runtime) priceFor(router *llm.Router) func(role llm.Role, table string) optimizer.BackendPrice {
	if !rt.routed {
		return nil
	}
	return func(role llm.Role, table string) optimizer.BackendPrice {
		b, err := router.Backend(role, rt.pin(role, table))
		if err != nil || b == nil {
			b = rt.registry.Default()
		}
		return optimizer.BackendPrice{Backend: b.Name(), CostWeight: b.CostWeight(), SpeedFactor: b.SpeedFactor()}
	}
}

// residentFor builds the optimizer's prompt-cache residency hook: how
// many completions of a prompt class are resident for the model the
// role's prompts would be keyed under at execution, resolved as the
// resolution's route resolves it. Nil (every prompt priced) when the
// prompt cache is off.
func (rt *Runtime) residentFor(router *llm.Router) func(role llm.Role, table string, class llm.PromptClass) int {
	cache := rt.cache
	if cache == nil {
		return nil
	}
	return func(role llm.Role, table string, class llm.PromptClass) int {
		b, err := router.Backend(role, rt.pin(role, table))
		if err != nil {
			return 0
		}
		return cache.Resident(b.Name(), class)
	}
}

// fingerprintRoutes renders the session's route overrides into the
// options fingerprint: routing selects the model that answers, so two
// sessions with different routes must never share cached results.
// Unrouted sessions contribute nothing, keeping their fingerprints
// byte-identical with the pre-routing engine.
func fingerprintRoutes(b *strings.Builder, routes map[string]string) {
	if len(routes) == 0 {
		return
	}
	keys := make([]string, 0, len(routes))
	for k := range routes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("routes=")
	for _, k := range keys {
		fmt.Fprintf(b, "%s:%s,", k, routes[k])
	}
	b.WriteByte('|')
}
