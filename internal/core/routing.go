package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/llm"
	"repro/internal/optimizer"
)

// routeOverrides parses and validates the session's per-role backend
// overrides against the runtime's registry. Nil when the session sets
// none.
func (s *Session) routeOverrides() (map[llm.Role]string, error) {
	if len(s.opts.Routes) == 0 {
		return nil, nil
	}
	out := make(map[llm.Role]string, len(s.opts.Routes))
	for roleName, backend := range s.opts.Routes {
		role, err := llm.ParseRole(roleName)
		if err != nil {
			return nil, fmt.Errorf("core: session route: %w", err)
		}
		if _, ok := s.rt.registry.Get(backend); !ok {
			return nil, fmt.Errorf("core: session route %s -> %q: backend not declared", role, backend)
		}
		out[role] = backend
	}
	return out, nil
}

// verifyRoute reports the backend the verify role is explicitly routed
// to — session override first, then the runtime's role route. A verify
// route is what turns verification on (Section 6, "Knowledge of the
// Unknown"): the routed backend provides the second opinion.
func (s *Session) verifyRoute(overrides map[llm.Role]string) (string, bool) {
	if b, ok := overrides[llm.RoleVerify]; ok && b != "" {
		return b, true
	}
	return s.rt.registry.Route(llm.RoleVerify)
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
func (s *Session) priceFor(router *llm.Router) func(role llm.Role, table string) optimizer.BackendPrice {
	if !s.rt.routed {
		return nil
	}
	return func(role llm.Role, table string) optimizer.BackendPrice {
		b, err := router.Backend(role, s.rt.pin(role, table))
		if err != nil || b == nil {
			b = s.rt.registry.Default()
		}
		return optimizer.BackendPrice{Backend: b.Name(), CostWeight: b.CostWeight(), SpeedFactor: b.SpeedFactor()}
	}
}

// residentFor builds the optimizer's prompt-cache residency hook: how
// many completions of a prompt class are resident for the model the
// role's prompts would be keyed under at execution — the same resolution
// promptEnv performs. Nil (every prompt priced) when the prompt cache is
// off.
func (s *Session) residentFor(router *llm.Router) func(role llm.Role, table string, class llm.PromptClass) int {
	cache := s.rt.cache
	if cache == nil {
		return nil
	}
	return func(role llm.Role, table string, class llm.PromptClass) int {
		b, err := router.Backend(role, s.rt.pin(role, table))
		if err != nil {
			return 0
		}
		return cache.Resident(b.Name(), class)
	}
}

// promptEnv is one query's routed transport: a routing view with the
// session's overrides applied, and the resolved verifier.
type promptEnv struct {
	router   *llm.Router
	verifier llm.Client // nil when verification is off this session
}

// promptEnv builds the transport for one query's execution.
func (s *Session) promptEnv() (*promptEnv, error) {
	overrides, err := s.routeOverrides()
	if err != nil {
		return nil, err
	}
	env := &promptEnv{router: s.rt.registry.Router(overrides)}
	if _, ok := s.verifyRoute(overrides); ok {
		env.verifier = env.client(llm.RoleVerify, s.rt.pin(llm.RoleVerify, ""))
	}
	return env, nil
}

// client resolves one prompt role (plus an optional table-pinned
// backend) to its failover-capable client; the empty role resolves to
// the default backend's chain. Nil (not a typed-nil interface) when
// resolution fails — a clientless runtime; overrides and pins are
// validated before execution — so operators fall back to the primary or
// report the usual missing-client error.
func (e *promptEnv) client(role llm.Role, tableBackend string) llm.Client {
	c, err := e.router.Client(role, tableBackend)
	if err != nil {
		return nil
	}
	return c
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
