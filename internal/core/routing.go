package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

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
// route turns verification on even without an Options.Verifier client:
// the routed backend provides the second opinion.
func (s *Session) verifyRoute(overrides map[llm.Role]string) (string, bool) {
	if b, ok := overrides[llm.RoleVerify]; ok && b != "" {
		return b, true
	}
	if b, ok := s.rt.registry.Routes()[llm.RoleVerify]; ok && b != "" {
		return b, true
	}
	return "", false
}

// verifyEnabled reports whether fetched values are double-checked this
// session: an explicit verifier client or a routed verify backend.
func (s *Session) verifyEnabled(overrides map[llm.Role]string) bool {
	if s.opts.Verifier != nil {
		return true
	}
	_, ok := s.verifyRoute(overrides)
	return ok
}

// priceFor builds the optimizer's backend-pricing hook over a routing
// view: each operator role is charged the cost weight and speed factor
// of the backend it would route to. Nil (unpriced estimates, identical
// to the single-backend planner) when the runtime declared no explicit
// backends.
func (s *Session) priceFor(router *llm.Router) func(role llm.Role, table string) optimizer.BackendPrice {
	if !s.rt.routed {
		return nil
	}
	return func(role llm.Role, table string) optimizer.BackendPrice {
		b, err := router.Backend(role, s.rt.tableBackend(table))
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
func (s *Session) residentFor(router *llm.Router, overrides map[llm.Role]string) func(role llm.Role, table string, class llm.PromptClass) int {
	cache := s.rt.cache
	if cache == nil {
		return nil
	}
	return func(role llm.Role, table string, class llm.PromptClass) int {
		pin := ""
		if role != llm.RoleVerify {
			pin = s.rt.tableBackend(table)
		} else if _, routed := s.verifyRoute(overrides); !routed {
			// Verification ignores table pins, and without a verify route
			// it runs on the session's own verifier client.
			if s.opts.Verifier == nil {
				return 0
			}
			return cache.Resident(s.rt.registry.Adopt(s.opts.Verifier).Name(), class)
		}
		b, err := router.Backend(role, pin)
		if err != nil {
			return 0
		}
		return cache.Resident(b.Name(), class)
	}
}

// promptEnv is one query's routed transport environment: a routing view
// with the session's overrides applied, one stats recorder per distinct
// failover chain (an unrouted runtime degenerates to exactly one), and
// the resolved verifier. Route resolution is memoized by chain, so every
// operator sharing a route shares a recorder and the scheduler sees one
// client identity per chain.
type promptEnv struct {
	s      *Session
	router *llm.Router

	mu      sync.Mutex
	byChain map[string]*llm.Recorder
	recs    []*llm.Recorder

	primary  *llm.Recorder
	verifier *llm.Recorder // nil when verification is off this session
}

// promptEnv builds the environment for one query's execution.
func (s *Session) promptEnv() (*promptEnv, error) {
	overrides, err := s.routeOverrides()
	if err != nil {
		return nil, err
	}
	env := &promptEnv{
		s:       s,
		router:  s.rt.registry.Router(overrides),
		byChain: map[string]*llm.Recorder{},
	}
	// The empty role resolves to the default backend's chain: the client
	// operators fall back to and faults are attributed to by default.
	env.primary = env.clientFor("", "")
	if name, ok := s.verifyRoute(overrides); ok && name != "" {
		env.verifier = env.clientFor(llm.RoleVerify, "")
	} else if s.opts.Verifier != nil {
		adopted := s.rt.registry.Adopt(s.opts.Verifier)
		rec := llm.NewRecorder(adopted)
		env.recs = append(env.recs, rec)
		env.verifier = rec
	}
	return env, nil
}

// clientFor resolves one prompt role (plus an optional table-pinned
// backend) to its recorded, failover-capable client. Roles resolving to
// the same chain share one recorder; resolution failures fall back to
// the primary (overrides and pins are validated before execution, so
// that path is defensive only).
func (e *promptEnv) clientFor(role llm.Role, tableBackend string) *llm.Recorder {
	e.mu.Lock()
	defer e.mu.Unlock()
	chain, err := e.router.Chain(role, tableBackend)
	if err != nil || len(chain) == 0 {
		return e.primary
	}
	names := make([]string, len(chain))
	for i, b := range chain {
		names[i] = b.Name()
	}
	key := strings.Join(names, "\x1f")
	if rec, ok := e.byChain[key]; ok {
		return rec
	}
	client, err := e.router.Client(role, tableBackend)
	if err != nil {
		return e.primary
	}
	rec := llm.NewRecorder(client)
	e.byChain[key] = rec
	e.recs = append(e.recs, rec)
	return rec
}

// clientForRole adapts clientFor to the physical layer's Route hook
// signature. A clientless runtime resolves every role to nil (not a
// typed-nil interface), so operators report the usual missing-client
// error.
func (e *promptEnv) clientForRole(role llm.Role, tableBackend string) llm.Client {
	if rec := e.clientFor(role, tableBackend); rec != nil {
		return rec
	}
	return nil
}

// primaryClient returns the default-chain client as an interface, nil
// when the runtime has no backends.
func (e *promptEnv) primaryClient() llm.Client {
	if e.primary != nil {
		return e.primary
	}
	return nil
}

// stats sums the usage of every distinct recorder the query routed
// prompts through (the verifier's included, counted once even when it
// shares the primary's chain).
func (e *promptEnv) stats() llm.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total llm.Stats
	for _, rec := range e.recs {
		total.Add(rec.Stats())
	}
	return total
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
