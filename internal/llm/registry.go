package llm

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
)

// Role classifies a prompt by the operator that issues it — the unit the
// routing policy works in. Key scans and boolean filters are cheap,
// high-volume prompts a small model answers adequately; attribute
// fetches and verification carry the result's actual content and want
// the strong model. A router maps each role (plus table binding and
// session override) to a named backend.
type Role string

const (
	// RoleKeyscan is the table scan's list prompts, including the
	// more-results continuation loop.
	RoleKeyscan Role = "keyscan"
	// RoleFetch is the per-row attribute fetch prompts.
	RoleFetch Role = "fetch"
	// RoleFilter is the per-row boolean judgment prompts of LLM filters.
	RoleFilter Role = "filter"
	// RoleVerify is the second-model double-check of fetched values.
	RoleVerify Role = "verify"
)

// Roles lists every prompt role, in a fixed order.
var Roles = []Role{RoleKeyscan, RoleFetch, RoleFilter, RoleVerify}

// ParseRole maps the wire spelling of a prompt role to its value.
func ParseRole(s string) (Role, error) {
	switch Role(s) {
	case RoleKeyscan, RoleFetch, RoleFilter, RoleVerify:
		return Role(s), nil
	}
	return "", fmt.Errorf("unknown prompt role %q (want keyscan, fetch, filter or verify)", s)
}

// BackendSpec declares one named backend for a Registry.
type BackendSpec struct {
	// Name is the backend's registry identity — the endpoint name the
	// scheduler budgets under, errors are attributed to, and routes and
	// fallback chains refer to. Distinct backends may share one
	// underlying model under different names.
	Name string
	// Client is the raw transport (a simllm model, an injector-wrapped
	// model, a real API client). The registry wraps it via its wrap hook
	// (normally in a ResilientClient with an independent breaker and
	// retry budget).
	Client Client
	// Workers overrides the per-endpoint worker budget for this backend,
	// fixed when the scheduler is built (0 means the scheduler default).
	Workers int
	// CostWeight is the backend's relative price per prompt (1.0 when
	// zero). The optimizer prices plans in prompt-count × weight, so a
	// plan that keeps its volume on a cheap backend wins.
	CostWeight float64
	// SpeedFactor scales the backend's estimated per-prompt latency in
	// plan pricing (1.0 when zero; below 1 is faster).
	SpeedFactor float64
	// Fallback names the backends to fail over to, in order, when a call
	// on this backend is shed or exhausted.
	Fallback []string
}

// Backend is one named model endpoint in a Registry: the (normally
// resilient) transport plus the routing metadata and lifetime prompt
// accounting. It implements Client under its registry name, so the
// scheduler's per-endpoint pools, the prompt cache's keying and error
// attribution all follow the backend identity.
type Backend struct {
	name     string
	client   Client // the wrapped transport calls traverse
	raw      Client // the declared client, before wrapping
	workers  int
	cost     float64
	speed    float64
	fallback []string
	chain    []*Backend // this backend, then its deduplicated fallbacks
	prompts  atomic.Int64
}

// Name implements Client: the backend's registry identity.
func (b *Backend) Name() string { return b.name }

// Complete implements Client, counting completed calls for the
// per-backend stats surface.
func (b *Backend) Complete(ctx context.Context, prompt string) (string, error) {
	out, err := b.client.Complete(ctx, prompt)
	if err != nil {
		return "", err
	}
	b.prompts.Add(1)
	return out, nil
}

// Transport returns the wrapped client calls traverse (normally a
// *ResilientClient).
func (b *Backend) Transport() Client { return b.client }

// Raw returns the declared client, before resilience wrapping.
func (b *Backend) Raw() Client { return b.raw }

// Resilience returns the backend's resilient transport, when it has one.
func (b *Backend) Resilience() (*ResilientClient, bool) {
	rc, ok := b.client.(*ResilientClient)
	return rc, ok
}

// Workers reports the backend's declared per-endpoint worker budget (0 =
// the scheduler default).
func (b *Backend) Workers() int { return b.workers }

// CostWeight reports the backend's relative price per prompt.
func (b *Backend) CostWeight() float64 { return b.cost }

// SpeedFactor reports the backend's latency multiplier in plan pricing.
func (b *Backend) SpeedFactor() float64 { return b.speed }

// Fallback reports the backend's declared failover chain, in order.
func (b *Backend) Fallback() []string { return append([]string(nil), b.fallback...) }

// Prompts reports the lifetime count of completed calls.
func (b *Backend) Prompts() int64 { return b.prompts.Load() }

// Registry is the named-backend set one runtime owns: declared backends
// in declaration order, a default and per-role routes. Every client a
// query's prompts reach — the verifier included — is one of them.
// NewRegistry builds it whole and nothing writes it afterwards, so
// readers take no lock.
type Registry struct {
	order       []*Backend
	byName      map[string]*Backend
	defaultName string
	routes      map[Role]string
	failovers   atomic.Int64
}

// CheckDeclaration reports the first inconsistency of one backend
// declaration: an empty or duplicate name, an undeclared default, a
// misspelled role, an undeclared route target, or a fallback that names
// its own or an undeclared backend. It reads no client, so a declaration
// file is checked before any model exists.
func CheckDeclaration(specs []BackendSpec, defaultName string, routes map[string]string) error {
	names := make(map[string]bool, len(specs))
	for _, spec := range specs {
		switch {
		case spec.Name == "":
			return fmt.Errorf("backend with empty name")
		case names[spec.Name]:
			return fmt.Errorf("duplicate backend %q", spec.Name)
		}
		names[spec.Name] = true
	}
	if defaultName != "" && !names[defaultName] {
		return fmt.Errorf("default backend %q not declared", defaultName)
	}
	for roleName, target := range routes {
		role, err := ParseRole(roleName)
		if err != nil {
			return err
		}
		if !names[target] {
			return fmt.Errorf("route %s -> %q: backend not declared", role, target)
		}
	}
	for _, spec := range specs {
		for _, fb := range spec.Fallback {
			switch {
			case fb == spec.Name:
				return fmt.Errorf("backend %q lists itself as fallback", spec.Name)
			case !names[fb]:
				return fmt.Errorf("backend %q fallback %q not declared", spec.Name, fb)
			}
		}
	}
	return nil
}

// NewRegistry builds the registry one backend declaration describes:
// specs in declaration order, the default backend ("" = the first
// declared) and the runtime-wide role routes (role name → backend). It
// rejects what CheckDeclaration rejects and nil clients, and resolves
// every backend's deduplicated failover chain once. No specs build an
// empty registry. wrap, when non-nil, wraps every declared client (the
// runtime passes its resilient-transport constructor); the endpoint
// argument is the backend name the wrapper should report. Zero pricing
// coefficients normalize to 1.
func NewRegistry(specs []BackendSpec, defaultName string, routes map[string]string, wrap func(inner Client, endpoint string) Client) (*Registry, error) {
	if err := CheckDeclaration(specs, defaultName, routes); err != nil {
		return nil, fmt.Errorf("llm registry: %w", err)
	}
	g := &Registry{byName: make(map[string]*Backend, len(specs)), routes: make(map[Role]string, len(routes))}
	for _, spec := range specs {
		if spec.Client == nil {
			return nil, fmt.Errorf("llm registry: backend %q has no client", spec.Name)
		}
		client := spec.Client
		if wrap != nil {
			client = wrap(spec.Client, spec.Name)
		}
		b := &Backend{
			name:     spec.Name,
			client:   client,
			raw:      spec.Client,
			workers:  spec.Workers,
			cost:     orOne(spec.CostWeight),
			speed:    orOne(spec.SpeedFactor),
			fallback: append([]string(nil), spec.Fallback...),
		}
		g.byName[spec.Name] = b
		g.order = append(g.order, b)
	}
	if defaultName == "" && len(g.order) > 0 {
		defaultName = g.order[0].name
	}
	g.defaultName = defaultName
	for roleName, target := range routes {
		g.routes[Role(roleName)] = target
	}
	for _, b := range g.order {
		b.chain = []*Backend{b}
		for _, fb := range b.fallback {
			if next := g.byName[fb]; !slices.Contains(b.chain, next) {
				b.chain = append(b.chain, next)
			}
		}
	}
	return g, nil
}

// orOne normalizes an unset pricing coefficient to 1.
func orOne(f float64) float64 {
	if f <= 0 {
		return 1
	}
	return f
}

// Get returns a declared backend by name.
func (g *Registry) Get(name string) (*Backend, bool) {
	b, ok := g.byName[name]
	return b, ok
}

// Default returns the default backend (nil on an empty registry).
func (g *Registry) Default() *Backend { return g.byName[g.defaultName] }

// Backends returns the declared backends in declaration order. The
// slice is the registry's own: read-only.
func (g *Registry) Backends() []*Backend { return g.order }

// Route reports the backend one prompt role is bound to runtime-wide,
// if any.
func (g *Registry) Route(role Role) (string, bool) {
	b, ok := g.routes[role]
	return b, ok
}

// Failovers reports how many times a routed call failed over to a
// fallback backend, lifetime.
func (g *Registry) Failovers() int64 { return g.failovers.Load() }

// BreakersClosed reports whether the breaker of every resilient backend
// is closed: false as soon as one is open or half-open. It allocates
// nothing, so a caller may sample it on every query completion.
func (g *Registry) BreakersClosed() bool {
	for _, b := range g.order {
		if !b.breakerClosed() {
			return false
		}
	}
	return true
}

// breakerClosed reports whether b has no resilient transport or its
// breaker is closed.
func (b *Backend) breakerClosed() bool {
	rc, ok := b.Resilience()
	return !ok || rc.State() == BreakerClosed
}

// Router builds a routing view over the registry with per-session role
// overrides (nil or empty for none). Overrides must name declared
// backends; unknown names surface when the role is resolved.
func (g *Registry) Router(overrides map[Role]string) *Router {
	return &Router{reg: g, overrides: overrides}
}

// Router resolves prompt roles to backend chains. Resolution order per
// role: the session override, the table binding's backend, the
// registry's role route, the registry default. The chain is the chosen
// backend followed by its declared fallbacks.
type Router struct {
	reg       *Registry
	overrides map[Role]string
}

// Chain resolves one role (with an optional table-bound backend name)
// to its failover chain. The chain was resolved when the registry was
// built: the slice is shared and read-only, and resolving allocates
// nothing.
func (r *Router) Chain(role Role, tableBackend string) ([]*Backend, error) {
	g := r.reg
	name := g.defaultName
	if routed, ok := g.routes[role]; ok {
		name = routed
	}
	if tableBackend != "" {
		name = tableBackend
	}
	if over, ok := r.overrides[role]; ok && over != "" {
		name = over
	}
	primary, ok := g.byName[name]
	if !ok {
		return nil, fmt.Errorf("llm registry: role %s resolves to unknown backend %q", role, name)
	}
	return primary.chain, nil
}

// Backend resolves the primary backend one role's prompts route to —
// the pricing the optimizer charges plans with.
func (r *Router) Backend(role Role, tableBackend string) (*Backend, error) {
	chain, err := r.Chain(role, tableBackend)
	if err != nil {
		return nil, err
	}
	return chain[0], nil
}

// Client resolves one role to a routed client: calls go to the primary
// backend and fail over down the chain on breaker sheds, saturation and
// transient exhaustion, with the attempted-endpoint chain preserved in
// the surfaced error.
func (r *Router) Client(role Role, tableBackend string) (Client, error) {
	chain, err := r.Chain(role, tableBackend)
	if err != nil {
		return nil, err
	}
	if len(chain) == 1 {
		return chain[0], nil
	}
	return &Routed{reg: r.reg, chain: chain}, nil
}

// Routed is a failover client over a backend chain. It reports the
// primary backend's name, so scheduler pools, prompt-cache keys and
// per-endpoint accounting follow the route's primary; fallback traffic
// executes inside the primary's dispatch slot (the work still has to be
// done — it is the endpoint answering that changes).
type Routed struct {
	reg   *Registry
	chain []*Backend
}

// Name implements Client with the primary backend's name.
func (c *Routed) Name() string { return c.chain[0].Name() }

// Complete implements Client: try each backend in chain order, moving on
// only while the failure is one another backend could do better on (see
// FailoverEligible). The returned error names the last backend actually
// attempted, with every earlier endpoint in the chain.
func (c *Routed) Complete(ctx context.Context, prompt string) (string, error) {
	var last error
	for i, b := range c.chain {
		out, err := b.Complete(ctx, prompt)
		if err == nil {
			return out, nil
		}
		err = stitchChain(last, err)
		if !FailoverEligible(err) || ctx.Err() != nil {
			return "", err
		}
		last = err
		if i+1 < len(c.chain) {
			c.reg.failovers.Add(1)
		}
	}
	return "", last
}

// FailoverEligible reports whether a failure on one backend warrants
// trying the next backend in the chain: the breaker shed the call, the
// retry budget was exhausted, or retries on this backend were exhausted
// by transient/deadline faults. Permanent failures (the prompt itself is
// bad — it would fail anywhere) and the caller's own cancellation never
// fail over.
func FailoverEligible(err error) bool {
	switch Classify(err) {
	case ClassBreakerOpen, ClassBudget, ClassTransient, ClassDeadline:
		return true
	}
	return false
}

// stitchChain folds the endpoints of an earlier failover attempt into
// the next backend's error, so the surfaced error carries the full
// attempt history in order.
func stitchChain(prev, next error) error {
	if prev == nil {
		return next
	}
	pe, ok := prev.(*Error)
	if !ok {
		return next
	}
	ne, ok := next.(*Error)
	if !ok {
		ne = &Error{Class: Classify(next), Err: next}
	}
	ne.Chain = append(pe.Attempted(), ne.Chain...)
	return ne
}
