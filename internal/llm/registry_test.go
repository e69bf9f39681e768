package llm

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func okClient(name string) Client {
	return clientFunc(name, func(ctx context.Context, prompt string) (string, error) {
		return name + ": " + prompt, nil
	})
}

func mustAdd(t *testing.T, g *Registry, spec BackendSpec) *Backend {
	t.Helper()
	b, err := g.Add(spec)
	if err != nil {
		t.Fatalf("Add(%s): %v", spec.Name, err)
	}
	return b
}

func chainNames(t *testing.T, r *Router, role Role, tableBackend string) []string {
	t.Helper()
	chain, err := r.Chain(role, tableBackend)
	if err != nil {
		t.Fatalf("Chain(%s, %q): %v", role, tableBackend, err)
	}
	names := make([]string, len(chain))
	for i, b := range chain {
		names[i] = b.Name()
	}
	return names
}

func TestRegistryResolutionOrder(t *testing.T) {
	g := NewRegistry(nil)
	mustAdd(t, g, BackendSpec{Name: "strong", Client: okClient("m-strong")})
	mustAdd(t, g, BackendSpec{Name: "cheap", Client: okClient("m-cheap")})
	mustAdd(t, g, BackendSpec{Name: "pinned", Client: okClient("m-pinned")})
	mustAdd(t, g, BackendSpec{Name: "over", Client: okClient("m-over")})
	if err := g.SetRoute(RoleKeyscan, "cheap"); err != nil {
		t.Fatalf("SetRoute: %v", err)
	}

	// Unrouted role: the default (first declared) backend.
	r := g.Router(nil)
	if got := chainNames(t, r, RoleFetch, ""); !reflect.DeepEqual(got, []string{"strong"}) {
		t.Fatalf("default resolution = %v, want [strong]", got)
	}
	// Registry role route beats the default.
	if got := chainNames(t, r, RoleKeyscan, ""); !reflect.DeepEqual(got, []string{"cheap"}) {
		t.Fatalf("role route = %v, want [cheap]", got)
	}
	// Table pin beats the role route.
	if got := chainNames(t, r, RoleKeyscan, "pinned"); !reflect.DeepEqual(got, []string{"pinned"}) {
		t.Fatalf("table pin = %v, want [pinned]", got)
	}
	// Session override beats everything.
	r = g.Router(map[Role]string{RoleKeyscan: "over"})
	if got := chainNames(t, r, RoleKeyscan, "pinned"); !reflect.DeepEqual(got, []string{"over"}) {
		t.Fatalf("session override = %v, want [over]", got)
	}

	// SetDefault moves the unrouted resolution.
	if err := g.SetDefault("cheap"); err != nil {
		t.Fatalf("SetDefault: %v", err)
	}
	r = g.Router(nil)
	if got := chainNames(t, r, RoleFetch, ""); !reflect.DeepEqual(got, []string{"cheap"}) {
		t.Fatalf("after SetDefault = %v, want [cheap]", got)
	}
}

func TestRegistryChainFallbacksDeduped(t *testing.T) {
	g := NewRegistry(nil)
	mustAdd(t, g, BackendSpec{Name: "a", Client: okClient("ma"), Fallback: []string{"b", "c", "b"}})
	mustAdd(t, g, BackendSpec{Name: "b", Client: okClient("mb")})
	mustAdd(t, g, BackendSpec{Name: "c", Client: okClient("mc")})
	r := g.Router(nil)
	if got := chainNames(t, r, RoleFetch, ""); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("chain = %v, want [a b c]", got)
	}
}

func TestRegistryValidate(t *testing.T) {
	empty := NewRegistry(nil)
	if err := empty.Validate(); err == nil {
		t.Fatalf("Validate on empty registry: want error")
	}
	g := NewRegistry(nil)
	mustAdd(t, g, BackendSpec{Name: "a", Client: okClient("ma"), Fallback: []string{"a"}})
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "itself") {
		t.Fatalf("self-fallback Validate = %v, want itself-as-fallback error", err)
	}
	g2 := NewRegistry(nil)
	mustAdd(t, g2, BackendSpec{Name: "a", Client: okClient("ma"), Fallback: []string{"ghost"}})
	if err := g2.Validate(); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("unknown-fallback Validate = %v, want undeclared-backend error", err)
	}
	if _, err := g2.Add(BackendSpec{Name: "a", Client: okClient("dup")}); err == nil {
		t.Fatalf("duplicate Add: want error")
	}
	if _, err := g2.Add(BackendSpec{Name: "", Client: okClient("x")}); err == nil {
		t.Fatalf("empty-name Add: want error")
	}
	if _, err := g2.Add(BackendSpec{Name: "nil"}); err == nil {
		t.Fatalf("nil-client Add: want error")
	}
}

func TestRoutedFailoverChainAttribution(t *testing.T) {
	g := NewRegistry(nil)
	down := clientFunc("m-down", func(ctx context.Context, prompt string) (string, error) {
		return "", &Error{Class: ClassBreakerOpen, Endpoint: "primary", Err: ErrBreakerOpen}
	})
	mustAdd(t, g, BackendSpec{Name: "primary", Client: down, Fallback: []string{"backup"}})
	mustAdd(t, g, BackendSpec{Name: "backup", Client: okClient("m-backup")})

	r := g.Router(nil)
	c, err := r.Client(RoleFetch, "")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	routed, ok := c.(*Routed)
	if !ok {
		t.Fatalf("client = %T, want *Routed (multi-backend chain)", c)
	}
	// Pool identity follows the primary: the route changes who answers,
	// not whose dispatch slot the work runs in.
	if routed.Name() != "primary" {
		t.Fatalf("Name = %q, want primary", routed.Name())
	}
	out, err := routed.Complete(context.Background(), "q1")
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if out != "m-backup: q1" {
		t.Fatalf("out = %q, want the backup's answer", out)
	}
	if got := g.Failovers(); got != 1 {
		t.Fatalf("Failovers = %d, want 1", got)
	}
	pb, _ := g.Get("primary")
	bb, _ := g.Get("backup")
	if pb.Prompts() != 0 || bb.Prompts() != 1 {
		t.Fatalf("prompt counters = %d/%d, want 0 primary / 1 backup", pb.Prompts(), bb.Prompts())
	}
}

func TestRoutedExhaustedChainError(t *testing.T) {
	g := NewRegistry(nil)
	shed := func(name string) Client {
		return clientFunc(name, func(ctx context.Context, prompt string) (string, error) {
			return "", &Error{Class: ClassBreakerOpen, Endpoint: name, Err: ErrBreakerOpen}
		})
	}
	mustAdd(t, g, BackendSpec{Name: "a", Client: shed("a"), Fallback: []string{"b", "c"}})
	mustAdd(t, g, BackendSpec{Name: "b", Client: shed("b")})
	mustAdd(t, g, BackendSpec{Name: "c", Client: shed("c")})

	r := g.Router(nil)
	c, err := r.Client(RoleFilter, "")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	_, err = c.Complete(context.Background(), "q")
	if err == nil {
		t.Fatalf("Complete: want error when every backend sheds")
	}
	var le *Error
	if !errors.As(err, &le) {
		t.Fatalf("error = %T, want *Error", err)
	}
	if got := le.Attempted(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Attempted = %v, want the full chain in order", got)
	}
	if g.Failovers() != 2 {
		t.Fatalf("Failovers = %d, want 2 (a->b, b->c)", g.Failovers())
	}
}

func TestRoutedPermanentDoesNotFailOver(t *testing.T) {
	g := NewRegistry(nil)
	calls := 0
	bad := clientFunc("bad", func(ctx context.Context, prompt string) (string, error) {
		calls++
		return "", &Error{Class: ClassPermanent, Endpoint: "a", Err: errors.New("malformed prompt")}
	})
	backupCalls := 0
	backup := clientFunc("bk", func(ctx context.Context, prompt string) (string, error) {
		backupCalls++
		return "ok", nil
	})
	mustAdd(t, g, BackendSpec{Name: "a", Client: bad, Fallback: []string{"b"}})
	mustAdd(t, g, BackendSpec{Name: "b", Client: backup})

	r := g.Router(nil)
	c, _ := r.Client(RoleFetch, "")
	if _, err := c.Complete(context.Background(), "q"); err == nil {
		t.Fatalf("Complete: want the permanent error surfaced")
	}
	if calls != 1 || backupCalls != 0 {
		t.Fatalf("calls = %d/%d, want 1 primary / 0 backup (permanent failures fail everywhere)", calls, backupCalls)
	}
	if g.Failovers() != 0 {
		t.Fatalf("Failovers = %d, want 0", g.Failovers())
	}
}

func TestRouterSingleChainReturnsBackendDirect(t *testing.T) {
	g := NewRegistry(nil)
	b := mustAdd(t, g, BackendSpec{Name: "solo", Client: okClient("m")})
	r := g.Router(nil)
	c, err := r.Client(RoleVerify, "")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	if c != Client(b) {
		t.Fatalf("client = %T, want the *Backend itself (no Routed wrapper for a one-element chain)", c)
	}
}

func TestRegistryNormalizesPricing(t *testing.T) {
	g := NewRegistry(nil)
	b := mustAdd(t, g, BackendSpec{Name: "x", Client: okClient("m")})
	if b.CostWeight() != 1 || b.SpeedFactor() != 1 {
		t.Fatalf("zero pricing normalized to %v/%v, want 1/1", b.CostWeight(), b.SpeedFactor())
	}
	c := mustAdd(t, g, BackendSpec{Name: "y", Client: okClient("m2"), CostWeight: 0.25, SpeedFactor: 0.5})
	if c.CostWeight() != 0.25 || c.SpeedFactor() != 0.5 {
		t.Fatalf("explicit pricing = %v/%v, want 0.25/0.5", c.CostWeight(), c.SpeedFactor())
	}
}
