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

// mustRegistry builds a registry without a wrap hook, failing the test
// on a rejected declaration.
func mustRegistry(t *testing.T, specs []BackendSpec, defaultName string, routes map[string]string) *Registry {
	t.Helper()
	g, err := NewRegistry(specs, defaultName, routes, nil)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	return g
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
	specs := []BackendSpec{
		{Name: "strong", Client: okClient("m-strong")},
		{Name: "cheap", Client: okClient("m-cheap")},
		{Name: "pinned", Client: okClient("m-pinned")},
		{Name: "over", Client: okClient("m-over")},
	}
	routes := map[string]string{"keyscan": "cheap"}
	for _, tc := range []struct {
		name        string
		defaultName string
		overrides   map[Role]string
		role        Role
		table       string
		want        string
	}{
		{"unrouted role: the first declared", "", nil, RoleFetch, "", "strong"},
		{"role route beats the default", "", nil, RoleKeyscan, "", "cheap"},
		{"table pin beats the role route", "", nil, RoleKeyscan, "pinned", "pinned"},
		{"session override beats everything", "", map[Role]string{RoleKeyscan: "over"}, RoleKeyscan, "pinned", "over"},
		{"declared default moves the unrouted role", "cheap", nil, RoleFetch, "", "cheap"},
		{"declared default leaves routed roles", "pinned", nil, RoleKeyscan, "", "cheap"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := mustRegistry(t, specs, tc.defaultName, routes).Router(tc.overrides)
			if got := chainNames(t, r, tc.role, tc.table); !reflect.DeepEqual(got, []string{tc.want}) {
				t.Fatalf("resolution = %v, want [%s]", got, tc.want)
			}
		})
	}
}

func TestRegistryChainFallbacksDeduped(t *testing.T) {
	g := mustRegistry(t, []BackendSpec{
		{Name: "a", Client: okClient("ma"), Fallback: []string{"b", "c", "b"}},
		{Name: "b", Client: okClient("mb"), Fallback: []string{"a"}},
		{Name: "c", Client: okClient("mc")},
	}, "", nil)
	r := g.Router(nil)
	if got := chainNames(t, r, RoleFetch, ""); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("chain = %v, want [a b c]", got)
	}
	if got := chainNames(t, r, RoleFetch, "b"); !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Fatalf("chain = %v, want [b a]", got)
	}
	a, _ := g.Get("a")
	if got := a.Fallback(); !reflect.DeepEqual(got, []string{"b", "c", "b"}) {
		t.Fatalf("Fallback = %v, want the declared list", got)
	}
}

// TestRegistryValidate: every declaration NewRegistry rejects, each
// named in its error.
func TestRegistryValidate(t *testing.T) {
	a := BackendSpec{Name: "a", Client: okClient("ma")}
	for _, tc := range []struct {
		name        string
		specs       []BackendSpec
		defaultName string
		routes      map[string]string
		want        string
	}{
		{"empty name", []BackendSpec{{Name: "", Client: okClient("x")}}, "", nil, "empty name"},
		{"nil client", []BackendSpec{{Name: "nil"}}, "", nil, `"nil" has no client`},
		{"duplicate", []BackendSpec{a, {Name: "a", Client: okClient("dup")}}, "", nil, `duplicate backend "a"`},
		{"undeclared default", []BackendSpec{a}, "ghost", nil, `default backend "ghost" not declared`},
		{"default on an empty registry", nil, "ghost", nil, `default backend "ghost" not declared`},
		{"role spelling", []BackendSpec{a}, "", map[string]string{"fetchh": "a"}, `unknown prompt role "fetchh"`},
		{"undeclared route target", []BackendSpec{a}, "", map[string]string{"verify": "ghost"}, `route verify -> "ghost": backend not declared`},
		{"self fallback", []BackendSpec{{Name: "a", Client: okClient("ma"), Fallback: []string{"a"}}}, "", nil, `"a" lists itself as fallback`},
		{"undeclared fallback", []BackendSpec{{Name: "a", Client: okClient("ma"), Fallback: []string{"ghost"}}}, "", nil, `"a" fallback "ghost" not declared`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewRegistry(tc.specs, tc.defaultName, tc.routes, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewRegistry = %v, %v; want an error containing %q", g, err, tc.want)
			}
		})
	}

	// No specs: an empty registry, whose roles resolve to no backend.
	empty := mustRegistry(t, nil, "", nil)
	if empty.Default() != nil || len(empty.Backends()) != 0 {
		t.Fatalf("empty registry: default %v, backends %v", empty.Default(), empty.Backends())
	}
	if _, err := empty.Router(nil).Client(RoleFetch, ""); err == nil {
		t.Fatalf("Client on an empty registry: want error")
	}
}

// TestRegistryWrapsEveryClient: the wrap hook sees each declared client
// under its backend name, and Raw keeps the declared one.
func TestRegistryWrapsEveryClient(t *testing.T) {
	var wrapped []string
	wrap := func(inner Client, endpoint string) Client {
		wrapped = append(wrapped, endpoint+"<-"+inner.Name())
		return clientFunc(endpoint, func(ctx context.Context, prompt string) (string, error) {
			return "wrapped " + prompt, nil
		})
	}
	g, err := NewRegistry([]BackendSpec{
		{Name: "x", Client: okClient("mx")},
		{Name: "y", Client: okClient("my")},
	}, "", nil, wrap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wrapped, []string{"x<-mx", "y<-my"}) {
		t.Fatalf("wrap calls = %v", wrapped)
	}
	x, _ := g.Get("x")
	if x.Raw().Name() != "mx" {
		t.Fatalf("Raw = %q, want the declared client", x.Raw().Name())
	}
	if out, _ := x.Complete(context.Background(), "q"); out != "wrapped q" {
		t.Fatalf("Complete = %q, want the wrapped transport's answer", out)
	}
}

var (
	chainSink   []*Backend
	backendSink *Backend
)

// TestRouterResolvesWithoutAllocating: chains are resolved when the
// registry is built, so resolving a role (the optimizer's pricing and
// residency hooks do it per operator, plan-cache guards per replay)
// allocates nothing, on one backend and on several with fallbacks.
func TestRouterResolvesWithoutAllocating(t *testing.T) {
	single := mustRegistry(t, []BackendSpec{{Name: "solo", Client: okClient("m")}}, "", nil)
	pair := mustRegistry(t, []BackendSpec{
		{Name: "cheap", Client: okClient("mc"), Fallback: []string{"strong"}},
		{Name: "strong", Client: okClient("ms"), Fallback: []string{"cheap"}},
	}, "strong", map[string]string{"keyscan": "cheap", "filter": "cheap"})
	for name, g := range map[string]*Registry{"single": single, "pair": pair} {
		r := g.Router(map[Role]string{RoleVerify: g.Default().Name()})
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			for _, role := range Roles {
				// Kept in package variables, so the compiler cannot elide
				// a result that escapes.
				if chainSink, err = r.Chain(role, ""); err != nil {
					t.Fatal(err)
				}
				if backendSink, err = r.Backend(role, ""); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per resolution of every role, want 0", name, allocs)
		}
	}
}

func TestRoutedFailoverChainAttribution(t *testing.T) {
	down := clientFunc("m-down", func(ctx context.Context, prompt string) (string, error) {
		return "", &Error{Class: ClassBreakerOpen, Endpoint: "primary", Err: ErrBreakerOpen}
	})
	g := mustRegistry(t, []BackendSpec{
		{Name: "primary", Client: down, Fallback: []string{"backup"}},
		{Name: "backup", Client: okClient("m-backup")},
	}, "", nil)

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
	shed := func(name string) Client {
		return clientFunc(name, func(ctx context.Context, prompt string) (string, error) {
			return "", &Error{Class: ClassBreakerOpen, Endpoint: name, Err: ErrBreakerOpen}
		})
	}
	g := mustRegistry(t, []BackendSpec{
		{Name: "a", Client: shed("a"), Fallback: []string{"b", "c"}},
		{Name: "b", Client: shed("b")},
		{Name: "c", Client: shed("c")},
	}, "", nil)

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
	g := mustRegistry(t, []BackendSpec{
		{Name: "a", Client: bad, Fallback: []string{"b"}},
		{Name: "b", Client: backup},
	}, "", nil)

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
	g := mustRegistry(t, []BackendSpec{{Name: "solo", Client: okClient("m")}}, "", nil)
	b, _ := g.Get("solo")
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
	g := mustRegistry(t, []BackendSpec{
		{Name: "x", Client: okClient("m")},
		{Name: "y", Client: okClient("m2"), CostWeight: 0.25, SpeedFactor: 0.5},
	}, "", nil)
	b, _ := g.Get("x")
	if b.CostWeight() != 1 || b.SpeedFactor() != 1 {
		t.Fatalf("zero pricing normalized to %v/%v, want 1/1", b.CostWeight(), b.SpeedFactor())
	}
	c, _ := g.Get("y")
	if c.CostWeight() != 0.25 || c.SpeedFactor() != 0.5 {
		t.Fatalf("explicit pricing = %v/%v, want 0.25/0.5", c.CostWeight(), c.SpeedFactor())
	}
}
