// Package config loads the engine's multi-backend routing declaration
// — the `galois.yaml` the CLIs accept via -config — and parses the
// per-session route overrides (ParseRoutes). The file names the
// model backends (each with its own scheduler budget, optimizer pricing
// and failover chain), the default backend, and the role routes:
//
//	# galois.yaml
//	default: strong
//	backends:
//	  - name: cheap
//	    model: gpt3        # simulated model profile
//	    seed: 7            # optional noise seed (0 = the CLI's -seed)
//	    workers: 2         # optional per-endpoint worker budget (below)
//	    cost: 0.25         # optimizer price per prompt (default 1.0)
//	    speed: 0.5         # optimizer latency multiplier (default 1.0)
//	    fallback: [strong] # failover chain, in order
//	  - name: strong
//	    model: chatgpt
//	routes:
//	  keyscan: cheap
//	  filter: cheap
//
// The syntax is the small YAML subset above — scalar top-level keys, a
// list of flat maps, one string map, flow lists, '#' comments — parsed
// by hand so the engine stays dependency-free. Anything outside the
// subset is a load error, not silently ignored.
//
// A backend's workers key is its per-endpoint worker budget (default: the
// engine's -workers). It bounds how many of the backend's prompts run at
// once, under the streaming policy and within a stop-and-go wave alike,
// and the planner's latency estimate for them.
package config

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/llm"
)

// Backend declares one named model backend.
type Backend struct {
	// Name is the backend's registry identity (routes, fallback chains,
	// scheduler pools, error attribution).
	Name string
	// Model names the simulated model profile serving this backend
	// (flan, tk, gpt3, chatgpt).
	Model string
	// Seed overrides the model's noise seed (0 = inherit the CLI seed).
	Seed int64
	// Workers overrides the per-endpoint worker budget the scheduler
	// dispatches and the planner estimates with (0 = the engine default).
	Workers int
	// Cost is the optimizer's relative price per prompt (0 = 1.0).
	Cost float64
	// Speed scales the backend's estimated per-prompt latency in plan
	// pricing (0 = 1.0; below 1 is faster).
	Speed float64
	// Fallback names the backends calls fail over to, in order.
	Fallback []string
}

// Spec is the registry's declaration of the backend, served by client.
func (b Backend) Spec(client llm.Client) llm.BackendSpec {
	return llm.BackendSpec{Name: b.Name, Client: client, Workers: b.Workers, CostWeight: b.Cost, SpeedFactor: b.Speed, Fallback: b.Fallback}
}

// Config is one parsed routing declaration.
type Config struct {
	// Default names the backend unrouted roles use ("" = the first
	// declared backend).
	Default string
	// Backends lists the declared backends in file order.
	Backends []Backend
	// Routes binds prompt roles (keyscan, fetch, filter, verify) to
	// backend names.
	Routes map[string]string
}

// Load reads and parses path, validating the result.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

// Parse parses a routing declaration from source text and validates it.
func Parse(src string) (*Config, error) {
	cfg := &Config{Routes: map[string]string{}}
	p := &parser{}
	// section tracks which top-level block indented lines belong to.
	const (
		secNone = iota
		secBackends
		secRoutes
	)
	section := secNone
	var cur *Backend

	flush := func() {
		if cur != nil {
			cfg.Backends = append(cfg.Backends, *cur)
			cur = nil
		}
	}

	for lineNo, raw := range strings.Split(src, "\n") {
		p.line = lineNo + 1
		line := stripComment(raw)
		if strings.TrimSpace(line) == "" {
			continue
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		if strings.Contains(line[:indent+1], "\t") {
			return nil, p.errf("tab indentation (use spaces)")
		}
		text := strings.TrimSpace(line)

		if indent == 0 {
			flush()
			key, val, err := splitKV(text)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			switch key {
			case "default":
				if val == "" {
					return nil, p.errf("default: missing backend name")
				}
				cfg.Default = val
			case "backends":
				if val != "" {
					return nil, p.errf("backends: must introduce a list")
				}
				section = secBackends
			case "routes":
				if val != "" {
					return nil, p.errf("routes: must introduce a map")
				}
				section = secRoutes
			default:
				return nil, p.errf("unknown top-level key %q (want default, backends or routes)", key)
			}
			continue
		}

		switch section {
		case secBackends:
			if strings.HasPrefix(text, "- ") || text == "-" {
				flush()
				cur = &Backend{}
				text = strings.TrimSpace(strings.TrimPrefix(text, "-"))
				if text == "" {
					continue
				}
			}
			if cur == nil {
				return nil, p.errf("backend field outside a '- ' list item")
			}
			key, val, err := splitKV(text)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			if err := p.setBackendField(cur, key, val); err != nil {
				return nil, err
			}
		case secRoutes:
			key, val, err := splitKV(text)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			if val == "" {
				return nil, p.errf("route %s: missing backend name", key)
			}
			if _, ok := cfg.Routes[key]; ok {
				return nil, p.errf("route %s declared twice", key)
			}
			cfg.Routes[key] = val
		default:
			return nil, p.errf("indented line outside a block")
		}
	}
	flush()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	specs := make([]llm.BackendSpec, len(cfg.Backends))
	for i, b := range cfg.Backends {
		specs[i] = b.Spec(nil)
	}
	if err := llm.CheckDeclaration(specs, cfg.Default, cfg.Routes); err != nil {
		return nil, err
	}
	return cfg, nil
}

// parser carries the current line for error attribution.
type parser struct{ line int }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *parser) setBackendField(b *Backend, key, val string) error {
	switch key {
	case "name":
		b.Name = val
	case "model":
		b.Model = val
	case "seed":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return p.errf("seed: %q is not an integer", val)
		}
		b.Seed = n
	case "workers":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return p.errf("workers: %q is not a non-negative integer", val)
		}
		b.Workers = n
	case "cost":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return p.errf("cost: %q is not a non-negative number", val)
		}
		b.Cost = f
	case "speed":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return p.errf("speed: %q is not a non-negative number", val)
		}
		b.Speed = f
	case "fallback":
		list, err := parseFlowList(val)
		if err != nil {
			return p.errf("fallback: %v", err)
		}
		b.Fallback = list
	default:
		return p.errf("unknown backend field %q", key)
	}
	return nil
}

// validate checks the file format's own rules: at least one backend,
// and a model per backend. The declaration's consistency is the
// registry's to check (llm.CheckDeclaration).
func (cfg *Config) validate() error {
	if len(cfg.Backends) == 0 {
		return fmt.Errorf("no backends declared")
	}
	for _, b := range cfg.Backends {
		if b.Model == "" {
			return fmt.Errorf("backend %q: no model", b.Name)
		}
	}
	return nil
}

// ParseRoutes parses per-session route overrides,
// "role=backend[,role=backend...]" (galois -route, galois-serve
// ?route=), checking the format and each role's spelling; a repeated
// role keeps its last backend. Whether a backend is declared is the
// runtime's registry to say.
func ParseRoutes(s string) (map[string]string, error) {
	out := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		role, backend, ok := strings.Cut(part, "=")
		role, backend = strings.TrimSpace(role), strings.TrimSpace(backend)
		if !ok || role == "" || backend == "" {
			return nil, fmt.Errorf("route entry %q: want role=backend", part)
		}
		if _, err := llm.ParseRole(role); err != nil {
			return nil, err
		}
		out[role] = backend
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no role=backend pairs in %q", s)
	}
	return out, nil
}

// stripComment removes a trailing '#' comment (quotes are not honored —
// the subset has no quoted strings containing '#').
func stripComment(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		return line[:i]
	}
	return line
}

// splitKV splits "key: value" (value may be empty).
func splitKV(text string) (key, val string, err error) {
	i := strings.IndexByte(text, ':')
	if i < 0 {
		return "", "", fmt.Errorf("expected 'key: value', got %q", text)
	}
	key = strings.TrimSpace(text[:i])
	val = strings.TrimSpace(text[i+1:])
	if key == "" {
		return "", "", fmt.Errorf("empty key in %q", text)
	}
	return key, unquote(val), nil
}

// parseFlowList parses "[a, b, c]" (or a bare single name) into its
// elements.
func parseFlowList(val string) ([]string, error) {
	if val == "" {
		return nil, fmt.Errorf("empty list")
	}
	if !strings.HasPrefix(val, "[") {
		return []string{unquote(val)}, nil
	}
	if !strings.HasSuffix(val, "]") {
		return nil, fmt.Errorf("unterminated list %q", val)
	}
	inner := strings.TrimSpace(val[1 : len(val)-1])
	if inner == "" {
		return nil, fmt.Errorf("empty list")
	}
	parts := strings.Split(inner, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		e := unquote(strings.TrimSpace(p))
		if e == "" {
			return nil, fmt.Errorf("empty element in %q", val)
		}
		out = append(out, e)
	}
	return out, nil
}

// unquote strips one level of matching single or double quotes.
func unquote(s string) string {
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			return s[1 : len(s)-1]
		}
	}
	return s
}
