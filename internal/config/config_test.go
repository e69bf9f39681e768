package config

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/llm"
)

const sample = `
# galois.yaml — two backends, cheap roles routed to the small model
default: strong
backends:
  - name: cheap
    model: gpt3
    seed: 7
    workers: 2
    cost: 0.25
    speed: 0.5
    fallback: [strong]
  - name: strong
    model: chatgpt   # trailing comment
routes:
  keyscan: cheap
  filter: cheap
`

func TestParseSample(t *testing.T) {
	cfg, err := Parse(sample)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.Default != "strong" {
		t.Fatalf("Default = %q", cfg.Default)
	}
	want := []Backend{
		{Name: "cheap", Model: "gpt3", Seed: 7, Workers: 2, Cost: 0.25, Speed: 0.5, Fallback: []string{"strong"}},
		{Name: "strong", Model: "chatgpt"},
	}
	if !reflect.DeepEqual(cfg.Backends, want) {
		t.Fatalf("Backends = %+v, want %+v", cfg.Backends, want)
	}
	if !reflect.DeepEqual(cfg.Routes, map[string]string{"keyscan": "cheap", "filter": "cheap"}) {
		t.Fatalf("Routes = %v", cfg.Routes)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "galois.yaml")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(cfg.Backends) != 2 {
		t.Fatalf("backends = %d, want 2", len(cfg.Backends))
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.yaml")); err == nil {
		t.Fatalf("Load missing file: want error")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"empty", "", "no backends"},
		{"no model", "backends:\n  - name: a\n", "no model"},
		{"no name", "backends:\n  - model: chatgpt\n", "empty name"},
		{"dup name", "backends:\n  - name: a\n    model: m\n  - name: a\n    model: m\n", "duplicate backend"},
		{"bad default", "default: ghost\nbackends:\n  - name: a\n    model: m\n", "ghost"},
		{"self fallback", "backends:\n  - name: a\n    model: m\n    fallback: [a]\n", "itself"},
		{"unknown fallback", "backends:\n  - name: a\n    model: m\n    fallback: [b]\n", "not declared"},
		{"bad role", "backends:\n  - name: a\n    model: m\nroutes:\n  scan: a\n", "unknown prompt role"},
		{"route target", "backends:\n  - name: a\n    model: m\nroutes:\n  keyscan: b\n", "not declared"},
		{"dup route", "backends:\n  - name: a\n    model: m\nroutes:\n  keyscan: a\n  keyscan: a\n", "twice"},
		{"unknown top key", "verifier: x\n", "unknown top-level key"},
		{"unknown field", "backends:\n  - name: a\n    temperature: 1\n", "unknown backend field"},
		{"bad seed", "backends:\n  - name: a\n    model: m\n    seed: abc\n", "not an integer"},
		{"bad workers", "backends:\n  - name: a\n    model: m\n    workers: -1\n", "non-negative"},
		{"bad cost", "backends:\n  - name: a\n    model: m\n    cost: cheap\n", "non-negative"},
		{"tab indent", "backends:\n\t- name: a\n", "tab"},
		{"orphan field", "backends:\n  name: a\n", "list item"},
		{"orphan indent", "  stray: 1\n", "outside a block"},
		{"unterminated list", "backends:\n  - name: a\n    model: m\n    fallback: [b\n", "unterminated"},
		{"missing colon", "backends:\n  - name a\n", "key: value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse: want error containing %q", tc.frag)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error = %v, want fragment %q", err, tc.frag)
			}
		})
	}
}

func TestParseQuotedAndBareList(t *testing.T) {
	cfg, err := Parse("backends:\n  - name: \"a\"\n    model: 'chatgpt'\n    fallback: b\n  - name: b\n    model: m\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.Backends[0].Name != "a" || cfg.Backends[0].Model != "chatgpt" {
		t.Fatalf("quotes not stripped: %+v", cfg.Backends[0])
	}
	if !reflect.DeepEqual(cfg.Backends[0].Fallback, []string{"b"}) {
		t.Fatalf("bare fallback = %v, want [b]", cfg.Backends[0].Fallback)
	}
	if cfg.Default != "" {
		t.Fatalf("Default = %q, want first-declared semantics (empty)", cfg.Default)
	}
}

func TestParseRoutes(t *testing.T) {
	cases := []struct {
		in   string
		want map[string]string
		frag string // error fragment; "" = must parse
	}{
		{"keyscan=cheap", map[string]string{"keyscan": "cheap"}, ""},
		{" keyscan = cheap , filter=strong,", map[string]string{"keyscan": "cheap", "filter": "strong"}, ""},
		{"fetch=a,fetch=b", map[string]string{"fetch": "b"}, ""},
		{"verify=a,,filter=b", map[string]string{"verify": "a", "filter": "b"}, ""},
		{"", nil, "no role=backend pairs"},
		{" , ", nil, "no role=backend pairs"},
		{"keyscan", nil, "want role=backend"},
		{"keyscan=", nil, "want role=backend"},
		{"=cheap", nil, "want role=backend"},
		{"scan=cheap", nil, "unknown prompt role"},
		{"Keyscan=cheap", nil, "unknown prompt role"},
	}
	for _, tc := range cases {
		got, err := ParseRoutes(tc.in)
		if tc.frag != "" {
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("ParseRoutes(%q) error = %v, want fragment %q", tc.in, err, tc.frag)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseRoutes(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// FuzzConfigParse: the decoder never panics, and a config it accepts
// names only declared backends as its default, route targets and
// fallbacks. ParseRoutes never panics on the same input, and what it
// accepts has valid roles and non-empty backend names.
// stubClient stands in for a backend's model where only the
// declaration matters; it is never called.
type stubClient string

func (c stubClient) Name() string { return string(c) }
func (c stubClient) Complete(context.Context, string) (string, error) {
	return "", nil
}

func FuzzConfigParse(f *testing.F) {
	repoConfig, err := os.ReadFile(filepath.Join("..", "..", "galois.yaml"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(repoConfig))
	f.Add(sample)
	f.Add("keyscan=cheap,filter=strong")
	f.Fuzz(func(t *testing.T, src string) {
		if cfg, err := Parse(src); err == nil {
			declared := map[string]bool{}
			for _, b := range cfg.Backends {
				declared[b.Name] = true
			}
			if cfg.Default != "" && !declared[cfg.Default] {
				t.Errorf("default %q not declared", cfg.Default)
			}
			for role, target := range cfg.Routes {
				if !declared[target] {
					t.Errorf("route %s -> %q not declared", role, target)
				}
			}
			for _, b := range cfg.Backends {
				for _, fb := range b.Fallback {
					if !declared[fb] {
						t.Errorf("backend %q fallback %q not declared", b.Name, fb)
					}
				}
			}
			// What the file boundary accepts, the engine's registry
			// accepts too: the two validators of one declaration agree.
			specs := make([]llm.BackendSpec, len(cfg.Backends))
			for i, b := range cfg.Backends {
				specs[i] = b.Spec(stubClient(b.Model))
			}
			if _, err := llm.NewRegistry(specs, cfg.Default, cfg.Routes, nil); err != nil {
				t.Errorf("Parse accepted a declaration NewRegistry rejects: %v", err)
			}
		}
		if routes, err := ParseRoutes(src); err == nil {
			for role, backend := range routes {
				if _, err := llm.ParseRole(role); err != nil || backend == "" {
					t.Errorf("ParseRoutes accepted %q=%q", role, backend)
				}
			}
		}
	})
}
