package llm

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/prompt"
)

// FuzzTemplateTokens checks Template.Tokens against its doc comment on
// arbitrary input: counted over the key alone, it equals the count of
// the whole text, whatever runs across the key's boundaries.
func FuzzTemplateTokens(f *testing.F) {
	for _, seed := range [][3]string{
		{"What is the capital of the country ", "", "? Answer."},
		{"pre ", " key ", "post"},
		{"pre", "key", "post"},
		{"What is the capital of the country", "Italy", "?"},
		{"pre ", "\u0085key\u0085", " post"},
		{"pre\u00a0", "\u00a0key", "post"},
		{"pre\xe2\x80", "\x85key\xe2", "\x80\x85post"},
		{"bad\xff", "\xc3", "(utf8"},
		{"", "", ""},
		{"", "naïve 北京", ""},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, pre, key, post string) {
		tp := NewTemplate(pre, post, PromptClass{})
		if got, want := tp.tokens(key), CountTokens(pre+key+post); got != want {
			t.Errorf("Tokens(%q) over (%q, %q) = %d, CountTokens of the text = %d", key, pre, post, got, want)
		}
		if got, want := rawText.tokens(key), CountTokens(key); got != want {
			t.Errorf("raw Tokens(%q) = %d, CountTokens = %d", key, got, want)
		}
	})
}

// textLLM answers each prompt with its own text, and records the calls.
type textLLM struct {
	calls   chan string
	release chan struct{} // nil answers at once
}

func (c *textLLM) Name() string { return "text" }
func (c *textLLM) Complete(ctx context.Context, p string) (string, error) {
	c.calls <- p
	if c.release != nil {
		<-c.release
	}
	return "answer to " + p, nil
}

// fewShot stands for the few-shot preamble every fetch prompt carries.
var fewShot = strings.Repeat("Q: what is the population of Paris? A: 2102650\n", 15)

// collidingTemplates returns two templates of different text forced onto
// one id.
func collidingTemplates() (a, b *Template) {
	a = NewTemplate(fewShot+"Q: what is the population of the city ", "? A:", FetchClass("city", "population"))
	b = NewTemplate(fewShot+"Q: who is the mayor of the city ", "? A:", FetchClass("city", "mayor"))
	b.id = a.id
	return a, b
}

// TestTemplateCollisionIsAMiss: two templates whose ids collide never
// share an answer. A resident completion of one is a miss for the other,
// and an in-flight call of one is not joined by the other; each gets its
// own model call and the answer to its own text.
func TestTemplateCollisionIsAMiss(t *testing.T) {
	a, b := collidingTemplates()
	t.Run("resident", func(t *testing.T) {
		client := &textLLM{calls: make(chan string, 8)}
		cache := NewCache(8)
		tn := tenant(NewScheduler(cache, 2), t)
		w := tn.Wave()
		for _, tp := range []*Template{a, b, a} {
			out, _, err := w.Submit(client, tp, "Chicago", 0).Wait()
			if want := "answer to " + tp.text("Chicago"); err != nil || out != want {
				t.Fatalf("Wait = %q, %v; want %q", out, err, want)
			}
		}
		if got := len(client.calls); got != 3 {
			t.Errorf("model calls = %d, want 3: a collision must cost a prompt each time", got)
		}
		if got := cache.Stats(); got.Hits != 0 || got.Entries != 1 {
			t.Errorf("cache = %+v, want no hits and one entry", got)
		}
		if a, b := cache.Resident("text", a.class), cache.Resident("text", b.class); a != 1 || b != 0 {
			t.Errorf("resident a=%d b=%d, want the last template's class counted once", a, b)
		}
	})
	t.Run("inflight", func(t *testing.T) {
		client := &textLLM{calls: make(chan string, 8), release: make(chan struct{})}
		tn := tenant(NewScheduler(NewCache(8), 2), t)
		w := tn.Wave()
		fa := w.Submit(client, a, "Paris", 0)
		<-client.calls // a is at the model
		fb := w.Submit(client, b, "Paris", 0)
		if got := <-client.calls; got != b.text("Paris") {
			t.Fatalf("second call = %q, want b's own prompt", got)
		}
		close(client.release)
		for _, c := range []struct {
			f  *Future
			tp *Template
		}{{fa, a}, {fb, b}} {
			if out, _, err := c.f.Wait(); err != nil || out != "answer to "+c.tp.text("Paris") {
				t.Errorf("Wait = %q, %v; want the answer to %q", out, err, c.tp.text("Paris"))
			}
		}
	})
}

// TestTemplatedHitBuildsNoText: a resident templated prompt is answered
// from its key alone. The hit allocates at most its future, and never
// the prompt's text.
func TestTemplatedHitBuildsNoText(t *testing.T) {
	a, _ := collidingTemplates()
	client := &textLLM{calls: make(chan string, 2048)}
	tn := tenant(NewScheduler(NewCache(8), 2), t)
	w := tn.Wave()
	if _, _, err := w.Submit(client, a, "Chicago", 0).Wait(); err != nil {
		t.Fatal(err)
	}
	hit := func() {
		if _, _, err := w.Submit(client, a, "Chicago", 0).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, hit); allocs > 1 {
		t.Errorf("templated hit: %.0f allocs, want at most 1 (the future)", allocs)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		hit()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= uint64(len(a.text("Chicago"))) {
		t.Errorf("templated hit allocates %d bytes, as much as its %d-byte prompt", per, len(a.text("Chicago")))
	}
	if got := len(client.calls); got != 1 {
		t.Errorf("model calls = %d, want only the first miss", got)
	}
}

// TestKeyListTemplateText: a key-scan page built from KeyListTemplate is
// byte for byte the prompt KeyList builds, and its template counts its
// tokens as CountTokens counts the text.
func TestKeyListTemplateText(t *testing.T) {
	conds := []prompt.Condition{
		{Attr: "population", OpPhrase: "more than", Value: "1000000"},
		{Attr: "elevation", OpPhrase: "less than", Value: "100"},
	}
	for _, preamble := range []bool{false, true} {
		b := &prompt.Builder{IncludePreamble: preamble}
		for n := 0; n <= len(conds); n++ {
			first, pre, post := b.KeyListTemplate("city", "name", conds[:n])
			pages := [][]string{nil, {"Paris"}, {"Paris", "New York City"}}
			for _, exclude := range pages {
				tp, key := NewTemplate(first, "", PromptClass{}), ""
				if len(exclude) > 0 {
					tp, key = NewTemplate(pre, post, PromptClass{}), strings.Join(exclude, "; ")
				}
				want := b.KeyList("city", "name", conds[:n], exclude)
				if got := tp.text(key); got != want {
					t.Errorf("preamble %v, %d conds, exclude %q:\n%q\nwant\n%q", preamble, n, exclude, got, want)
				}
				if got, want := tp.tokens(key), CountTokens(want); got != want {
					t.Errorf("preamble %v, %d conds, exclude %q: %d tokens, CountTokens = %d", preamble, n, exclude, got, want)
				}
			}
		}
	}
}

// decodeCounter is a decoder that counts its calls.
type decodeCounter struct{ calls atomic.Int32 }

func (d *decodeCounter) decode(s string) any {
	d.calls.Add(1)
	return strings.ToUpper(s)
}

// withDecoder returns a template of tp's text and class whose answers
// are decoded by decode under tag.
func withDecoder(tp *Template, tag any, decode func(string) any) *Template {
	return NewDecodedTemplate(tp.pre, tp.post, tp.class, tag, decode)
}

// TestDecodedSlot: a miss decodes its answer once and the cache keeps the
// value; a hit with the same decoder tag returns it without decoding, a
// hit with another tag decodes the text itself, and a template without a
// decoder reads the text.
func TestDecodedSlot(t *testing.T) {
	base, _ := collidingTemplates()
	var upper, other decodeCounter
	a := withDecoder(base, "upper", upper.decode)
	b := withDecoder(base, "other", other.decode)
	client := &textLLM{calls: make(chan string, 8)}
	tn := tenant(NewScheduler(NewCache(8), 2), t)
	w := tn.Wave()
	want := strings.ToUpper("answer to " + base.text("Rome"))
	for i := 0; i < 3; i++ {
		if v, _, err := w.Submit(client, a, "Rome", 0).Decoded(); err != nil || v != want {
			t.Fatalf("Decoded = %v, %v; want %q", v, err, want)
		}
	}
	if got := upper.calls.Load(); got != 1 {
		t.Errorf("decodes = %d, want 1: only the miss decodes", got)
	}
	if v, _, _ := w.Submit(client, b, "Rome", 0).Decoded(); v != want || other.calls.Load() != 1 {
		t.Errorf("other tag: Decoded = %v after %d decodes; want its own decoding, once", v, other.calls.Load())
	}
	if v, _, _ := w.Submit(client, base, "Rome", 0).Decoded(); v != nil {
		t.Errorf("template without a decoder: Decoded = %v, want nil", v)
	}
	if got := len(client.calls); got != 1 {
		t.Errorf("model calls = %d, want 1", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { w.Submit(client, a, "Rome", 0).Decoded() }); allocs > 1 {
		t.Errorf("decoded hit: %.0f allocs, want at most 1 (the future)", allocs)
	}
}

// TestDecodedFlight: prompts submitted while their answer is at the model
// reuse the leader's decoded value when their decoder tag matches, and
// decode the text themselves when it does not — whether they join the
// flight or, reaching the cache after it lands, hit its entry.
func TestDecodedFlight(t *testing.T) {
	base, _ := collidingTemplates()
	var upper, other decodeCounter
	a := withDecoder(base, "upper", upper.decode)
	b := withDecoder(base, "other", other.decode)
	client := &textLLM{calls: make(chan string, 8), release: make(chan struct{})}
	tn := tenant(NewScheduler(NewCache(8), 4), t)
	w := tn.Wave()
	leader := w.Submit(client, a, "Oslo", 0)
	<-client.calls // the leader is at the model
	joiners := []*Future{w.Submit(client, a, "Oslo", 0), w.Submit(client, a, "Oslo", 0), w.Submit(client, b, "Oslo", 0)}
	close(client.release)
	want := strings.ToUpper("answer to " + base.text("Oslo"))
	for i, f := range append(joiners, leader) {
		if v, _, err := f.Decoded(); err != nil || v != want {
			t.Errorf("future %d: Decoded = %v, %v; want %q", i, v, err, want)
		}
	}
	if len(client.calls) != 0 {
		t.Errorf("joiners called the model %d more times", len(client.calls))
	}
	if u, o := upper.calls.Load(), other.calls.Load(); u != 1 || o != 1 {
		t.Errorf("decodes: upper %d, other %d; want the leader's one and the other tag's own", u, o)
	}
}
