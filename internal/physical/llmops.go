package physical

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/clean"
	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/prompt"
	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// llmKeyScanOp materializes the key-attribute values of an LLM-bound
// relation: one list prompt, then "more results" prompts carrying the
// already-seen keys, until no new keys arrive or the iteration cap is hit
// (Section 4's two critical steps: iteration and termination threshold).
//
// The page chain is inherently sequential — each prompt excludes the keys
// of every previous page. Streaming, the scan runs inline, one page per
// pull, while its pages are resident; the first page that would wait
// hands the chain to a producer, and from then on each page's keys flow
// downstream as soon as the page lands, so attribute fetches and filters
// start while the scan is still iterating. Stop-and-go, the producer
// starts at Open and runs all the pages before emitting a row. Inline
// and producer share one step pair: submitPage, then absorb.
//
// Open builds the page prompts' templates once: the first page is a
// template with an empty key, and a later page's key is its exclusion
// list. Each page's answer is decoded once, into its cleaned keys, and a
// resident page is not decoded again.
type llmKeyScanOp struct {
	scan *logical.Scan
	out  *schema.Schema
	pipe pipe // not started while the scan runs inline

	c                   *Context
	client              llm.Client
	firstPage, morePage *llm.Template
	maxIter             int

	// The page chain, handed to the producer when it starts.
	keys  []string
	seen  map[string]bool
	vt    llm.VTime
	iter  int
	page  *llm.Future // submitted, not yet absorbed
	ended bool        // no page follows the last absorbed one
	rows  []pipeRow   // absorbed; inline, rows[next:] are not yet returned
	next  int
}

func (s *llmKeyScanOp) Schema() *schema.Schema { return s.out }

// Open prepares the page chain on the query's tenant; under the
// stop-and-go policy it also starts the producer.
func (s *llmKeyScanOp) Open(c *Context) error {
	client, err := c.client(llm.RoleKeyscan, s.scan.Table.Backend, "LLM scan of "+s.scan.Table.Name)
	if err != nil {
		return err
	}
	conds, err := pushedConditions(s.scan.PushedFilter)
	if err != nil {
		return err
	}
	keyKind := s.out.Columns[0].Type
	s.maxIter = c.MaxScanIterations
	if s.maxIter <= 0 {
		s.maxIter = 12
	}
	cleaner := c.Cleaner
	decode := func(resp string) any { return decodePage(resp, cleaner, keyKind) }
	tag := pageTag{keyKind, cleaner.Options()}
	first, pre, post := c.Prompts.KeyListTemplate(s.scan.Table.Name, s.scan.Table.KeyColumn, conds)
	s.firstPage = llm.NewTemplate(first, "", llm.PromptClass{}).WithDecoder(tag, decode)
	s.morePage = llm.NewTemplate(pre, post, llm.PromptClass{}).WithDecoder(tag, decode)
	s.c, s.client, s.seen = c, client, map[string]bool{}
	if c.Scheduler.StopAndGo() {
		s.pipe.start(c, s)
	}
	return nil
}

// submitPage issues the chain's next page, ready when the previous one
// completed. Stop-and-go, each page is a wave of one.
func (s *llmKeyScanOp) submitPage() {
	tmpl, key := s.firstPage, ""
	if len(s.keys) > 0 {
		tmpl, key = s.morePage, strings.Join(s.keys, "; ")
	}
	s.c.Metrics.Add(s.scan, 1, 0, 0)
	s.iter++
	s.page = s.c.Scheduler.Single().Submit(s.client, tmpl, key, s.vt)
}

// absorb awaits the submitted page and appends its new keys to rows,
// stamped with the page's virtual completion time. The chain ends on a
// Done/Unknown marker, a page without new keys or the iteration cap.
func (s *llmKeyScanOp) absorb() error {
	decoded, vt, err := s.page.Decoded()
	s.page = nil
	if err != nil {
		return fmt.Errorf("physical: key scan of %s: %w", s.scan.Table.Name, err)
	}
	s.vt = vt
	page := decoded.(*keyPage)
	prevKeys, prevRows := len(s.keys), len(s.rows)
	// The page's rows share one allocation, each capped at its own cell.
	vals := make([]value.Value, 0, len(page.keys))
	for _, k := range page.keys {
		if s.seen[k.lower] {
			continue
		}
		s.seen[k.lower] = true
		s.keys = append(s.keys, k.key)
		if !k.val.IsNull() {
			vals = append(vals, k.val)
			n := len(vals)
			s.rows = append(s.rows, pipeRow{row: vals[n-1 : n : n], vt: vt})
		}
	}
	s.c.Metrics.Add(s.scan, 0, 0, len(s.rows)-prevRows)
	s.ended = page.done || len(s.keys) == prevKeys || s.iter >= s.maxIter
	return nil
}

// produce runs the rest of the chain. Streaming, it emits each page's
// rows as the page lands and stops once the consumer has closed the
// stream; stop-and-go, it is one step, which a LIMIT does not cut short.
func (s *llmKeyScanOp) produce() error {
	stopAndGo := s.c.Scheduler.StopAndGo()
	for !s.ended {
		if s.page == nil {
			if !stopAndGo && s.pipe.stopped() {
				return nil
			}
			s.submitPage()
		}
		if err := s.absorb(); err != nil {
			return err
		}
		if !stopAndGo {
			if !s.pipe.send(s.rows...) {
				return nil
			}
			s.rows = s.rows[:0]
		}
	}
	s.pipe.send(s.rows...)
	return nil
}

// pageTag names a key-scan page decoder: the key column's kind and the
// cleaner's options. It compares by value, as every query builds its own
// Cleaner.
type pageTag struct {
	kind value.Kind
	opts clean.Options
}

// keyPage is one key-scan page decoded: its keys in answer order, and
// whether it ended the list with a Done/Unknown marker.
type keyPage struct {
	keys []pageKey
	done bool
}

// pageKey is one cleaned key of a page: the key, its lower-cased form
// (keys repeated across pages are told apart case-insensitively), and
// the key typed as its column, NULL when it violates the column's type.
type pageKey struct {
	key, lower string
	val        value.Value
}

// decodePage parses one list-prompt response into its cleaned keys. A
// Done/Unknown termination marker is recognized through list markers and
// punctuation ("- Done.").
func decodePage(resp string, cleaner *clean.Cleaner, kind value.Kind) *keyPage {
	stripped := clean.Strip(resp)
	if strings.EqualFold(stripped, prompt.DoneMarker) || strings.EqualFold(stripped, prompt.UnknownMarker) {
		return &keyPage{done: true}
	}
	page := &keyPage{}
	for _, item := range clean.SplitList(resp) {
		k := cleaner.Key(item)
		if k == "" {
			continue
		}
		v, err := value.ParseAs(kind, k)
		if err != nil {
			v = value.Null()
		}
		page.keys = append(page.keys, pageKey{key: k, lower: strings.ToLower(k), val: v})
	}
	return page
}

func (s *llmKeyScanOp) Close() error { return s.pipe.close() }

// Next returns the absorbed rows inline, submitting and absorbing the
// next page when they run out; a page still pending starts the producer.
func (s *llmKeyScanOp) Next() (schema.Tuple, llm.VTime, error) {
	for !s.pipe.started() {
		if s.next < len(s.rows) {
			r := s.rows[s.next]
			s.next++
			return r.row, r.vt, nil
		}
		s.rows, s.next = s.rows[:0], 0
		if s.ended {
			return nil, 0, io.EOF
		}
		s.submitPage()
		if !s.page.Settled() {
			s.pipe.start(s.c, s) // from the pending page
			break
		}
		if err := s.absorb(); err != nil {
			return nil, 0, err
		}
	}
	r, err := s.pipe.next()
	if err != nil {
		return nil, 0, err
	}
	return r.row, r.vt, nil
}

// pushedConditions converts a pushed-down predicate into prompt
// conditions.
func pushedConditions(e ast.Expr) ([]prompt.Condition, error) {
	if e == nil {
		return nil, nil
	}
	var out []prompt.Condition
	for _, c := range ast.Conjuncts(e) {
		b, ok := c.(*ast.Binary)
		if !ok {
			return nil, fmt.Errorf("physical: cannot push %s into a prompt", c.String())
		}
		ref, okL := b.Left.(*ast.ColumnRef)
		lit, okR := b.Right.(*ast.Literal)
		if !okL || !okR {
			return nil, fmt.Errorf("physical: cannot push %s into a prompt", c.String())
		}
		out = append(out, prompt.Condition{
			Attr:     prompt.Humanize(ref.Name),
			OpPhrase: prompt.OpPhrase(b.Op),
			Value:    lit.Val.String(),
		})
	}
	return out, nil
}

// llmFetchAttrOp retrieves one attribute per input tuple, appending the
// cleaned value as a new column. Its issue step submits the per-key prompt
// — and the cross-model verification prompt — for each input wave, and
// Next awaits answers in input order, so both policies yield identical
// results. Streaming, each tuple is a wave of its own, issued the moment
// it arrives, with its verification alongside; stop-and-go, the whole
// input is one wave, and verification follows it as a second wave. Open
// builds the prompt template once; each prompt is submitted as the
// template and the tuple's key; each answer is cleaned once, when it
// arrives from the model, and a resident answer is not cleaned again.
type llmFetchAttrOp struct {
	node  *logical.FetchAttr
	input Operator
	out   *schema.Schema

	client llm.Client
	tmpl   *llm.Template
	x      exchange
}

func (f *llmFetchAttrOp) Schema() *schema.Schema { return f.out }

func (f *llmFetchAttrOp) Open(c *Context) error {
	client, err := c.client(llm.RoleFetch, f.node.Table.Backend, "LLM fetch of "+f.node.Attr)
	if err != nil {
		return err
	}
	if err := f.input.Open(c); err != nil {
		return err
	}
	kind := f.out.Columns[f.out.Len()-1].Type
	cleaner := c.Cleaner
	pre, post := c.Prompts.AttrTemplate(f.node.Table.Name, f.node.Attr)
	f.client = client
	f.tmpl = llm.NewTemplate(pre, post, llm.FetchClass(f.node.Table.Name, f.node.Attr)).
		WithDecoder(cellTag{kind, cleaner.Options()}, func(answer string) any { return cleaner.Cell(answer, kind) })
	f.x.open(c, f.input, f)
	return nil
}

// issue submits the wave's fetch prompts and, with a verifier, their
// verification.
func (f *llmFetchAttrOp) issue(rows []pipeRow) error {
	c := f.x.c
	perRow := 1
	if c.Verifier != nil {
		perRow = 2
	}
	c.Metrics.Add(f.node, perRow*len(rows), len(rows), len(rows))
	w := c.Scheduler.Wave()
	for i := range rows {
		rows[i].main = w.Submit(f.client, f.tmpl, rows[i].row[f.node.KeyCol].String(), rows[i].vt)
	}
	if err := w.Settle(); err != nil {
		return fmt.Errorf("physical: fetching %s.%s: %w", f.node.Table.Name, f.node.Attr, err)
	}
	// Cross-model verification (Section 6): ask a second model the same
	// question; Next NULLs out disagreements.
	if c.Verifier != nil {
		v := c.Scheduler.Wave()
		for i := range rows {
			rows[i].verify = v.Submit(c.Verifier, f.tmpl, rows[i].row[f.node.KeyCol].String(), rows[i].vt)
		}
		if err := v.Settle(); err != nil {
			return fmt.Errorf("physical: verifying %s.%s: %w", f.node.Table.Name, f.node.Attr, err)
		}
	}
	return nil
}

// cellTag names an attribute fetch's decoder: the attribute's kind and
// the cleaner's options, compared by value as pageTag is.
type cellTag struct {
	kind value.Kind
	opts clean.Options
}

// verifyTolerance is the relative error under which a verifier's numeric
// answer agrees with the fetched one.
const verifyTolerance = 0.1

// valuesAgree compares two independently produced answers: numerics within
// a relative tolerance, strings case-insensitively.
func valuesAgree(a, b value.Value, tol float64) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	af, aNum := a.Numeric()
	bf, bNum := b.Numeric()
	if aNum && bNum {
		if af == 0 {
			return bf == 0
		}
		d := af - bf
		if d < 0 {
			d = -d
		}
		ref := af
		if ref < 0 {
			ref = -ref
		}
		return d/ref <= tol
	}
	return strings.EqualFold(strings.TrimSpace(a.String()), strings.TrimSpace(b.String()))
}

func (f *llmFetchAttrOp) Close() error { return f.x.close() }

func (f *llmFetchAttrOp) Next() (schema.Tuple, llm.VTime, error) {
	r, err := f.x.next()
	if err != nil {
		return nil, 0, err
	}
	cell, vt, err := r.main.Decoded()
	if err != nil {
		return nil, 0, fmt.Errorf("physical: fetching %s.%s: %w", f.node.Table.Name, f.node.Attr, err)
	}
	v := cell.(value.Value)
	if r.verify != nil {
		other, verifyVT, err := r.verify.Decoded()
		if err != nil {
			return nil, 0, fmt.Errorf("physical: verifying %s.%s: %w", f.node.Table.Name, f.node.Attr, err)
		}
		if verifyVT > vt {
			vt = verifyVT
		}
		if !v.IsNull() {
			if !valuesAgree(v, other.(value.Value), verifyTolerance) {
				v = value.Null()
			}
		}
	}
	out := make(schema.Tuple, len(r.row), len(r.row)+1)
	copy(out, r.row)
	return append(out, v), vt, nil
}

// llmFilterOp keeps tuples for which the per-key boolean prompt answers
// yes ("Has city Chicago population more than 1000000? Answer yes or no.").
// Its issue step submits one prompt per input tuple, in input waves as the
// fetch does; Next awaits verdicts in input order and keeps the yes rows.
// An answer is read as a verdict once, when it arrives from the model.
type llmFilterOp struct {
	node  *logical.LLMFilter
	input Operator

	client llm.Client
	tmpl   *llm.Template
	x      exchange
}

func (f *llmFilterOp) Schema() *schema.Schema { return f.node.Schema() }

func (f *llmFilterOp) Open(c *Context) error {
	client, err := c.client(llm.RoleFilter, f.node.Table.Backend, "LLM filter")
	if err != nil {
		return err
	}
	if err := f.input.Open(c); err != nil {
		return err
	}
	ref := f.node.Cond.Left.(*ast.ColumnRef)
	lit := f.node.Cond.Right.(*ast.Literal)
	litText := lit.Val.String()
	pre, post := c.Prompts.FilterTemplate(f.node.Table.Name, ref.Name, prompt.OpPhrase(f.node.Cond.Op), litText)
	f.client = client
	f.tmpl = llm.NewTemplate(pre, post, llm.FilterClass(f.node.Table.Name, ref.Name, f.node.Cond.Op, litText)).
		WithDecoder(verdictTag{}, func(answer string) any { return isYes(answer) })
	f.x.open(c, f.input, f)
	return nil
}

// issue submits the wave's filter prompts.
func (f *llmFilterOp) issue(rows []pipeRow) error {
	c := f.x.c
	c.Metrics.Add(f.node, len(rows), len(rows), 0)
	w := c.Scheduler.Wave()
	for i := range rows {
		rows[i].main = w.Submit(f.client, f.tmpl, rows[i].row[f.node.KeyCol].String(), rows[i].vt)
	}
	if err := w.Settle(); err != nil {
		return fmt.Errorf("physical: LLM filter %s: %w", f.node.Cond.String(), err)
	}
	return nil
}

// verdictTag names the filter's decoder, isYes.
type verdictTag struct{}

func isYes(s string) bool {
	s = strings.ToLower(strings.TrimSpace(s))
	return strings.HasPrefix(s, "yes") || strings.HasPrefix(s, "true")
}

func (f *llmFilterOp) Close() error { return f.x.close() }

func (f *llmFilterOp) Next() (schema.Tuple, llm.VTime, error) {
	for {
		r, err := f.x.next()
		if err != nil {
			return nil, 0, err
		}
		yes, vt, err := r.main.Decoded()
		if err != nil {
			return nil, 0, fmt.Errorf("physical: LLM filter %s: %w", f.node.Cond.String(), err)
		}
		if yes.(bool) {
			f.x.c.Metrics.Add(f.node, 0, 0, 1)
			return r.row, vt, nil
		}
	}
}
