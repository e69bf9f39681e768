package physical

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/clean"
	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/prompt"
	"repro/internal/schema"
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
// Open takes the page prompts' templates from the context's Templates,
// or builds them when the scan pushes conditions: the first page is a
// template with an empty key, and a later page's key is its exclusion
// list. Each page's answer is decoded once, into its cleaned keys, and a
// resident page is read with its decoding and not decoded again; what
// absorbing it adds to the chain is a pageStep, memoized with the
// templates, so a resident chain is absorbed without re-deriving it.
type llmKeyScanOp struct {
	tally
	scan *logical.Scan
	out  *schema.Schema
	pipe pipe // not started while the scan runs inline

	// width is the cells each row has room for: the key and the cell of
	// every fetch of its run (see Compile); 0 leaves room for the key.
	width int

	c                   *Context
	client              llm.Client
	firstPage, morePage *llm.Template
	maxIter             int

	// The page chain, handed to the producer when it starts. first
	// memoizes the chain's first step (the scan's templates' own).
	first   *atomic.Pointer[pageStep]
	step    *pageStep // the chain's state after the last absorbed page
	vt      llm.VTime
	iter    int
	page    answer    // the page asked, until absorbed
	pending bool      // a page was asked and not yet absorbed
	ended   bool      // no page follows the last absorbed one
	rows    []pipeRow // absorbed; inline, rows[next:] are not yet returned
	next    int
}

func (s *llmKeyScanOp) Schema() *schema.Schema { return s.out }

// Open prepares the page chain on the query's tenant; under the
// stop-and-go policy it also starts the producer.
func (s *llmKeyScanOp) Open(c *Context) error {
	client, err := c.client(llm.RoleKeyscan, s.scan.Table.Backend, "LLM scan of ", s.scan.Table.Name)
	if err != nil {
		return err
	}
	conds := pushedConditions(s.scan.Pushed)
	keyKind := s.out.Columns[0].Type
	s.maxIter = c.MaxScanIterations
	if s.maxIter <= 0 {
		s.maxIter = 12
	}
	cleaner := c.Cleaner
	build := func() templateSet {
		decode := func(resp string) any { return decodePage(resp, cleaner, keyKind) }
		tag := pageTag{keyKind, cleaner.Options()}
		first, pre, post := c.Prompts.KeyListTemplate(s.scan.Table.Name, s.scan.Table.KeyColumn, conds)
		return templateSet{
			main:  llm.NewDecodedTemplate(first, "", llm.PromptClass{}, tag, decode),
			more:  llm.NewDecodedTemplate(pre, post, llm.PromptClass{}, tag, decode),
			first: new(atomic.Pointer[pageStep]),
		}
	}
	var pages templateSet
	if len(conds) > 0 {
		pages = build() // carries the conditions' literals
	} else {
		pages = c.Templates.get(templateKey{llm.RoleKeyscan, s.scan.Table.Name, s.scan.Table.KeyColumn, keyKind, cleaner.Options()}, build)
	}
	s.firstPage, s.morePage, s.first = pages.main, pages.more, pages.first
	s.c, s.client = c, client
	if c.Scheduler.StopAndGo() {
		s.pipe.start(c, s)
	}
	return nil
}

// submitPage asks the chain's next page, ready when the previous one
// completed. Stop-and-go, each page is a wave of one.
func (s *llmKeyScanOp) submitPage() {
	tmpl, key := s.firstPage, ""
	if s.step != nil && s.step.next != "" {
		tmpl, key = s.morePage, s.step.next
	}
	s.took(0)
	s.iter++
	s.page, s.pending = s.ask(s.c.Scheduler.Single(), s.client, tmpl, key, s.vt), true
}

// absorb awaits the asked page and appends its new keys to rows,
// stamped with the page's virtual completion time. The chain ends on a
// Done/Unknown marker, a page without new keys or the iteration cap.
func (s *llmKeyScanOp) absorb() error {
	decoded, vt, err := s.page.decoded(s.vt)
	s.page, s.pending = answer{}, false
	if err != nil {
		return fmt.Errorf("physical: key scan of %s: %w", s.scan.Table.Name, err)
	}
	s.vt = vt
	link := s.first
	if s.step != nil {
		link = &s.step.after
	}
	s.step = stepAfter(link, s.step, decoded.(*keyPage))
	fresh, prevRows := s.step.fresh, len(s.rows)
	// The page's rows share one allocation, each capped at the room its
	// run's fetches append into, and the chain's rows grow once per page.
	width := max(s.width, s.out.Len())
	slab := make([]value.Value, len(fresh)*width)
	s.rows = slices.Grow(s.rows, len(fresh))
	for _, k := range fresh {
		if !k.val.IsNull() {
			row := slab[:1:width]
			slab = slab[width:]
			row[0] = k.val
			s.rows = append(s.rows, pipeRow{row: row, vt: vt})
		}
	}
	s.nm.RowsOut += len(s.rows) - prevRows
	s.ended = s.step.page.done || len(fresh) == 0 || s.iter >= s.maxIter
	return nil
}

// produce runs the rest of the chain. Streaming, it emits each page's
// rows as the page lands and stops once the consumer has closed the
// stream; stop-and-go, it is one step, which a LIMIT does not cut short.
func (s *llmKeyScanOp) produce() error {
	stopAndGo := s.c.Scheduler.StopAndGo()
	for !s.ended {
		if !s.pending {
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

// pageStep is a key-scan chain's state after one page: the page, its
// keys new to the chain in answer order (a key repeated within the page
// or from an earlier one is told apart case-insensitively), their
// lower-cased forms, sorted, and the "; "-joined keys of the whole
// chain, which the next page's prompt excludes. It never changes once
// derived; after memoizes the step the next page led to.
type pageStep struct {
	page  *keyPage
	prev  *pageStep
	fresh []pageKey
	lower []string
	next  string
	after atomic.Pointer[pageStep]
}

// seen reports whether a key, lower-cased, is in the chain up to st.
func (st *pageStep) seen(lower string) bool {
	for ; st != nil; st = st.prev {
		if _, ok := slices.BinarySearch(st.lower, lower); ok {
			return true
		}
	}
	return false
}

// stepAfter returns the chain's state after page when prev is the state
// before it (nil before the first page), memoized in link: the scan's
// first, or prev's after. A later page's prompt carries the chain's keys
// so far, so the queries that read one resident chain from the prompt
// cache reach each page from the same step, and absorb it with no set or
// key list of their own; a chain that reaches link with another page
// derives its own step.
func stepAfter(link *atomic.Pointer[pageStep], prev *pageStep, page *keyPage) *pageStep {
	if st := link.Load(); st != nil && st.page == page {
		return st
	}
	st := &pageStep{page: page, prev: prev, fresh: make([]pageKey, 0, len(page.keys)), lower: make([]string, 0, len(page.keys))}
	n := 0
	if prev != nil {
		n = len(prev.next)
	}
	for _, k := range page.keys {
		n += len(k.key) + len("; ")
	}
	var next strings.Builder
	next.Grow(n)
	if prev != nil {
		next.WriteString(prev.next)
	}
	for _, k := range page.keys {
		at, dup := slices.BinarySearch(st.lower, k.lower)
		if dup || prev.seen(k.lower) {
			continue
		}
		st.lower = slices.Insert(st.lower, at, k.lower)
		st.fresh = append(st.fresh, k)
		if next.Len() > 0 {
			next.WriteString("; ")
		}
		next.WriteString(k.key)
	}
	st.next = next.String()
	link.Store(st)
	return st
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

// Close stops the producer, if one was started, and folds the scan's
// tally.
func (s *llmKeyScanOp) Close() error {
	err := s.pipe.close()
	s.fold(s.c, s.scan)
	return err
}

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
		if !s.page.settled() {
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

// pushedConditions phrases the comparisons merged into a scan's
// retrieval prompt as prompt conditions.
func pushedConditions(pushed []logical.Conjunct) []prompt.Condition {
	var out []prompt.Condition
	for _, c := range pushed {
		out = append(out, prompt.Condition{Attr: prompt.Humanize(c.Col.Name), OpPhrase: prompt.OpPhrase(c.Op), Value: c.LitText})
	}
	return out
}

// llmFetchAttrOp retrieves one attribute per input tuple, appending the
// cleaned value as a new column. Its issue step submits the per-key prompt
// — and the cross-model verification prompt — for each input wave, and
// Next awaits answers in input order, so both policies yield identical
// results. Streaming, each tuple is a wave of its own, issued the moment
// it arrives, with its verification alongside; stop-and-go, the whole
// input is one wave, and verification follows it as a second wave. Open
// takes the prompt template from the context's Templates; each prompt
// is asked as the template
// and the tuple's key; each answer is cleaned once, when it arrives from
// the model, and a resident answer is read cleaned.
type llmFetchAttrOp struct {
	node  *logical.FetchAttr
	input Operator
	out   *schema.Schema
	// inPlace: the input's rows belong to this fetch's run and have room
	// for its cell, which Next appends into the row itself. Otherwise
	// Next copies each row into one with room for width cells (0: its
	// own), the cells the fetches above append in place.
	inPlace bool
	width   int

	client llm.Client
	tmpl   *llm.Template
	x      exchange
}

func (f *llmFetchAttrOp) Schema() *schema.Schema { return f.out }

func (f *llmFetchAttrOp) Open(c *Context) error {
	client, err := c.client(llm.RoleFetch, f.node.Table.Backend, "LLM fetch of ", f.node.Attr)
	if err != nil {
		return err
	}
	if err := f.input.Open(c); err != nil {
		return err
	}
	kind := f.out.Columns[f.out.Len()-1].Type
	cleaner := c.Cleaner
	table, attr := f.node.Table.Name, f.node.Attr
	f.client = client
	f.tmpl = c.Templates.get(templateKey{llm.RoleFetch, table, attr, kind, cleaner.Options()}, func() templateSet {
		pre, post := c.Prompts.AttrTemplate(table, attr)
		return templateSet{main: llm.NewDecodedTemplate(pre, post, llm.FetchClass(table, attr),
			cellTag{kind, cleaner.Options()}, func(answer string) any { return cleaner.Cell(answer, kind) })}
	}).main
	f.x.open(c, f.input, f)
	return nil
}

// issue asks the wave's fetch prompts and, with a verifier, their
// verification. A NULL key's cell is NULL.
func (f *llmFetchAttrOp) issue(rows []pipeRow) error {
	c := f.x.c
	f.x.took(len(rows))
	f.x.nm.RowsOut += len(rows)
	w := c.Scheduler.Wave()
	for i := range rows {
		rows[i].main = f.x.askKey(w, f.client, f.tmpl, rows[i].row[f.node.KeyCol], rows[i].vt, nullCell)
	}
	if err := w.Settle(); err != nil {
		return fmt.Errorf("physical: fetching %s.%s: %w", f.node.Table.Name, f.node.Attr, err)
	}
	// Cross-model verification (Section 6): ask a second model the same
	// question; Next NULLs out disagreements.
	if c.Verifier != nil {
		v := c.Scheduler.Wave()
		for i := range rows {
			rows[i].verify = f.x.askKey(v, c.Verifier, f.tmpl, rows[i].row[f.node.KeyCol], rows[i].vt, nil)
		}
		if err := v.Settle(); err != nil {
			return fmt.Errorf("physical: verifying %s.%s: %w", f.node.Table.Name, f.node.Attr, err)
		}
	}
	return nil
}

// nullCell is a NULL key's fetched cell.
var nullCell any = value.Null()

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

func (f *llmFetchAttrOp) Close() error { return f.x.close(f.node) }

func (f *llmFetchAttrOp) Next() (schema.Tuple, llm.VTime, error) {
	r, err := f.x.next()
	if err != nil {
		return nil, 0, err
	}
	cell, vt, err := r.main.decoded(r.vt)
	if err != nil {
		return nil, 0, fmt.Errorf("physical: fetching %s.%s: %w", f.node.Table.Name, f.node.Attr, err)
	}
	v := cell.(value.Value)
	if f.x.c.Verifier != nil {
		other, verifyVT, err := r.verify.decoded(r.vt)
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
	row := r.row
	if !f.inPlace {
		row = make(schema.Tuple, len(r.row), max(f.width, len(r.row)+1))
		copy(row, r.row)
	}
	return append(row, v), vt, nil
}

// llmFilterOp keeps tuples for which the per-key boolean prompt answers
// yes ("Has city Chicago population more than 1000000? Answer yes or no.").
// Its issue step asks one prompt per input tuple, in input waves as the
// fetch does; Next awaits verdicts in input order and keeps the yes rows.
// An answer is read as a verdict once, when it arrives from the model,
// and a resident answer is read as its verdict.
type llmFilterOp struct {
	node  *logical.LLMFilter
	input Operator

	client llm.Client
	tmpl   *llm.Template
	x      exchange
}

func (f *llmFilterOp) Schema() *schema.Schema { return f.node.Schema() }

func (f *llmFilterOp) Open(c *Context) error {
	client, err := c.client(llm.RoleFilter, f.node.Table.Backend, "LLM filter", "")
	if err != nil {
		return err
	}
	if err := f.input.Open(c); err != nil {
		return err
	}
	cond := &f.node.Cond
	pre, post := c.Prompts.FilterTemplate(f.node.Table.Name, cond.Col.Name, prompt.OpPhrase(cond.Op), cond.LitText)
	f.client = client
	f.tmpl = llm.NewDecodedTemplate(pre, post, llm.FilterClass(f.node.Table.Name, cond.Col.Name, cond.Op, cond.LitText),
		verdictTag{}, func(answer string) any { return isYes(answer) })
	f.x.open(c, f.input, f)
	return nil
}

// issue asks the wave's filter prompts. A NULL key's row is dropped, as
// SQL drops a row whose condition is unknown.
func (f *llmFilterOp) issue(rows []pipeRow) error {
	c := f.x.c
	f.x.took(len(rows))
	w := c.Scheduler.Wave()
	for i := range rows {
		rows[i].main = f.x.askKey(w, f.client, f.tmpl, rows[i].row[f.node.KeyCol], rows[i].vt, false)
	}
	if err := w.Settle(); err != nil {
		return fmt.Errorf("physical: LLM filter %s: %w", f.node.Cond.Comparison(), err)
	}
	return nil
}

// verdictTag names the filter's decoder, isYes.
type verdictTag struct{}

func isYes(s string) bool {
	s = strings.ToLower(strings.TrimSpace(s))
	return strings.HasPrefix(s, "yes") || strings.HasPrefix(s, "true")
}

func (f *llmFilterOp) Close() error { return f.x.close(f.node) }

func (f *llmFilterOp) Next() (schema.Tuple, llm.VTime, error) {
	for {
		r, err := f.x.next()
		if err != nil {
			return nil, 0, err
		}
		yes, vt, err := r.main.decoded(r.vt)
		if err != nil {
			return nil, 0, fmt.Errorf("physical: LLM filter %s: %w", f.node.Cond.Comparison(), err)
		}
		if yes.(bool) {
			f.x.nm.RowsOut++ // issue, maybe running meanwhile, leaves it alone
			return r.row, vt, nil
		}
	}
}
