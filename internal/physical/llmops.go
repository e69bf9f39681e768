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
// of every previous page — but in pipelined mode the keys of a page flow
// downstream as soon as the page lands, so attribute fetches and filters
// start while the scan is still iterating.
type llmKeyScanOp struct {
	scan *logical.Scan
	out  *schema.Schema

	// stop-and-go state
	rows   []schema.Tuple
	cursor int
	// pipelined state
	pipe *pipe
}

func (s *llmKeyScanOp) Schema() *schema.Schema { return s.out }

func (s *llmKeyScanOp) Open(c *Context) error {
	if c.Client == nil {
		return fmt.Errorf("physical: LLM scan of %s without an LLM client", s.scan.Table.Name)
	}
	conds, err := pushedConditions(s.scan.PushedFilter)
	if err != nil {
		return err
	}
	keyKind := s.out.Columns[0].Type
	maxIter := c.MaxScanIterations
	if maxIter <= 0 {
		maxIter = 12
	}

	if c.Pipelined() {
		s.openPipelined(c, conds, keyKind, maxIter)
		return nil
	}

	client := c.ClientFor(llm.RoleKeyscan, s.scan.Table.Backend)
	var keys []string
	seen := map[string]bool{}
	for iter := 0; iter < maxIter; iter++ {
		p := c.Prompts.KeyList(s.scan.Table.Name, s.scan.Table.KeyColumn, conds, keys)
		c.Metrics.Add(s.scan, 1, 0, 0)
		resp, err := c.CompleteOn(client, p)
		if err != nil {
			return fmt.Errorf("physical: key scan of %s: %w", s.scan.Table.Name, err)
		}
		added, done := scanPage(resp, c.Cleaner, seen, &keys)
		if done || added == 0 {
			break
		}
	}

	s.rows = s.rows[:0]
	for _, k := range keys {
		if t, ok := keyTuple(keyKind, k); ok {
			s.rows = append(s.rows, t)
		}
	}
	c.Metrics.Add(s.scan, 0, 0, len(s.rows))
	s.cursor = 0
	return nil
}

// openPipelined streams the scan: a producer runs the sequential page
// chain on the query scheduler and emits each page's new keys downstream
// stamped with the page's virtual completion time.
func (s *llmKeyScanOp) openPipelined(c *Context, conds []prompt.Condition, keyKind value.Kind, maxIter int) {
	client := c.ClientFor(llm.RoleKeyscan, s.scan.Table.Backend)
	s.pipe = newPipe(c.pipeBuffer())
	s.pipe.run(func() error {
		var keys []string
		seen := map[string]bool{}
		var vt llm.VTime
		for iter := 0; iter < maxIter; iter++ {
			if s.pipe.stopped() {
				return nil
			}
			p := c.Prompts.KeyList(s.scan.Table.Name, s.scan.Table.KeyColumn, conds, keys)
			c.Metrics.Add(s.scan, 1, 0, 0)
			resp, pageVT, err := c.Scheduler.Do(client, p, vt)
			if err != nil {
				return fmt.Errorf("physical: key scan of %s: %w", s.scan.Table.Name, err)
			}
			vt = pageVT
			prev := len(keys)
			added, done := scanPage(resp, c.Cleaner, seen, &keys)
			for _, k := range keys[prev:] {
				if t, ok := keyTuple(keyKind, k); ok {
					c.Metrics.Add(s.scan, 0, 0, 1)
					if !s.pipe.send(pipeRow{row: t, vt: vt}) {
						return nil
					}
				}
			}
			if done || added == 0 {
				return nil
			}
		}
		return nil
	})
}

// scanPage parses one list-prompt response, appending keys not seen on
// earlier pages to *keys. done reports a Done/Unknown termination marker.
func scanPage(resp string, cleaner *clean.Cleaner, seen map[string]bool, keys *[]string) (added int, done bool) {
	trimmed := strings.TrimSpace(resp)
	if strings.EqualFold(trimmed, prompt.DoneMarker) || strings.EqualFold(trimmed, prompt.UnknownMarker) {
		return 0, true
	}
	for _, item := range clean.SplitList(resp) {
		k := cleaner.Key(item)
		if k == "" {
			continue
		}
		lower := strings.ToLower(k)
		if seen[lower] {
			continue
		}
		seen[lower] = true
		*keys = append(*keys, k)
		added++
	}
	return added, false
}

// keyTuple converts one cleaned key into a single-column tuple, enforcing
// the key's type constraint.
func keyTuple(kind value.Kind, k string) (schema.Tuple, bool) {
	v, err := value.ParseAs(kind, k)
	if err != nil || v.IsNull() {
		return nil, false
	}
	return schema.Tuple{v}, true
}

func (s *llmKeyScanOp) Close() error {
	if s.pipe != nil {
		s.pipe.close()
	}
	return nil
}

func (s *llmKeyScanOp) Next() (schema.Tuple, error) {
	t, _, err := s.NextVT()
	return t, err
}

func (s *llmKeyScanOp) NextVT() (schema.Tuple, llm.VTime, error) {
	if s.pipe != nil {
		r, ok, err := s.pipe.next()
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			return nil, 0, io.EOF
		}
		return r.row, r.vt, nil
	}
	if s.cursor >= len(s.rows) {
		return nil, 0, io.EOF
	}
	t := s.rows[s.cursor]
	s.cursor++
	return t, 0, nil
}

// pushedConditions converts a pushed-down predicate into prompt
// conditions.
func pushedConditions(e ast.Expr) ([]prompt.Condition, error) {
	if e == nil {
		return nil, nil
	}
	var out []prompt.Condition
	for _, c := range splitAnd(e) {
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
// cleaned value as a new column. Stop-and-go issues one batched prompt
// wave per operator; pipelined mode submits the per-key prompt (and its
// cross-model verification, concurrently) the moment the input tuple
// arrives, and awaits answers in input order so results are identical.
type llmFetchAttrOp struct {
	node  *logical.FetchAttr
	input Operator
	out   *schema.Schema

	kind value.Kind

	// stop-and-go state
	rows   []schema.Tuple
	cursor int
	// pipelined state
	pipe *pipe
	pc   *Context
}

func (f *llmFetchAttrOp) Schema() *schema.Schema { return f.out }

func (f *llmFetchAttrOp) Open(c *Context) error {
	if c.Client == nil {
		return fmt.Errorf("physical: LLM fetch of %s without an LLM client", f.node.Attr)
	}
	if err := f.input.Open(c); err != nil {
		return err
	}
	f.kind = f.out.Columns[f.out.Len()-1].Type
	class := llm.FetchClass(f.node.Table.Name, f.node.Attr)

	if c.Pipelined() {
		f.openPipelined(c, class)
		return nil
	}

	rows, err := drain(f.input)
	f.input.Close()
	if err != nil {
		return err
	}

	prompts := make([]string, len(rows))
	for i, row := range rows {
		key := row[f.node.KeyCol].String()
		prompts[i] = c.Prompts.Attr(f.node.Table.Name, key, f.node.Attr)
	}
	fetchPrompts := len(rows)
	if c.Verifier != nil {
		fetchPrompts *= 2
	}
	c.Metrics.Add(f.node, fetchPrompts, len(rows), len(rows))
	answers, err := c.CompleteBatch(c.ClientFor(llm.RoleFetch, f.node.Table.Backend), class, prompts)
	if err != nil {
		return fmt.Errorf("physical: fetching %s.%s: %w", f.node.Table.Name, f.node.Attr, err)
	}

	values := make([]value.Value, len(rows))
	for i := range rows {
		values[i] = c.Cleaner.Cell(answers[i], f.kind)
	}

	// Cross-model verification (Section 6): ask a second model the same
	// question and NULL out disagreements.
	if c.Verifier != nil {
		verdicts, err := c.CompleteBatch(c.Verifier, class, prompts)
		if err != nil {
			return fmt.Errorf("physical: verifying %s.%s: %w", f.node.Table.Name, f.node.Attr, err)
		}
		tol := verifyTolerance(c)
		for i := range values {
			if values[i].IsNull() {
				continue
			}
			other := c.Cleaner.Cell(verdicts[i], f.kind)
			if !valuesAgree(values[i], other, tol) {
				values[i] = value.Null()
			}
		}
	}

	f.rows = make([]schema.Tuple, len(rows))
	for i, row := range rows {
		f.rows[i] = append(row.Clone(), values[i])
	}
	f.cursor = 0
	return nil
}

// openPipelined streams the fetch: the producer submits the attribute
// prompt — and, with a verifier configured, the verification prompt
// concurrently — as each input tuple arrives, anchored at the tuple's
// virtual time.
func (f *llmFetchAttrOp) openPipelined(c *Context, class llm.PromptClass) {
	f.pc = c
	f.pipe = newPipe(c.pipeBuffer())
	input := f.input
	client := c.ClientFor(llm.RoleFetch, f.node.Table.Backend)
	f.pipe.run(func() error {
		defer input.Close()
		for {
			row, vt, err := nextVT(input)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			key := row[f.node.KeyCol].String()
			p := c.Prompts.Attr(f.node.Table.Name, key, f.node.Attr)
			prompts := 1
			r := pipeRow{row: row, vt: vt, main: c.Scheduler.Submit(client, p, vt, class)}
			if c.Verifier != nil {
				prompts = 2
				r.verify = c.Scheduler.Submit(c.Verifier, p, vt, class)
			}
			c.Metrics.Add(f.node, prompts, 1, 1)
			if !f.pipe.send(r) {
				return nil
			}
		}
	})
}

func verifyTolerance(c *Context) float64 {
	if c.VerifyTolerance > 0 {
		return c.VerifyTolerance
	}
	return 0.1
}

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

func (f *llmFetchAttrOp) Close() error {
	if f.pipe != nil {
		f.pipe.close() // the producer closes the input on exit
	}
	return nil
}

func (f *llmFetchAttrOp) Next() (schema.Tuple, error) {
	t, _, err := f.NextVT()
	return t, err
}

func (f *llmFetchAttrOp) NextVT() (schema.Tuple, llm.VTime, error) {
	if f.pipe == nil {
		if f.cursor >= len(f.rows) {
			return nil, 0, io.EOF
		}
		t := f.rows[f.cursor]
		f.cursor++
		return t, 0, nil
	}

	r, ok, err := f.pipe.next()
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, io.EOF
	}
	answer, vt, err := r.main.Wait()
	if err != nil {
		return nil, 0, fmt.Errorf("physical: fetching %s.%s: %w", f.node.Table.Name, f.node.Attr, err)
	}
	v := f.pc.Cleaner.Cell(answer, f.kind)
	if r.verify != nil {
		verdict, verifyVT, err := r.verify.Wait()
		if err != nil {
			return nil, 0, fmt.Errorf("physical: verifying %s.%s: %w", f.node.Table.Name, f.node.Attr, err)
		}
		if verifyVT > vt {
			vt = verifyVT
		}
		if !v.IsNull() {
			other := f.pc.Cleaner.Cell(verdict, f.kind)
			if !valuesAgree(v, other, verifyTolerance(f.pc)) {
				v = value.Null()
			}
		}
	}
	return append(r.row.Clone(), v), vt, nil
}

// llmFilterOp keeps tuples for which the per-key boolean prompt answers
// yes ("Has city Chicago population more than 1000000? Answer yes or no.").
type llmFilterOp struct {
	node  *logical.LLMFilter
	input Operator

	// stop-and-go state
	rows   []schema.Tuple
	cursor int
	// pipelined state
	pipe *pipe
	pc   *Context
}

func (f *llmFilterOp) Schema() *schema.Schema { return f.node.Schema() }

func (f *llmFilterOp) Open(c *Context) error {
	if c.Client == nil {
		return fmt.Errorf("physical: LLM filter without an LLM client")
	}
	if err := f.input.Open(c); err != nil {
		return err
	}

	ref := f.node.Cond.Left.(*ast.ColumnRef)
	lit := f.node.Cond.Right.(*ast.Literal)
	opPhrase := prompt.OpPhrase(f.node.Cond.Op)
	class := llm.FilterClass(f.node.Table.Name, ref.Name, f.node.Cond.Op, lit.Val.String())
	filterPrompt := func(row schema.Tuple) string {
		key := row[f.node.KeyCol].String()
		return c.Prompts.Filter(f.node.Table.Name, key, ref.Name, opPhrase, lit.Val.String())
	}

	if c.Pipelined() {
		f.openPipelined(c, class, filterPrompt)
		return nil
	}

	rows, err := drain(f.input)
	f.input.Close()
	if err != nil {
		return err
	}

	prompts := make([]string, len(rows))
	for i, row := range rows {
		prompts[i] = filterPrompt(row)
	}
	answers, err := c.CompleteBatch(c.ClientFor(llm.RoleFilter, f.node.Table.Backend), class, prompts)
	if err != nil {
		return fmt.Errorf("physical: LLM filter %s: %w", f.node.Cond.String(), err)
	}

	f.rows = f.rows[:0]
	for i, row := range rows {
		if isYes(answers[i]) {
			f.rows = append(f.rows, row)
		}
	}
	c.Metrics.Add(f.node, len(rows), len(rows), len(f.rows))
	f.cursor = 0
	return nil
}

// openPipelined streams the filter: the boolean prompt for each tuple is
// submitted as the tuple arrives; Next awaits verdicts in input order and
// keeps the yes rows.
func (f *llmFilterOp) openPipelined(c *Context, class llm.PromptClass, filterPrompt func(schema.Tuple) string) {
	f.pc = c
	f.pipe = newPipe(c.pipeBuffer())
	input := f.input
	client := c.ClientFor(llm.RoleFilter, f.node.Table.Backend)
	f.pipe.run(func() error {
		defer input.Close()
		for {
			row, vt, err := nextVT(input)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			c.Metrics.Add(f.node, 1, 1, 0)
			r := pipeRow{row: row, vt: vt, main: c.Scheduler.Submit(client, filterPrompt(row), vt, class)}
			if !f.pipe.send(r) {
				return nil
			}
		}
	})
}

func isYes(s string) bool {
	s = strings.ToLower(strings.TrimSpace(s))
	return strings.HasPrefix(s, "yes") || strings.HasPrefix(s, "true")
}

func (f *llmFilterOp) Close() error {
	if f.pipe != nil {
		f.pipe.close() // the producer closes the input on exit
	}
	return nil
}

func (f *llmFilterOp) Next() (schema.Tuple, error) {
	t, _, err := f.NextVT()
	return t, err
}

func (f *llmFilterOp) NextVT() (schema.Tuple, llm.VTime, error) {
	if f.pipe == nil {
		if f.cursor >= len(f.rows) {
			return nil, 0, io.EOF
		}
		t := f.rows[f.cursor]
		f.cursor++
		return t, 0, nil
	}

	for {
		r, ok, err := f.pipe.next()
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			return nil, 0, io.EOF
		}
		answer, vt, err := r.main.Wait()
		if err != nil {
			return nil, 0, fmt.Errorf("physical: LLM filter %s: %w", f.node.Cond.String(), err)
		}
		if isYes(answer) {
			f.pc.Metrics.Add(f.node, 0, 0, 1)
			return r.row, vt, nil
		}
	}
}
