// Package qa implements the two question-answering baselines of Section 5:
// T_M (ask the NL paraphrase of the query, parse the prose answer) and
// T_M^C (same, with a fixed manually-crafted chain-of-thought exemplar in
// the prompt). The postprocessing that the paper performs manually —
// splitting comma-separated values, removing repetitions and punctuation,
// mapping records onto the expected schema — is automated here with fixed
// rules applied identically to every model and method.
package qa

import (
	"context"
	"strings"

	"repro/internal/clean"
	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/schema"
	"repro/internal/value"
)

// Result is one baseline answer: the raw text and the relation extracted
// from it under the expected schema.
type Result struct {
	Text     string
	Relation *schema.Relation
}

// Ask sends the NL question to the model and parses the textual answer
// into a relation with the expected schema. cot selects the
// chain-of-thought prompt variant.
func Ask(ctx context.Context, client llm.Client, b *prompt.Builder, question string, expected *schema.Schema, cleaner *clean.Cleaner, cot bool) (*Result, error) {
	var p string
	if cot {
		p = b.CoTQuestion(question)
	} else {
		p = b.Question(question)
	}
	text, err := client.Complete(ctx, p)
	if err != nil {
		return nil, err
	}
	return &Result{Text: text, Relation: Parse(text, expected, cleaner)}, nil
}

// Parse extracts records from a prose answer. The rules mirror the
// paper's manual mapping: take the text after the final "Answer:" (CoT
// emits reasoning first), split bulleted lines or comma lists, strip
// punctuation, drop repetitions, and type every field against the
// expected schema.
func Parse(text string, expected *schema.Schema, cleaner *clean.Cleaner) *schema.Relation {
	rel := schema.NewRelation(expected.Clone())
	body := text
	if i := strings.LastIndex(body, "Answer:"); i >= 0 {
		body = body[i+len("Answer:"):]
	}
	body = strings.TrimSpace(body)
	if body == "" || strings.EqualFold(body, prompt.UnknownMarker) {
		return rel
	}

	cols := expected.Len()
	if cols == 1 {
		for _, item := range clean.SplitList(body) {
			v := cleaner.Cell(item, expected.Columns[0].Type)
			if v.IsNull() && expected.Columns[0].Type != value.KindString {
				// Keep unparseable single values out; a human mapper
				// would discard them too.
				continue
			}
			rel.Append(schema.Tuple{v})
		}
		return rel
	}

	// Multi-column: one record per line.
	seen := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		raw := strings.TrimSpace(line)
		if raw == "" || strings.HasSuffix(raw, ":") {
			continue
		}
		item := clean.Strip(raw)
		if item == "" {
			continue
		}
		fields := splitRecord(item, cols)
		if fields == nil {
			continue
		}
		row := make(schema.Tuple, cols)
		for i, f := range fields {
			row[i] = cleaner.Cell(f, expected.Columns[i].Type)
		}
		k := row.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		rel.Append(row)
	}
	return rel
}

// splitRecord splits "New York City: Bill de Blasio, born May 8, 1961"
// into the expected number of fields. A leading "key:" separates the
// first field; commas separate the rest, with over-splits merged into the
// final field (dates such as "May 8, 1961" contain commas).
func splitRecord(s string, cols int) []string {
	var fields []string
	rest := s
	if i := strings.Index(rest, ":"); i >= 0 && cols >= 2 {
		fields = append(fields, strings.TrimSpace(rest[:i]))
		rest = strings.TrimSpace(rest[i+1:])
	}
	parts := strings.Split(rest, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	need := cols - len(fields)
	switch {
	case need <= 0:
		return fields[:cols]
	case len(parts) < need:
		// Too few fields: pad with empties so partial records still map.
		for _, p := range parts {
			fields = append(fields, p)
		}
		for len(fields) < cols {
			fields = append(fields, "")
		}
		return fields
	case len(parts) == need:
		return append(fields, parts...)
	default:
		// Over-split: keep the first need-1 parts, merge the remainder
		// back into the final field.
		fields = append(fields, parts[:need-1]...)
		fields = append(fields, strings.Join(parts[need-1:], ", "))
		return fields
	}
}
