// Package schema defines the relational metadata and data containers shared
// by every layer of the engine: columns, schemas, tuples and materialized
// relations. A Relation is the unit the Galois executor passes between
// physical operators and ultimately returns to the caller.
package schema

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// Column describes one attribute of a relation. Table carries the binding
// alias ("c" for "city c") so qualified references resolve; it may be empty
// for derived columns such as aggregate outputs.
type Column struct {
	Table string
	Name  string
	Type  value.Kind
}

// QualifiedName renders table.name, or just name when unqualified.
func (c Column) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// New builds a schema from columns.
func New(cols ...Column) *Schema { return &Schema{Columns: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// ErrAmbiguous is wrapped by Resolve when an unqualified name matches more
// than one column.
var ErrAmbiguous = fmt.Errorf("ambiguous column reference")

// ErrNoColumn is wrapped by Resolve when no column matches.
var ErrNoColumn = fmt.Errorf("no such column")

// Resolve finds the index of the column referenced by (table, name).
// Matching is case-insensitive. When table is empty, the name must be
// unambiguous across the schema.
func (s *Schema) Resolve(table, name string) (int, error) {
	i, ambiguous := s.lookup(table, name)
	switch {
	case ambiguous:
		return -1, fmt.Errorf("%w: %s", ErrAmbiguous, name)
	case i < 0:
		ref := name
		if table != "" {
			ref = table + "." + name
		}
		return -1, fmt.Errorf("%w: %s", ErrNoColumn, ref)
	}
	return i, nil
}

// IndexOf is Resolve without error detail; it returns -1 when unresolved.
// It allocates nothing, as the optimizer probes columns it expects to be
// missing.
func (s *Schema) IndexOf(table, name string) int {
	i, _ := s.lookup(table, name)
	return i
}

// lookup is Resolve's match: the column's index, or -1 when none
// matches or, reported as ambiguous, when a second column matches too.
func (s *Schema) lookup(table, name string) (found int, ambiguous bool) {
	found = -1
	for i, c := range s.Columns {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return -1, true
		}
		found = i
	}
	return found, false
}

// Concat returns a new schema with the columns of s followed by those of t.
func (s *Schema) Concat(t *Schema) *Schema {
	cols := make([]Column, 0, len(s.Columns)+len(t.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, t.Columns...)
	return &Schema{Columns: cols}
}

// Project returns a new schema with only the columns at the given indexes.
func (s *Schema) Project(idx []int) *Schema {
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = s.Columns[j]
	}
	return &Schema{Columns: cols}
}

// Clone deep-copies the schema.
func (s *Schema) Clone() *Schema {
	cols := make([]Column, len(s.Columns))
	copy(cols, s.Columns)
	return &Schema{Columns: cols}
}

// String renders "(<t.a TEXT>, <b INTEGER>)" for diagnostics.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.QualifiedName())
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports whether two schemas have identical column lists.
func (s *Schema) Equal(t *Schema) bool {
	if len(s.Columns) != len(t.Columns) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != t.Columns[i] {
			return false
		}
	}
	return true
}

// Tuple is one row of values, positionally aligned with a Schema.
type Tuple []value.Value

// Clone deep-copies the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Concat returns a new tuple with the fields of t followed by those of u.
func (t Tuple) Concat(u Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(u))
	out = append(out, t...)
	out = append(out, u...)
	return out
}

// Key returns a composite hash key over the tuple's fields; GROUP BY and
// DISTINCT key a group by the Key of its (leading) columns.
func (t Tuple) Key() string {
	var buf [64]byte
	return string(t.AppendKey(buf[:0]))
}

// AppendKey appends t's Key to dst and returns the extended buffer: each
// field's value.AppendKey followed by a 0x1f separator.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = append(v.AppendKey(dst), '\x1f')
	}
	return dst
}

// Relation is a fully materialized table: a schema plus rows.
type Relation struct {
	Schema *Schema
	Rows   []Tuple
}

// NewRelation builds an empty relation over the schema.
func NewRelation(s *Schema) *Relation {
	return &Relation{Schema: s, Rows: nil}
}

// Cardinality returns the number of rows.
func (r *Relation) Cardinality() int { return len(r.Rows) }

// Append adds a row. The tuple length must match the schema; the engine
// treats a mismatch as an internal bug.
func (r *Relation) Append(t Tuple) {
	if len(t) != r.Schema.Len() {
		panic(fmt.Sprintf("schema: appending %d-tuple to %d-column relation", len(t), r.Schema.Len()))
	}
	r.Rows = append(r.Rows, t)
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	out := &Relation{Schema: r.Schema.Clone(), Rows: make([]Tuple, len(r.Rows))}
	for i, row := range r.Rows {
		out.Rows[i] = row.Clone()
	}
	return out
}

// SortRows orders rows lexicographically over all columns; used to make
// test output and table rendering deterministic.
func (r *Relation) SortRows() {
	sort.SliceStable(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		for k := range a {
			ak, bk := a[k].Key(), b[k].Key()
			if ak != bk {
				return ak < bk
			}
		}
		return false
	})
}

// String renders an aligned ASCII table, the format the CLI prints.
func (r *Relation) String() string {
	headers := make([]string, r.Schema.Len())
	widths := make([]int, r.Schema.Len())
	for i, c := range r.Schema.Columns {
		headers[i] = c.QualifiedName()
		widths[i] = len(headers[i])
	}
	cells := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = v.String()
			if len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	var b strings.Builder
	writeRow := func(fields []string) {
		for j, f := range fields {
			if j > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(f)
			for p := len(f); p < widths[j]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for j, w := range widths {
		if j > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// TableDef describes a base table: its name, schema and the single-attribute
// key Galois assumes every relation exposes (Section 3, "Tuples and Keys").
type TableDef struct {
	Name      string
	Schema    *Schema
	KeyColumn string // name of the key attribute, e.g. "name"
	// Backend optionally pins this table's prompts to a named model
	// backend in the runtime's registry (empty = the routing policy
	// decides per prompt role).
	Backend string
}

// KeyIndex returns the position of the key column in the schema, or -1.
func (d *TableDef) KeyIndex() int {
	for i, c := range d.Schema.Columns {
		if strings.EqualFold(c.Name, d.KeyColumn) {
			return i
		}
	}
	return -1
}
