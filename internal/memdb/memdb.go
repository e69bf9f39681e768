// Package memdb is the in-memory relational store that plays the role of
// the traditional DBMS in the hybrid architecture: it holds the
// ground-truth relations (the stand-in for the Spider databases), executes
// CREATE TABLE / INSERT, and answers SELECTs with exact relational
// semantics through the same planner and physical engine Galois uses —
// minus the LLM operators.
package memdb

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/value"
)

// DB is an in-memory catalog of tables. It is not safe for concurrent
// writers; concurrent readers are fine once loading is done.
type DB struct {
	tables map[string]*tableData
}

type tableData struct {
	def  *schema.TableDef
	rows []schema.Tuple
}

// New returns an empty database.
func New() *DB { return &DB{tables: map[string]*tableData{}} }

// CreateTable registers a table definition with no rows. It fails if the
// name is taken.
func (db *DB) CreateTable(def *schema.TableDef) error {
	name := strings.ToLower(def.Name)
	if _, ok := db.tables[name]; ok {
		return fmt.Errorf("memdb: table %s already exists", def.Name)
	}
	db.tables[name] = &tableData{def: def}
	return nil
}

// LoadRelation registers a table from a definition plus materialized rows
// (used to load the synthetic world).
func (db *DB) LoadRelation(def *schema.TableDef, rel *schema.Relation) error {
	if err := db.CreateTable(def); err != nil {
		return err
	}
	t := db.tables[strings.ToLower(def.Name)]
	for _, row := range rel.Rows {
		t.rows = append(t.rows, row.Clone())
	}
	return nil
}

// Insert appends typed rows to a table, coercing values to column types.
func (db *DB) Insert(table string, columns []string, rows []schema.Tuple) error {
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("memdb: no such table %s", table)
	}
	def := t.def
	// Map provided column order to schema positions.
	positions := make([]int, def.Schema.Len())
	if len(columns) == 0 {
		for i := range positions {
			positions[i] = i
		}
	} else {
		if len(columns) != def.Schema.Len() {
			return fmt.Errorf("memdb: INSERT into %s expects all %d columns", table, def.Schema.Len())
		}
		for i := range positions {
			positions[i] = -1
		}
		for j, c := range columns {
			i, err := def.Schema.Resolve("", c)
			if err != nil {
				return err
			}
			positions[i] = j
		}
		for i, p := range positions {
			if p < 0 {
				return fmt.Errorf("memdb: INSERT into %s missing column %s", table, def.Schema.Columns[i].Name)
			}
		}
	}
	for _, row := range rows {
		if len(row) != def.Schema.Len() {
			return fmt.Errorf("memdb: INSERT row has %d values, table %s has %d columns", len(row), table, def.Schema.Len())
		}
		out := make(schema.Tuple, def.Schema.Len())
		for i, p := range positions {
			v, err := value.Coerce(row[p], def.Schema.Columns[i].Type)
			if err != nil {
				return fmt.Errorf("memdb: column %s: %w", def.Schema.Columns[i].Name, err)
			}
			out[i] = v
		}
		t.rows = append(t.rows, out)
	}
	return nil
}

// Table returns the definition of a table, or nil.
func (db *DB) Table(name string) *schema.TableDef {
	if t, ok := db.tables[strings.ToLower(name)]; ok {
		return t.def
	}
	return nil
}

// Tables lists table names in sorted order.
func (db *DB) Tables() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Relation materializes a table's current contents.
func (db *DB) Relation(name string) (*schema.Relation, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("memdb: no such table %s", name)
	}
	rel := schema.NewRelation(t.def.Schema.Clone())
	rel.Rows = t.rows
	return rel, nil
}

// ResolveTable implements logical.Resolver: every table is DB-bound.
func (db *DB) ResolveTable(name, explicit string) (*schema.TableDef, string, error) {
	def := db.Table(name)
	if def == nil {
		return nil, "", fmt.Errorf("memdb: no such table %s", name)
	}
	return def, "DB", nil
}

// Exec runs a statement. SELECTs return their result relation; DDL/DML
// return nil.
func (db *DB) Exec(ctx context.Context, sql string) (*schema.Relation, error) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.exec(ctx, stmt)
}

// ExecScript runs a semicolon-separated script, returning the result of
// the last SELECT (if any).
func (db *DB) ExecScript(ctx context.Context, sql string) (*schema.Relation, error) {
	stmts, err := parser.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var last *schema.Relation
	for _, stmt := range stmts {
		r, err := db.exec(ctx, stmt)
		if err != nil {
			return nil, err
		}
		if r != nil {
			last = r
		}
	}
	return last, nil
}

func (db *DB) exec(ctx context.Context, stmt ast.Statement) (*schema.Relation, error) {
	switch s := stmt.(type) {
	case *ast.Select:
		return db.Query(ctx, s)
	case *ast.CreateTable:
		def := &schema.TableDef{Name: s.Name, Schema: schema.New()}
		for _, c := range s.Columns {
			def.Schema.Columns = append(def.Schema.Columns, schema.Column{Name: c.Name, Type: c.Type})
			if c.PrimaryKey {
				def.KeyColumn = c.Name
			}
		}
		if def.KeyColumn == "" && def.Schema.Len() > 0 {
			def.KeyColumn = def.Schema.Columns[0].Name
		}
		return nil, db.CreateTable(def)
	case *ast.Insert:
		rows := make([]schema.Tuple, len(s.Rows))
		for i, exprRow := range s.Rows {
			row := make(schema.Tuple, len(exprRow))
			for j, e := range exprRow {
				v, err := expr.EvalConst(e)
				if err != nil {
					return nil, err
				}
				row[j] = v
			}
			rows[i] = row
		}
		return nil, db.Insert(s.Table, s.Columns, rows)
	default:
		return nil, fmt.Errorf("memdb: unsupported statement %T", stmt)
	}
}

// Query plans, optimizes and executes a parsed SELECT.
func (db *DB) Query(ctx context.Context, sel *ast.Select) (*schema.Relation, error) {
	return db.query(sel, optimizer.Defaults())
}

// query is Query under the given optimizer options.
func (db *DB) query(sel *ast.Select, opts optimizer.Options) (*schema.Relation, error) {
	plan, err := logical.Build(sel, db)
	if err != nil {
		return nil, err
	}
	plan, err = optimizer.Optimize(plan, opts)
	if err != nil {
		return nil, err
	}
	op, err := physical.Compile(plan, db.Relation)
	if err != nil {
		return nil, err
	}
	return physical.Run(&physical.Context{}, op)
}

// QuerySQL parses and executes a SELECT given as text.
func (db *DB) QuerySQL(ctx context.Context, sql string) (*schema.Relation, error) {
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return db.Query(ctx, sel)
}
