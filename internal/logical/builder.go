package logical

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/sql/ast"
)

// Resolver maps a table name (and optional explicit source qualifier from
// "LLM.country"-style references) to its definition and the engine that
// materializes it.
type Resolver interface {
	// ResolveTable returns the table definition and the source ("DB" or
	// "LLM") for a FROM item. explicit is "" when the query did not
	// qualify the table.
	ResolveTable(name, explicit string) (*schema.TableDef, string, error)
}

// Build turns a parsed SELECT into a logical plan. The plan is generic:
// LLM-specific lowering (FetchAttr / LLMFilter injection) happens in the
// optimizer package.
func Build(sel *ast.Select, r Resolver) (Node, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("logical: SELECT without FROM is not supported")
	}

	// FROM: left-deep join tree of scans. The typing schema collects the
	// FULL declared columns of every table (qualified by binding): before
	// LLM lowering, the runtime schema of an LLM scan holds only the key,
	// but expressions must type against everything the relation offers.
	var root Node
	typing := schema.New()
	for i, ref := range sel.From {
		def, source, err := r.ResolveTable(ref.Table, ref.Source)
		if err != nil {
			return nil, err
		}
		for _, c := range def.Schema.Columns {
			typing.Columns = append(typing.Columns,
				schema.Column{Table: ref.Binding(), Name: c.Name, Type: c.Type})
		}
		scan := NewScan(def, ref.Binding(), source)
		if i == 0 {
			root = scan
			continue
		}
		jt := ref.Join
		if jt == ast.JoinNone {
			jt = ast.JoinCross
		}
		root = NewJoin(root, scan, jt, ref.On)
	}

	// Comma-style joins express the join predicate in WHERE; leave it
	// there — the optimizer turns cross+filter into keyed joins.
	if sel.Where != nil {
		root = NewFilter(root, sel.Where)
	}

	// Aggregation. Collect aggregate calls from the output expressions,
	// HAVING and ORDER BY; if any exist (or GROUP BY does), insert an
	// Aggregate node and rewrite the upper expressions to reference its
	// output columns.
	items := make([]ast.SelectItem, len(sel.Items))
	copy(items, sel.Items)
	having := sel.Having
	orderBy := make([]ast.OrderItem, len(sel.OrderBy))
	copy(orderBy, sel.OrderBy)

	var aggCalls []*ast.FuncCall
	seenAgg := map[string]bool{}
	collect := func(e ast.Expr) {
		ast.Walk(e, func(x ast.Expr) bool {
			if f, ok := x.(*ast.FuncCall); ok && f.IsAggregate() {
				if !seenAgg[f.String()] {
					seenAgg[f.String()] = true
					aggCalls = append(aggCalls, f)
				}
				return false
			}
			return true
		})
	}
	for _, it := range items {
		collect(it.Expr)
	}
	if having != nil {
		collect(having)
	}
	for _, o := range orderBy {
		collect(o.Expr)
	}

	if len(aggCalls) > 0 || len(sel.GroupBy) > 0 {
		specs := make([]AggSpec, len(aggCalls))
		for i, c := range aggCalls {
			specs[i] = AggSpec{Call: c, Name: c.String()}
		}

		// Permissive GROUP BY (the paper's hybrid query selects c.gdp
		// while grouping by e.countryCode): non-grouped, non-aggregated
		// column references become implicit FIRST() aggregates, taking
		// the first value within each group.
		grouped := map[string]bool{}
		for _, g := range sel.GroupBy {
			grouped[g.String()] = true
		}
		haveAgg := map[string]bool{}
		for _, spec := range specs {
			haveAgg[spec.Name] = true
		}
		implicit := map[string]AggSpec{}
		collectImplicit := func(e ast.Expr) {
			ast.Walk(e, func(x ast.Expr) bool {
				if f, ok := x.(*ast.FuncCall); ok && f.IsAggregate() {
					return false
				}
				if ref, ok := x.(*ast.ColumnRef); ok && !grouped[ref.String()] {
					call := &ast.FuncCall{Name: "FIRST", Args: []ast.Expr{ref}}
					if !haveAgg[call.String()] {
						haveAgg[call.String()] = true
						implicit[ref.String()] = AggSpec{Call: call, Name: call.String()}
					}
				}
				return true
			})
		}
		for _, it := range items {
			collectImplicit(it.Expr)
		}
		if having != nil {
			collectImplicit(having)
		}
		for _, o := range orderBy {
			collectImplicit(o.Expr)
		}
		implicitRefs := make([]string, 0, len(implicit))
		for refText := range implicit {
			implicitRefs = append(implicitRefs, refText)
		}
		sort.Strings(implicitRefs)
		for _, refText := range implicitRefs {
			specs = append(specs, implicit[refText])
		}

		agg, err := NewAggregateTyped(root, sel.GroupBy, specs, typing)
		if err != nil {
			return nil, err
		}
		root = agg
		// Everything above the aggregate references only its outputs.
		typing = agg.Schema()

		// Rewrite references to aggregates and group-by expressions into
		// column references over the aggregate output.
		repl := map[string]ast.Expr{}
		for _, spec := range specs {
			repl[spec.Name] = &ast.ColumnRef{Name: spec.Name}
		}
		for _, refText := range implicitRefs {
			repl[refText] = &ast.ColumnRef{Name: implicit[refText].Name}
		}
		for gi, g := range sel.GroupBy {
			col := agg.Schema().Columns[gi]
			repl[g.String()] = &ast.ColumnRef{Table: col.Table, Name: col.Name}
		}
		for i := range items {
			// Keep the user-visible output name when an implicit FIRST
			// replaces a bare column reference.
			if ref, ok := items[i].Expr.(*ast.ColumnRef); ok && items[i].Alias == "" {
				if _, isImplicit := implicit[ref.String()]; isImplicit {
					items[i].Alias = ref.Name
				}
			}
			items[i].Expr = RewriteExpr(items[i].Expr, repl)
		}
		if having != nil {
			having = RewriteExpr(having, repl)
		}
		for i := range orderBy {
			orderBy[i].Expr = RewriteExpr(orderBy[i].Expr, repl)
		}

		// Validate: every output must now resolve against the aggregate
		// schema.
		for _, it := range items {
			if err := validateRefs(it.Expr, agg.Schema()); err != nil {
				return nil, fmt.Errorf("logical: %s is neither aggregated nor grouped", it.Expr.String())
			}
		}
	}

	if having != nil {
		root = NewFilter(root, having)
	}

	// Expand * / t.* against the full declared columns (an LLM-bound
	// SELECT * retrieves every declared attribute, not just the key).
	items, err := expandStars(items, typing)
	if err != nil {
		return nil, err
	}

	// ORDER BY support: each order expression must be computable over the
	// projection output. If it matches a projected item (by alias or by
	// rendered text) reference that column; otherwise append a hidden item.
	hidden := 0
	orderRefs := make([]ast.OrderItem, len(orderBy))
	projItems := items
	for i, o := range orderBy {
		ref, found := matchProjected(o.Expr, items)
		if found {
			orderRefs[i] = ast.OrderItem{Expr: ref, Desc: o.Desc}
			continue
		}
		alias := fmt.Sprintf("__ord%d", i)
		projItems = append(projItems, ast.SelectItem{Expr: o.Expr, Alias: alias})
		hidden++
		orderRefs[i] = ast.OrderItem{Expr: &ast.ColumnRef{Name: alias}, Desc: o.Desc}
	}

	proj, err := NewProjectTyped(root, projItems, hidden, typing)
	if err != nil {
		return nil, err
	}
	root = proj

	if sel.Distinct {
		root = &Distinct{Input: root, KeyCols: len(items)}
	}
	if len(orderRefs) > 0 {
		root = &Sort{Input: root, Items: orderRefs}
	}
	if sel.Limit >= 0 || sel.Offset > 0 {
		n := sel.Limit
		if n < 0 {
			n = -1
		}
		root = &Limit{Input: root, N: n, Offset: sel.Offset}
	}
	if hidden > 0 {
		root = NewStripProject(root, len(items))
	}
	return root, nil
}

// matchProjected reports whether e matches one of the projected items,
// returning a column reference into the projection output to order by.
func matchProjected(e ast.Expr, items []ast.SelectItem) (ast.Expr, bool) {
	// Alias match: ORDER BY alias.
	if ref, ok := e.(*ast.ColumnRef); ok && ref.Table == "" {
		for _, it := range items {
			if it.Alias != "" && strings.EqualFold(it.Alias, ref.Name) {
				return &ast.ColumnRef{Name: it.Alias}, true
			}
		}
	}
	text := e.String()
	for _, it := range items {
		if it.Expr.String() == text {
			if it.Alias != "" {
				return &ast.ColumnRef{Name: it.Alias}, true
			}
			if ref, ok := it.Expr.(*ast.ColumnRef); ok {
				// Keep the qualifier: projected columns retain their
				// table binding, and two bindings may share a name.
				return &ast.ColumnRef{Table: ref.Table, Name: ref.Name}, true
			}
			return &ast.ColumnRef{Name: text}, true
		}
	}
	return nil, false
}

func expandStars(items []ast.SelectItem, s *schema.Schema) ([]ast.SelectItem, error) {
	var out []ast.SelectItem
	for _, it := range items {
		star, ok := it.Expr.(*ast.Star)
		if !ok {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range s.Columns {
			if star.Table != "" && !strings.EqualFold(c.Table, star.Table) {
				continue
			}
			out = append(out, ast.SelectItem{Expr: &ast.ColumnRef{Table: c.Table, Name: c.Name}})
			matched = true
		}
		if !matched {
			return nil, fmt.Errorf("logical: %s matches no columns", star.String())
		}
	}
	return out, nil
}

func validateRefs(e ast.Expr, s *schema.Schema) error {
	var bad error
	ast.Walk(e, func(x ast.Expr) bool {
		if ref, ok := x.(*ast.ColumnRef); ok {
			if _, err := s.Resolve(ref.Table, ref.Name); err != nil {
				bad = err
				return false
			}
		}
		return true
	})
	return bad
}

// RewriteExpr returns a copy of e where any sub-expression whose rendered
// text matches a key of repl is replaced by the mapped expression.
// Replaced subtrees are not descended into.
func RewriteExpr(e ast.Expr, repl map[string]ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	if r, ok := repl[e.String()]; ok {
		return r
	}
	switch n := e.(type) {
	case *ast.Binary:
		return &ast.Binary{Op: n.Op, Left: RewriteExpr(n.Left, repl), Right: RewriteExpr(n.Right, repl)}
	case *ast.Unary:
		return &ast.Unary{Op: n.Op, Expr: RewriteExpr(n.Expr, repl)}
	case *ast.FuncCall:
		args := make([]ast.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = RewriteExpr(a, repl)
		}
		return &ast.FuncCall{Name: n.Name, Distinct: n.Distinct, Args: args}
	case *ast.InList:
		list := make([]ast.Expr, len(n.List))
		for i, a := range n.List {
			list[i] = RewriteExpr(a, repl)
		}
		return &ast.InList{Expr: RewriteExpr(n.Expr, repl), List: list, Not: n.Not}
	case *ast.Between:
		return &ast.Between{Expr: RewriteExpr(n.Expr, repl), Lo: RewriteExpr(n.Lo, repl), Hi: RewriteExpr(n.Hi, repl), Not: n.Not}
	case *ast.Like:
		return &ast.Like{Expr: RewriteExpr(n.Expr, repl), Pattern: RewriteExpr(n.Pattern, repl), Not: n.Not}
	case *ast.IsNull:
		return &ast.IsNull{Expr: RewriteExpr(n.Expr, repl), Not: n.Not}
	case *ast.Case:
		whens := make([]ast.CaseWhen, len(n.Whens))
		for i, w := range n.Whens {
			whens[i] = ast.CaseWhen{Cond: RewriteExpr(w.Cond, repl), Result: RewriteExpr(w.Result, repl)}
		}
		return &ast.Case{Whens: whens, Else: RewriteExpr(n.Else, repl)}
	default:
		return e
	}
}
