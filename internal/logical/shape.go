package logical

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/schema"
	"repro/internal/sql/ast"
)

// This file is the structured side of the plan's canonical form. The
// flat text rendered by Canonicalize keys exact-match result caching;
// its Shape breaks the same built plan into the pieces subsumption
// matching needs: the FROM tree, the conjuncts filtering it, and the
// operator chain above. A cached relation R answers an incoming query Q
// when both read the same FROM tree, R's conjuncts are a subset of Q's
// (R is weaker-or-equal), and everything Q computes resolves over R's
// output columns — then Q's residual (its extra conjuncts plus its own
// upper chain) evaluated over R is exactly Q's result, for zero prompts.

// ComponentDB is the invalidation component of every DB-bound scan: all
// relational tables share one attached store, so re-attaching it
// invalidates them together.
const ComponentDB = "db"

// ComponentLLM returns the invalidation component of one LLM table
// binding. Rebinding that table invalidates only entries reading it.
func ComponentLLM(table string) string { return "llm:" + strings.ToLower(table) }

// Components returns the sorted invalidation components of every base
// relation the plan reads.
func Components(n Node) []string {
	var comps []string
	Walk(n, func(n Node) bool {
		if s, ok := n.(*Scan); ok {
			comps = addComponent(comps, s)
		}
		return true
	})
	slices.Sort(comps)
	return comps
}

// addComponent adds the invalidation component of s to comps unless it
// is already there.
func addComponent(comps []string, s *Scan) []string {
	c := ComponentDB
	if s.Source == "LLM" {
		c = ComponentLLM(s.Table.Name)
	}
	if slices.Contains(comps, c) {
		return comps
	}
	return append(comps, c)
}

// Shape is the structured canonical form of one built (pre-optimization)
// plan. The builder emits a fixed single-input chain —
// Strip?(Limit?(Sort?(Distinct?(Project(Filter*(Aggregate?(Filter*(FROM))))))))
// — and Canonicalize splits it at the base filters directly above the
// FROM tree.
type Shape struct {
	// From is the root of the maximal Scan/Join subtree.
	From Node
	// FromKey canonically serializes the FROM tree (bindings, sources,
	// declared schemas, join structure with literals): its span of the
	// plan's fingerprint. Two shapes can only subsume one another when
	// their FromKeys are equal.
	FromKey string
	// FromLabel renders the FROM tree for humans; EXPLAIN's
	// "residual over cached(...)" nodes carry it.
	FromLabel string
	// Texts are the canonical texts of the AND-ed base-filter predicates
	// directly above the FROM tree, in plan order, deduplicated: the unit
	// of subsumption comparison. Exprs are those predicates, index for
	// index, re-used to build residual filters.
	Texts []string
	Exprs []ast.Expr
	// Upper is the operator chain above the base filters, outermost
	// first. For a plain filtered projection it is just [Project].
	Upper []Node
	// Producer reports whether this plan's result can answer subsumed
	// queries: the upper chain must be exactly one Project with no
	// hidden columns — no Sort, Distinct, Aggregate or Limit — so the
	// cached rows keep the base scan order and full row set that any
	// residual consumer (including ones adding Sort/Limit/Distinct on
	// top) reproduces bit-identically.
	Producer bool
}

// Decompose returns the structured canonical form of a built plan,
// Canonicalize(n).Shape: nil when the plan does not fit the builder's
// single-input chain over a Scan/Join FROM tree (defensive: such plans
// simply do not participate in subsumption).
func Decompose(n Node) *Shape { return Canonicalize(n).Shape }

// decompose splits the chain above the FROM tree from, whose canonical
// text is fromKey and label fromLabel, into base conjuncts and the upper
// chain.
func decompose(chain []Node, from Node, fromKey, fromLabel string) *Shape {
	base := baseFilters(chain)
	sh := &Shape{From: from, FromKey: fromKey, FromLabel: fromLabel, Upper: chain[:base]}
	for _, f := range chain[base:] {
		for _, c := range f.(*Filter).conjs {
			if !slices.Contains(sh.Texts, c.Text) {
				sh.Texts = append(sh.Texts, c.Text)
				sh.Exprs = append(sh.Exprs, c.Expr)
			}
		}
	}
	if len(sh.Upper) == 1 {
		p, ok := sh.Upper[0].(*Project)
		sh.Producer = ok && p.Hidden == 0
	}
	return sh
}

// baseFilters returns the index in chain, the operator chain above a
// FROM tree, of the run of Filters sitting directly on the FROM tree:
// those are the base conjuncts (WHERE, and HAVING when no aggregate
// intervenes). A Filter above an Aggregate stays in the upper chain.
func baseFilters(chain []Node) int {
	base := len(chain)
	for base > 0 {
		if _, ok := chain[base-1].(*Filter); !ok {
			break
		}
		base--
	}
	return base
}

// fromOnly reports whether the subtree consists solely of Scan and Join
// nodes — a pure FROM tree.
func fromOnly(n Node) bool {
	switch node := n.(type) {
	case *Scan:
		return true
	case *Join:
		return fromOnly(node.Left) && fromOnly(node.Right)
	}
	return false
}

// fromLabel renders a FROM tree compactly for cache diagnostics and
// EXPLAIN.
func fromLabel(n Node) string {
	switch node := n.(type) {
	case *Scan:
		return fmt.Sprintf("%s.%s AS %s", node.Source, node.Table.Name, node.Binding)
	case *Join:
		return fromLabel(node.Left) + " JOIN " + fromLabel(node.Right)
	default:
		return "?"
	}
}

// Subsumes reports whether a cached producer — over the FROM tree
// identified by fromKey, filtered by producerConjuncts — can answer the
// incoming shape, and returns the residual conjuncts the consumer must
// still apply locally. The producer must be weaker-or-equal: every one
// of its conjuncts appears (textually) among the incoming ones;
// anything else risks the cached relation missing rows the incoming
// query needs. Column coverage is not checked here — the residual plan
// either compiles against the producer's output schema or the candidate
// is discarded.
func Subsumes(in *Shape, fromKey string, producerConjuncts []string) ([]ast.Expr, bool) {
	if in == nil || in.FromKey != fromKey {
		return nil, false
	}
	// Both lists are a query's handful of conjuncts: scans, not a map.
	for _, t := range producerConjuncts {
		if !slices.Contains(in.Texts, t) {
			return nil, false
		}
	}
	var residual []ast.Expr
	for i, t := range in.Texts {
		if !slices.Contains(producerConjuncts, t) {
			residual = append(residual, in.Exprs[i])
		}
	}
	return residual, true
}

// BuildResidual rebuilds the incoming shape's plan over a cached
// relation: the upper chain is copied node-for-node (WithInput) onto a
// residual Filter (the conjuncts the producer did not already apply)
// over cs. Expressions are reused as-is; whether they resolve against
// the producer's output schema is decided by compiling the returned
// plan.
func BuildResidual(in *Shape, cs *CachedScan, residual []ast.Expr) (Node, error) {
	var out Node = cs
	if len(residual) > 0 {
		out = NewFilter(out, ast.And(residual))
	}
	for i := len(in.Upper) - 1; i >= 0; i-- {
		n, err := WithInput(in.Upper[i], out)
		if err != nil {
			return nil, err
		}
		out = n
	}
	return out, nil
}

// CachedScan is the leaf of a residual plan: it reads a relation the
// result cache materialized earlier instead of any base table. Source
// and Stamp identify the producing cache entry (its exact-match key).
// The session looks the entry up after the residual plan has won costing
// and physical.Compile reads its relation by Source — the entry may have
// been evicted in between, in which case the session falls back to
// fresh execution.
type CachedScan struct {
	Label  string // FROM-tree label of the producing plan
	Source string // exact-match fingerprint of the producing entry
	Stamp  string // per-table epoch stamp the entry is valid under
	Rows   int    // cached cardinality, for costing
	out    *schema.Schema
}

// NewCachedScan builds a cached-relation leaf with the producer's output
// schema.
func NewCachedScan(label, source, stamp string, rows int, out *schema.Schema) *CachedScan {
	return &CachedScan{Label: label, Source: source, Stamp: stamp, Rows: rows, out: out}
}

// Schema implements Node.
func (c *CachedScan) Schema() *schema.Schema { return c.out }

// Describe implements Node.
func (c *CachedScan) Describe() string {
	return fmt.Sprintf("residual over cached(%s) [%d rows]", c.Label, c.Rows)
}

// FindCachedScan returns the plan's CachedScan leaf, or nil when the
// plan executes against base tables.
func FindCachedScan(n Node) *CachedScan {
	var found *CachedScan
	Walk(n, func(n Node) bool {
		if found == nil {
			found, _ = n.(*CachedScan)
		}
		return found == nil
	})
	return found
}
