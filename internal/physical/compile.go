package physical

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/schema"
)

// Compile lowers a logical plan to a physical operator tree. data returns
// the materialized relation of a DB-bound table by name, and of a
// CachedScan by its Source; nil when the plan reads none (LLM-only
// plans, and residual plans compiled only to validate them).
func Compile(n logical.Node, data func(name string) (*schema.Relation, error)) (Operator, error) {
	switch node := n.(type) {
	case *logical.Scan:
		if node.Source == "LLM" {
			return &llmKeyScanOp{scan: node, out: node.Schema()}, nil
		}
		if data == nil {
			return nil, fmt.Errorf("physical: no data source for table %s", node.Table.Name)
		}
		rel, err := data(node.Table.Name)
		if err != nil {
			return nil, err
		}
		return NewMemScan(node.Schema(), rel), nil

	case *logical.CachedScan:
		// Residual execution over a relation the result cache
		// materialized earlier: no scheduler, no prompts — just an
		// in-memory scan under the producer's schema. Candidate
		// validation passes no data and compiles against an empty
		// stand-in.
		if data == nil {
			return NewMemScan(node.Schema(), schema.NewRelation(node.Schema())), nil
		}
		rel, err := data(node.Source)
		if err != nil {
			return nil, err
		}
		return NewMemScan(node.Schema(), rel), nil

	case *logical.FetchAttr:
		input, err := Compile(node.Input, data)
		if err != nil {
			return nil, err
		}
		f := &llmFetchAttrOp{node: node, input: input, out: node.Schema()}
		if width := runWidth(input); width != nil {
			f.inPlace, *width = true, f.out.Len()
		}
		return f, nil

	case *logical.LLMFilter:
		input, err := Compile(node.Input, data)
		if err != nil {
			return nil, err
		}
		return &llmFilterOp{node: node, input: input}, nil

	case *logical.Filter:
		input, err := Compile(node.Input, data)
		if err != nil {
			return nil, err
		}
		pred, err := expr.Compile(node.Cond, input.Schema())
		if err != nil {
			return nil, err
		}
		return NewFilter(input, pred), nil

	case *logical.Join:
		left, err := Compile(node.Left, data)
		if err != nil {
			return nil, err
		}
		right, err := Compile(node.Right, data)
		if err != nil {
			return nil, err
		}
		return buildJoin(node, left, right)

	case *logical.Aggregate:
		input, err := Compile(node.Input, data)
		if err != nil {
			return nil, err
		}
		return newHashAgg(node, input)

	case *logical.Project:
		input, err := Compile(node.Input, data)
		if err != nil {
			return nil, err
		}
		op := &projectOp{input: input, out: node.Schema()}
		for _, it := range node.Items {
			f, err := expr.Compile(it.Expr, input.Schema())
			if err != nil {
				return nil, err
			}
			op.funcs = append(op.funcs, f)
		}
		return op, nil

	case *logical.StripProject:
		input, err := Compile(node.Input, data)
		if err != nil {
			return nil, err
		}
		return &stripOp{input: input, out: node.Schema(), keep: node.Keep}, nil

	case *logical.Distinct:
		input, err := Compile(node.Input, data)
		if err != nil {
			return nil, err
		}
		k := node.KeyCols
		if k <= 0 {
			k = input.Schema().Len()
		}
		return &distinctOp{input: input, keyCols: k}, nil

	case *logical.Sort:
		input, err := Compile(node.Input, data)
		if err != nil {
			return nil, err
		}
		return newSort(node, input)

	case *logical.Limit:
		input, err := Compile(node.Input, data)
		if err != nil {
			return nil, err
		}
		return &limitOp{input: input, n: node.N, offset: node.Offset}, nil

	default:
		return nil, fmt.Errorf("physical: cannot compile %T", n)
	}
}

// runWidth finds the operator that allocates the rows a fetch over op
// would extend, and returns its row width for the fetch to raise. A run
// is a key scan, or a fetch that copies its input's rows, and the
// fetches above it, through any filters between them, that append their
// cells in place; each of its rows is allocated once, with room for
// every cell of the run, and belongs to one operator at a time. nil
// means op's rows are not a run's: a DB table's or a cached relation's
// rows, a join's, and anything else shared or built elsewhere, which a
// fetch copies.
func runWidth(op Operator) *int {
	for {
		switch o := op.(type) {
		case *filterOp:
			op = o.input
		case *llmFilterOp:
			op = o.input
		case *llmKeyScanOp:
			return &o.width
		case *llmFetchAttrOp:
			if !o.inPlace {
				return &o.width
			}
			op = o.input
		default:
			return nil
		}
	}
}
