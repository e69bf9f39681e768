package core

import (
	"repro/internal/logical"
	"repro/internal/sql/ast"
)

// PlanBuilt is Session.plan for the external tests: it plans sel from
// built (nil: built afresh), with no residual candidates.
func (s *Session) PlanBuilt(sel *ast.Select, built logical.Node) (logical.Node, error) {
	plan, _, err := s.plan(sel, built, nil)
	return plan, err
}
