package core

import (
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/sql/ast"
)

// PlanBuilt plans sel as Session.choose does for the external tests:
// from built (nil: built afresh) and its template, with no residual
// candidates.
func (s *Session) PlanBuilt(sel *ast.Select, built logical.Node) (logical.Node, error) {
	q, err := s.prepare(sel)
	if err != nil {
		return nil, err
	}
	if built != nil {
		q.built, q.tpl = built, optimizer.TemplateOf(built, s.res.planKey)
	}
	plan, _, err := s.choose(q, nil)
	return plan, err
}
