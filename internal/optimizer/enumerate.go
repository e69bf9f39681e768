package optimizer

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/logical"
)

// maxCandidateBits caps the enumeration: every bit doubles the candidate
// count, so 6 bits bound the search at 64 plans.
const maxCandidateBits = 6

// choicePoint is one binary decision of the candidate space.
type choicePoint struct {
	kind string // "fetch", "swap", "nopush"
	key  string // conjunct key, or join index rendered
	join int
}

// ExtraPlan is a pre-built candidate injected into Choose's comparison
// from outside the rewrite space — the session's residual plans over
// cached relations. Extras are priced with the same Estimate and compete
// against the fresh plan, so cache answering and plan selection unify.
type ExtraPlan struct {
	Plan  logical.Node
	Label string
}

// Choose plans one built statement and returns the chosen plan with its
// estimate. Every candidate is optimized from built.
//
// Without base.CostBased the fixed heuristics lower one plan, and an
// extra wins only when strictly cheaper (a full tie keeps the fresh
// plan). With it, candidates are enumerated and the cheapest wins
// (fewest overrented filter stages, then fewest prompts, then shortest
// makespan; ties keep the fixed-heuristic shape), extras included. The
// candidate space is spanned by:
//   - per eligible conjunct: per-key boolean prompt (LLMFilter) vs
//     fetch-then-filter;
//   - per join: input order (inner/cross joins only);
//   - per pushable conjunct (only when base.PromptPushdown is on):
//     merged into the retrieval prompt vs staged;
//   - filter chains are always reordered most-selective-first using st.
//
// With a template t (cost-based only), every statistics and cost-hook
// read the candidates make is recorded, and the choice comes back with
// its guards for Replan. The Guarded is nil without t, and when the
// choice cannot be replayed: built's ON predicates are not left-deep (a
// bind would not reproduce their nesting, which t keeps), a read changed
// its answer mid-enumeration, or a decision point is not a slot's
// conjunct.
func Choose(built logical.Node, base Options, st *Statistics, p CostParams, extras []ExtraPlan, t *Template) (logical.Node, *PlanCost, *Guarded, error) {
	if st == nil {
		st = NewStatistics()
	}
	if !base.CostBased {
		plan, err := Optimize(built, base)
		if err != nil {
			return nil, nil, nil, err
		}
		best := &scored{plan: plan, cost: Estimate(plan, st, p), label: "paper"}
		plan, cost := compete(best, 1, st, p, extras, cheaper)
		return plan, cost, nil, nil
	}
	var rec *recorder
	if t != nil && logical.LeftDeep(built) {
		rec = &recorder{t: t, seen: map[read]int{}}
	}

	// Probe pass: the fixed-heuristic plan reveals the decision points.
	probe, err := optimizeWith(built, base, choice{}, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	filterKeys, pushedKeys, joins := decisionKeys(probe)
	points := assemblePoints(filterKeys, pushedKeys, joins, base.PromptPushdown)

	var src statsReader = st
	cp := p
	if rec != nil {
		src, cp = rec.wrap(st, p)
	}
	var best *scored
	for mask := 0; mask < 1<<len(points); mask++ {
		plan, err := optimizeWith(built, base, candidate(points, mask), src)
		if err != nil {
			return nil, nil, nil, err
		}
		cost := estimate(plan, src, cp)
		if best == nil || less(cost, best.cost) {
			best = &scored{plan: plan, cost: cost, mask: mask}
		}
	}
	best.label = label(points, best.mask)
	enumerated := 1 << len(points)
	if rec != nil {
		rec.decided(filterKeys, pushedKeys, joins, best.mask, enumerated, best.plan, best.cost)
	}
	plan, cost := compete(best, enumerated, st, p, extras, less)
	if rec == nil || rec.unstable {
		return plan, cost, nil, nil
	}
	return plan, cost, rec.g, nil
}

// scored is the running winner: a plan, its estimate, its choice label
// and, for an enumerated candidate, its mask over the decision points.
type scored struct {
	plan  logical.Node
	cost  *PlanCost
	label string
	mask  int
}

// compete prices the extras against the best fresh candidate under the
// order better and settles the winner's choice label and candidate
// count.
func compete(best *scored, fresh int, st *Statistics, p CostParams, extras []ExtraPlan, better func(a, b *PlanCost) bool) (logical.Node, *PlanCost) {
	for _, ex := range extras {
		if cost := Estimate(ex.Plan, st, p); better(cost, best.cost) {
			best = &scored{plan: ex.Plan, cost: cost, label: ex.Label}
		}
	}
	best.cost.Candidates = fresh + len(extras)
	best.cost.Choice = best.label
	return best.plan, best.cost
}

// decisionKeys reads the decision points off the probe plan: the
// distinct conjuncts lowered to boolean prompts and merged into
// retrieval prompts (each sorted), and the number of joins.
func decisionKeys(probe logical.Node) (filterKeys, pushedKeys []string, joins int) {
	seen := map[string]bool{}
	logical.Walk(probe, func(n logical.Node) bool {
		switch node := n.(type) {
		case *logical.LLMFilter:
			k := node.Cond.Key
			if !seen[k] {
				seen[k] = true
				filterKeys = append(filterKeys, k)
			}
		case *logical.Join:
			joins++
		case *logical.Scan:
			for _, c := range node.Pushed {
				if !seen["push:"+c.Key] {
					seen["push:"+c.Key] = true
					pushedKeys = append(pushedKeys, c.Key)
				}
			}
		}
		return true
	})
	sort.Strings(filterKeys)
	sort.Strings(pushedKeys)
	return filterKeys, pushedKeys, joins
}

// assemblePoints lays the decision points out under the bit budget:
// filter-mode choices matter most (they change prompt counts directly),
// then pushdown, then join order (latency only).
func assemblePoints(filterKeys, pushedKeys []string, joins int, pushdown bool) []choicePoint {
	var points []choicePoint
	for _, k := range filterKeys {
		points = append(points, choicePoint{kind: "fetch", key: k})
	}
	if pushdown {
		for _, k := range pushedKeys {
			points = append(points, choicePoint{kind: "nopush", key: k})
		}
	}
	for j := 0; j < joins; j++ {
		points = append(points, choicePoint{kind: "swap", join: j})
	}
	if len(points) > maxCandidateBits {
		points = points[:maxCandidateBits]
	}
	return points
}

// candidate renders one mask over the decision points as the decisions
// that lower it.
func candidate(points []choicePoint, mask int) choice {
	var c choice
	for i, pt := range points {
		if mask&(1<<i) == 0 {
			continue
		}
		switch pt.kind {
		case "fetch":
			c.fetch = with(c.fetch, pt.key)
		case "nopush":
			c.stage = with(c.stage, pt.key)
		case "swap":
			c.swap = with(c.swap, pt.join)
		}
	}
	return c
}

// label renders one mask over the decision points as its choice label.
func label(points []choicePoint, mask int) string {
	var parts []string
	for i, pt := range points {
		if mask&(1<<i) == 0 {
			continue
		}
		switch pt.kind {
		case "fetch":
			parts = append(parts, "fetch{"+pt.key+"}")
		case "nopush":
			parts = append(parts, "stage{"+pt.key+"}")
		case "swap":
			parts = append(parts, fmt.Sprintf("swap{%d}", pt.join))
		}
	}
	if len(parts) == 0 {
		return "paper"
	}
	return strings.Join(parts, " ")
}

// with returns set with k added, allocating the set on first use.
func with[K comparable](set map[K]bool, k K) map[K]bool {
	if set == nil {
		set = map[K]bool{}
	}
	set[k] = true
	return set
}

// cheaper reports whether a costs strictly less than b: the
// backend-weighted prompt cost dominates (it is the money), the estimated
// makespan breaks ties. On an unpriced estimate Cost equals Prompts, so
// single-backend planning is ordered exactly as before routing existed.
// It is the fixed heuristics' order for extras; strictness means fresh
// execution wins full ties.
func cheaper(a, b *PlanCost) bool {
	const eps = 1e-9
	if a.Cost < b.Cost-eps {
		return true
	}
	if a.Cost > b.Cost+eps {
		return false
	}
	return a.Latency < b.Latency
}

// less is the enumeration's order: a candidate that rents boolean
// prompts past the rent-or-buy point loses to one that does not (its
// fetch-then-filter sibling is always among the candidates; only ever
// the case with a prompt cache), then cheaper decides. Strict comparison
// keeps the first (paper-shaped) candidate on full ties.
func less(a, b *PlanCost) bool {
	if a.Overrented != b.Overrented {
		return a.Overrented < b.Overrented
	}
	return cheaper(a, b)
}
