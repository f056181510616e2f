package core

import (
	"fmt"

	"dvm/internal/algebra"
	"dvm/internal/bag"
)

// QueryFresh answers a (optionally σ_pred-restricted) query over the
// view's CURRENT value without refreshing it — one answer to the
// paper's Section 7 question "are there algorithms to refresh only
// those parts of a view needed by a given query?". Instead of paying a
// refresh (and its downtime), the current value is composed on the fly
// from the stale MV and the pending auxiliary state, using the same
// Figure 3 equations the refresh would apply:
//
//	IM:  Q = MV
//	BL:  Q = (MV ∸ ▼(L,Q)) ⊎ ▲(L,Q)
//	DT:  Q = (MV ∸ ∇MV) ⊎ △MV
//	C:   Q = (((MV ∸ ∇MV) ⊎ △MV) ∸ ▼(L,Q)) ⊎ ▲(L,Q)
//
// pred (which must bind against the view's output schema) restricts the
// answer; pass nil for the whole view. MV stays untouched — stale
// readers keep their frozen analysis view (the [AL80] use case) while
// fresh readers pay incremental evaluation per query.
func (m *Manager) QueryFresh(name string, pred algebra.Predicate) (*bag.Bag, error) {
	v, err := m.View(name)
	if err != nil {
		return nil, err
	}
	if m.shared != nil && (v.Scenario == BaseLogs || v.Scenario == Combined) {
		if err := m.materializeWindow(v); err != nil {
			return nil, err
		}
	}

	cur, err := m.currentExpr(v)
	if err != nil {
		return nil, err
	}
	if pred != nil {
		sel, err := algebra.NewSelect(pred, cur)
		if err != nil {
			return nil, fmt.Errorf("core: fresh query on %q: %w", name, err)
		}
		cur = sel
	}
	// Push the slice predicate as deep as it goes (through projections
	// and into join inputs): the point of a slice query is paying only
	// for the rows it touches.
	cur = algebra.Optimize(cur)

	var out *bag.Bag
	err = m.locks.WithRead([]string{v.mvName}, func() error {
		b, err := algebra.Eval(cur, m.db)
		if err != nil {
			return err
		}
		out = b
		return nil
	})
	return out, err
}

// currentExpr builds the expression whose value is Q's CURRENT value,
// from MV plus the pending auxiliary state.
func (m *Manager) currentExpr(v *View) (algebra.Expr, error) {
	cur := m.baseExpr(v.mvName)
	var err error
	switch v.Scenario {
	case Immediate:
		return cur, nil
	case DiffTables, Combined:
		cur, err = applyDelta(cur, m.baseExpr(v.dtDel), m.baseExpr(v.dtAdd))
		if err != nil {
			return nil, err
		}
	}
	switch v.Scenario {
	case BaseLogs, Combined:
		cur, err = applyDelta(cur, v.blDel, v.blAdd)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}
