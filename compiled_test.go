package dvm_test

import (
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/core"
	"dvm/internal/storage"
	"dvm/internal/workload"
)

// The compiled delta programs are the only evaluator of the Figure 3
// transactions. These tests hold them to the recompute oracle: the
// tree-walking interpreter (algebra.Eval) evaluating the view
// definition from scratch, both directly and inside CheckInvariant /
// CheckConsistent, which recompute Q and PAST(L,Q) with it.

// oracleCase is one manager over a small retail state with the view
// "hv" defined under one scenario.
type oracleCase struct {
	t   *testing.T
	m   *core.Manager
	w   *workload.Retail
	def algebra.Expr
}

func newOracleCase(t *testing.T, scenario core.Scenario, seed int64) *oracleCase {
	t.Helper()
	db := storage.NewDatabase()
	w := workload.NewRetail(workload.RetailConfig{
		Customers:    120,
		HighFraction: 0.25,
		InitialSales: 600,
		Items:        60,
		ZipfS:        1.2,
		Seed:         seed,
	})
	if err := w.Setup(db); err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(db)
	def, err := w.ViewDef()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("hv", def, scenario); err != nil {
		t.Fatal(err)
	}
	return &oracleCase{t: t, m: m, w: w, def: def}
}

// step runs one maintenance call and checks the scenario's Figure 1
// invariant right after it.
func (c *oracleCase) step(what string, f func() error) {
	c.t.Helper()
	if err := f(); err != nil {
		c.t.Fatalf("%s: %v", what, err)
	}
	if err := c.m.CheckInvariant("hv"); err != nil {
		c.t.Fatalf("after %s: %v", what, err)
	}
}

// basket executes one customer basket, followed by a score flip when
// flip is set, checking the invariant after each transaction.
func (c *oracleCase) basket(flip bool) {
	c.t.Helper()
	c.step("basket", func() error { return c.m.Execute(c.w.Basket(2, 6, 0.2)) })
	if flip {
		c.step("score flip", func() error {
			tx, err := c.w.ScoreFlip()
			if err != nil {
				return err
			}
			return c.m.Execute(tx)
		})
	}
}

// requireQ checks that got equals Q recomputed from scratch.
func (c *oracleCase) requireQ(what string, got *bag.Bag) {
	c.t.Helper()
	want, err := algebra.Eval(c.def, c.m.DB())
	if err != nil {
		c.t.Fatal(err)
	}
	if !got.Equal(want) {
		c.t.Fatalf("%s differs from Q recomputed from scratch:\ngot  %v\nwant %v", what, got, want)
	}
}

// requireFresh checks that QueryFresh answers Q.
func (c *oracleCase) requireFresh(when string) {
	c.t.Helper()
	got, err := c.m.QueryFresh("hv", nil)
	if err != nil {
		c.t.Fatal(err)
	}
	c.requireQ(when+": fresh answer", got)
}

// requireRefreshed checks the postcondition of every refresh_*: Q ≡ MV,
// both through CheckConsistent and by comparing Query with Q.
func (c *oracleCase) requireRefreshed(when string) {
	c.t.Helper()
	if err := c.m.CheckConsistent("hv"); err != nil {
		c.t.Fatalf("%s: %v", when, err)
	}
	got, err := c.m.Query("hv")
	if err != nil {
		c.t.Fatal(err)
	}
	c.requireQ(when+": MV", got)
}

// TestCompiledMatchesInterpretedScenarios drives a retail stream
// through one manager per maintenance scenario, checking the scenario's
// invariant after every transaction and propagate, the fresh answer
// against Q, and — after the closing refresh — the MV against Q.
func TestCompiledMatchesInterpretedScenarios(t *testing.T) {
	scenarios := []struct {
		name string
		s    core.Scenario
	}{
		{"immediate", core.Immediate},
		{"baselogs", core.BaseLogs},
		{"difftables", core.DiffTables},
		{"combined", core.Combined},
	}
	for si, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			c := newOracleCase(t, sc.s, int64(40+si))
			for tick := 1; tick <= 20; tick++ {
				c.basket(tick%7 == 0)
				if sc.s == core.Combined && tick%5 == 0 {
					c.step("propagate", func() error { return c.m.Propagate("hv") })
				}
				if sc.s == core.Immediate {
					q, err := c.m.Query("hv")
					if err != nil {
						t.Fatal(err)
					}
					c.requireQ("immediate MV", q)
				}
			}
			c.requireFresh("end of stream")
			if sc.s != core.Immediate {
				c.step("refresh", func() error { return c.m.Refresh("hv") })
			}
			c.requireRefreshed("after refresh")
		})
	}
}

// TestCompiledPoliciesMatchInterpreted runs the mixed retail day under
// each deferred-maintenance policy (1: propagate + refresh_C, 2:
// propagate + partial_refresh_C, 3: on-demand) on a Combined view,
// checking INV_C after every transaction and tick, fresh answers
// against Q, and the MV against Q after every refresh.
func TestCompiledPoliciesMatchInterpreted(t *testing.T) {
	policies := []struct {
		name string
		p    core.Policy
	}{
		{"policy1", core.Policy{PropagateEvery: 2, RefreshEvery: 10}},
		{"policy2", core.Policy{PropagateEvery: 2, RefreshEvery: 10, Partial: true}},
		{"policy3-ondemand", core.Policy{PropagateEvery: 2, OnDemand: true}},
	}
	for pi, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			c := newOracleCase(t, core.Combined, int64(70+pi))
			r, err := c.m.NewRunner("hv", pol.p)
			if err != nil {
				t.Fatal(err)
			}
			for tick := 1; tick <= 40; tick++ {
				c.basket(tick%13 == 0)
				c.step("tick", r.Tick)
				if !pol.p.OnDemand && tick%pol.p.RefreshEvery == 0 {
					c.requireRefreshed("after policy refresh")
				}
				if tick%10 == 0 {
					c.requireFresh("mid-day")
				}
			}
			if pol.p.OnDemand {
				c.step("on-demand refresh", r.RefreshNow)
			}
			c.requireRefreshed("end of day")
		})
	}
}

// TestCompiledRecomputeAndPartial covers the remaining entry points one
// by one: RefreshRecompute (full recompute via the compiled definition
// program) and PartialRefresh must each land the MV on Q.
func TestCompiledRecomputeAndPartial(t *testing.T) {
	c := newOracleCase(t, core.Combined, 59)
	for i := 0; i < 8; i++ {
		c.basket(false)
	}
	c.step("recompute", func() error { return c.m.RefreshRecompute("hv") })
	c.requireRefreshed("after recompute")
	for i := 0; i < 8; i++ {
		c.basket(false)
	}
	c.step("propagate", func() error { return c.m.Propagate("hv") })
	c.step("partial refresh", func() error { return c.m.PartialRefresh("hv") })
	c.requireRefreshed("after partial refresh")
}
