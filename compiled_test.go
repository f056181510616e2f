package dvm_test

import (
	"testing"

	"dvm/internal/core"
	"dvm/internal/storage"
	"dvm/internal/workload"
)

// compiledPair builds two managers over independently set-up copies of
// the same retail state: one evaluating maintenance with compiled delta
// programs (the default) and one forced onto the tree-walking
// interpreter. Both receive identical transaction streams from
// same-seed generators, so any divergence is a compiler bug.
func compiledPair(t *testing.T, scenario core.Scenario, seed int64) (compiled, interp *core.Manager, wc, wi *workload.Retail) {
	t.Helper()
	cfg := workload.RetailConfig{
		Customers:    120,
		HighFraction: 0.25,
		InitialSales: 600,
		Items:        60,
		ZipfS:        1.2,
		Seed:         seed,
	}
	build := func(opts ...core.ManagerOption) (*core.Manager, *workload.Retail) {
		db := storage.NewDatabase()
		w := workload.NewRetail(cfg)
		if err := w.Setup(db); err != nil {
			t.Fatal(err)
		}
		m := core.NewManager(db, opts...)
		def, err := w.ViewDef()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.DefineView("hv", def, scenario); err != nil {
			t.Fatal(err)
		}
		return m, w
	}
	compiled, wc = build()
	interp, wi = build(core.WithInterpretedDeltas())
	return compiled, interp, wc, wi
}

// TestCompiledMatchesInterpretedScenarios drives the same retail stream
// through a compiled and an interpreted manager under every maintenance
// scenario and requires identical stale answers, fresh answers, and
// post-refresh MVs, plus a clean INV_C-style invariant where one is
// defined.
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
			compiled, interp, wc, wi := compiledPair(t, sc.s, int64(40+si))
			for tick := 1; tick <= 20; tick++ {
				if err := compiled.Execute(wc.Basket(2, 6, 0.2)); err != nil {
					t.Fatal(err)
				}
				if err := interp.Execute(wi.Basket(2, 6, 0.2)); err != nil {
					t.Fatal(err)
				}
				if tick%7 == 0 {
					fc, err := wc.ScoreFlip()
					if err != nil {
						t.Fatal(err)
					}
					fi, err := wi.ScoreFlip()
					if err != nil {
						t.Fatal(err)
					}
					if err := compiled.Execute(fc); err != nil {
						t.Fatal(err)
					}
					if err := interp.Execute(fi); err != nil {
						t.Fatal(err)
					}
				}
				if sc.s == core.Combined && tick%5 == 0 {
					if err := compiled.Propagate("hv"); err != nil {
						t.Fatal(err)
					}
					if err := interp.Propagate("hv"); err != nil {
						t.Fatal(err)
					}
				}
				qc, err := compiled.Query("hv")
				if err != nil {
					t.Fatal(err)
				}
				qi, err := interp.Query("hv")
				if err != nil {
					t.Fatal(err)
				}
				if !qc.Equal(qi) {
					t.Fatalf("tick %d: stale answers differ: compiled %v, interpreted %v", tick, qc, qi)
				}
			}
			fc, err := compiled.QueryFresh("hv", nil)
			if err != nil {
				t.Fatal(err)
			}
			fi, err := interp.QueryFresh("hv", nil)
			if err != nil {
				t.Fatal(err)
			}
			if !fc.Equal(fi) {
				t.Fatal("fresh answers differ")
			}
			if sc.s != core.Immediate {
				if err := compiled.Refresh("hv"); err != nil {
					t.Fatal(err)
				}
				if err := interp.Refresh("hv"); err != nil {
					t.Fatal(err)
				}
			}
			qc, err := compiled.Query("hv")
			if err != nil {
				t.Fatal(err)
			}
			qi, err := interp.Query("hv")
			if err != nil {
				t.Fatal(err)
			}
			if !qc.Equal(qi) {
				t.Fatalf("refreshed MVs differ: compiled %v, interpreted %v", qc, qi)
			}
			if err := compiled.CheckInvariant("hv"); err != nil {
				t.Fatal(err)
			}
			if err := interp.CheckInvariant("hv"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCompiledPoliciesMatchInterpreted runs the mixed retail day under
// each deferred-maintenance policy (1: propagate + refresh_C, 2:
// propagate + partial_refresh_C, 3: on-demand) against compiled and
// interpreted Combined managers and requires identical stale and fresh
// answers throughout, ending with clean invariants.
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
			compiled, interp, wc, wi := compiledPair(t, core.Combined, int64(70+pi))
			rc, err := compiled.NewRunner("hv", pol.p)
			if err != nil {
				t.Fatal(err)
			}
			ri, err := interp.NewRunner("hv", pol.p)
			if err != nil {
				t.Fatal(err)
			}
			for tick := 1; tick <= 40; tick++ {
				if err := compiled.Execute(wc.Basket(2, 6, 0.2)); err != nil {
					t.Fatal(err)
				}
				if err := interp.Execute(wi.Basket(2, 6, 0.2)); err != nil {
					t.Fatal(err)
				}
				if tick%13 == 0 {
					fc, err := wc.ScoreFlip()
					if err != nil {
						t.Fatal(err)
					}
					fi, err := wi.ScoreFlip()
					if err != nil {
						t.Fatal(err)
					}
					if err := compiled.Execute(fc); err != nil {
						t.Fatal(err)
					}
					if err := interp.Execute(fi); err != nil {
						t.Fatal(err)
					}
				}
				if err := rc.Tick(); err != nil {
					t.Fatal(err)
				}
				if err := ri.Tick(); err != nil {
					t.Fatal(err)
				}
				if tick%10 == 0 {
					fc, err := compiled.QueryFresh("hv", nil)
					if err != nil {
						t.Fatal(err)
					}
					fi, err := interp.QueryFresh("hv", nil)
					if err != nil {
						t.Fatal(err)
					}
					if !fc.Equal(fi) {
						t.Fatalf("tick %d: fresh answers differ", tick)
					}
				}
				qc, err := compiled.Query("hv")
				if err != nil {
					t.Fatal(err)
				}
				qi, err := interp.Query("hv")
				if err != nil {
					t.Fatal(err)
				}
				if !qc.Equal(qi) {
					t.Fatalf("tick %d: stale answers differ", tick)
				}
			}
			if pol.p.OnDemand {
				if err := rc.RefreshNow(); err != nil {
					t.Fatal(err)
				}
				if err := ri.RefreshNow(); err != nil {
					t.Fatal(err)
				}
			}
			if err := compiled.CheckInvariant("hv"); err != nil {
				t.Fatal(err)
			}
			if err := interp.CheckInvariant("hv"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCompiledRecomputeAndPartial covers the remaining compiled entry
// points one by one: RefreshRecompute (full recompute via the compiled
// definition program) and PartialRefresh must each land both managers
// on identical MVs.
func TestCompiledRecomputeAndPartial(t *testing.T) {
	compiled, interp, wc, wi := compiledPair(t, core.Combined, 59)
	step := func() {
		t.Helper()
		if err := compiled.Execute(wc.Basket(2, 6, 0.2)); err != nil {
			t.Fatal(err)
		}
		if err := interp.Execute(wi.Basket(2, 6, 0.2)); err != nil {
			t.Fatal(err)
		}
	}
	same := func(when string) {
		t.Helper()
		qc, err := compiled.Query("hv")
		if err != nil {
			t.Fatal(err)
		}
		qi, err := interp.Query("hv")
		if err != nil {
			t.Fatal(err)
		}
		if !qc.Equal(qi) {
			t.Fatalf("%s: MVs differ", when)
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if err := compiled.RefreshRecompute("hv"); err != nil {
		t.Fatal(err)
	}
	if err := interp.RefreshRecompute("hv"); err != nil {
		t.Fatal(err)
	}
	same("after recompute")
	for i := 0; i < 8; i++ {
		step()
	}
	if err := compiled.Propagate("hv"); err != nil {
		t.Fatal(err)
	}
	if err := interp.Propagate("hv"); err != nil {
		t.Fatal(err)
	}
	if err := compiled.PartialRefresh("hv"); err != nil {
		t.Fatal(err)
	}
	if err := interp.PartialRefresh("hv"); err != nil {
		t.Fatal(err)
	}
	same("after partial refresh")
	if err := compiled.CheckInvariant("hv"); err != nil {
		t.Fatal(err)
	}
	if err := interp.CheckInvariant("hv"); err != nil {
		t.Fatal(err)
	}
}
