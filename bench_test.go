// Package dvm_test hosts the testing.B benchmark harness: one benchmark
// per experiment in DESIGN.md's index (regenerating the EXPERIMENTS.md
// tables), plus micro-benchmarks of the layers the experiments rest on
// (bag operations, evaluation, differential compilation, makesafe,
// refresh variants).
package dvm_test

import (
	"fmt"
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/bench"
	"dvm/internal/core"
	"dvm/internal/delta"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
	"dvm/internal/workload"
)

// --- Experiment benchmarks (one per EXPERIMENTS.md table) ---

func benchExperiment(b *testing.B, run func() (*bench.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + rep.String())
		}
	}
}

func BenchmarkE1StateBugJoin(b *testing.B) { benchExperiment(b, bench.E1StateBugJoin) }
func BenchmarkE2StateBugDiff(b *testing.B) { benchExperiment(b, bench.E2StateBugDiff) }
func BenchmarkE3Overhead(b *testing.B)     { benchExperiment(b, bench.E3Overhead) }
func BenchmarkE4Downtime(b *testing.B)     { benchExperiment(b, bench.E4Downtime) }
func BenchmarkE5PropagationSweep(b *testing.B) {
	benchExperiment(b, bench.E5PropagationSweep)
}
func BenchmarkE6RestrictedClass(b *testing.B) { benchExperiment(b, bench.E6RestrictedClass) }
func BenchmarkE7Minimality(b *testing.B)      { benchExperiment(b, bench.E7Minimality) }
func BenchmarkE8IncrVsRecompute(b *testing.B) { benchExperiment(b, bench.E8IncrVsRecompute) }
func BenchmarkE9Batching(b *testing.B)        { benchExperiment(b, bench.E9Batching) }

// --- Per-scenario makesafe cost (the E3 rows as isolated benches) ---

func retailManager(b *testing.B, sc core.Scenario) (*core.Manager, *workload.Retail) {
	return retailManagerSized(b, sc, 2000)
}

// retailManagerSized is retailManager over a load of the given number
// of sales.
func retailManagerSized(b *testing.B, sc core.Scenario, sales int) (*core.Manager, *workload.Retail) {
	b.Helper()
	db := storage.NewDatabase()
	w := workload.NewRetail(workload.RetailConfig{
		Customers: 300, HighFraction: 0.2, InitialSales: sales, Items: 200, ZipfS: 1.2, Seed: 17,
	})
	if err := w.Setup(db); err != nil {
		b.Fatal(err)
	}
	m := core.NewManager(db)
	def, err := w.ViewDef()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.DefineView("v", def, sc); err != nil {
		b.Fatal(err)
	}
	return m, w
}

func benchExecute(b *testing.B, sc core.Scenario) {
	m, w := retailManager(b, sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Execute(w.SalesBatch(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMakeSafeImmediate(b *testing.B)  { benchExecute(b, core.Immediate) }
func BenchmarkMakeSafeBaseLogs(b *testing.B)   { benchExecute(b, core.BaseLogs) }
func BenchmarkMakeSafeDiffTables(b *testing.B) { benchExecute(b, core.DiffTables) }
func BenchmarkMakeSafeCombined(b *testing.B)   { benchExecute(b, core.Combined) }

// --- Refresh variants over a fixed pending-update volume ---

func benchRefresh(b *testing.B, sc core.Scenario, refresh func(m *core.Manager) error) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, w := retailManager(b, sc)
		if err := m.Execute(w.SalesBatch(100)); err != nil {
			b.Fatal(err)
		}
		if sc == core.Combined {
			if err := m.Propagate("v"); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := refresh(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefreshBaseLogs(b *testing.B) {
	benchRefresh(b, core.BaseLogs, func(m *core.Manager) error { return m.Refresh("v") })
}

func BenchmarkRefreshCombinedFull(b *testing.B) {
	benchRefresh(b, core.Combined, func(m *core.Manager) error { return m.Refresh("v") })
}

// BenchmarkRefreshCombinedPartial times partial_refresh_C applying the
// same pending volume (100 sales, propagated) to views about 10x apart
// in size, each sub-benchmark reporting |MV| before its first install
// as mv_tuples. The install is in place, so the two should cost about
// the same: the downtime follows the diff, not the view.
func BenchmarkRefreshCombinedPartial(b *testing.B) {
	for _, sales := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("sales=%d", sales), func(b *testing.B) {
			m, w := retailManagerSized(b, core.Combined, sales)
			v, err := m.View("v")
			if err != nil {
				b.Fatal(err)
			}
			mv, err := m.DB().Bag(v.MVTable())
			if err != nil {
				b.Fatal(err)
			}
			mvTuples := mv.Len()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := m.Execute(w.SalesBatch(100)); err != nil {
					b.Fatal(err)
				}
				if err := m.Propagate("v"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := m.PartialRefresh("v"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(mvTuples), "mv_tuples")
		})
	}
}

func BenchmarkRefreshRecompute(b *testing.B) {
	benchRefresh(b, core.BaseLogs, func(m *core.Manager) error { return m.RefreshRecompute("v") })
}

// --- Micro-benchmarks: bag algebra ---

func makeBag(n, domain int) *bag.Bag {
	b := bag.New()
	for i := 0; i < n; i++ {
		b.Add(schema.Row(i%domain, i), 1)
	}
	return b
}

func BenchmarkBagUnionAll(b *testing.B) {
	x := makeBag(10000, 5000)
	y := makeBag(10000, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bag.UnionAll(x, y)
	}
}

func BenchmarkBagMonus(b *testing.B) {
	x := makeBag(10000, 5000)
	y := makeBag(5000, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bag.Monus(x, y)
	}
}

func BenchmarkBagMin(b *testing.B) {
	x := makeBag(10000, 5000)
	y := makeBag(5000, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bag.Min(x, y)
	}
}

func BenchmarkBagDupElim(b *testing.B) {
	x := makeBag(10000, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bag.DupElim(x)
	}
}

func BenchmarkTupleKey(b *testing.B) {
	t := schema.Row(123456, "some-string-value", 3.25, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.Key()
	}
}

// --- Micro-benchmarks: evaluation ---

func joinFixture(b *testing.B, rows int) (algebra.Expr, *storage.Database) {
	b.Helper()
	db := storage.NewDatabase()
	w := workload.NewRetail(workload.RetailConfig{
		Customers: 300, HighFraction: 0.2, InitialSales: rows, Items: 200, ZipfS: 1.2, Seed: 9,
	})
	if err := w.Setup(db); err != nil {
		b.Fatal(err)
	}
	def, err := w.ViewDef()
	if err != nil {
		b.Fatal(err)
	}
	return def, db
}

func BenchmarkEvalHashJoin(b *testing.B) {
	for _, rows := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			def, db := joinFixture(b, rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := algebra.Eval(def, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvalPostUpdateDelta measures evaluating ▼(L,Q)/▲(L,Q) for a
// join view with a 100-row log — the inner loop of refresh_BL and
// propagate_C — once with the tree-walking interpreter (algebra.Eval's
// evaluator, the test oracle) and once as a compiled program (the
// maintenance path).
func BenchmarkEvalPostUpdateDelta(b *testing.B) {
	m, w := retailManager(b, core.BaseLogs)
	if err := m.Execute(w.SalesBatch(100)); err != nil {
		b.Fatal(err)
	}
	v, err := m.View("v")
	if err != nil {
		b.Fatal(err)
	}
	del, add := v.IncrementalQueries()
	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// One evaluator per pair, so the two roots share a memo the
			// way the compiled program shares its DAG slots.
			ev := algebra.NewEvaluator(m.DB())
			for _, e := range []algebra.Expr{del, add} {
				if _, err := ev.Eval(e); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		prog, err := algebra.Compile(del, add)
		if err != nil {
			b.Fatal(err)
		}
		st := prog.NewState()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := prog.Eval(st, m.DB()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Micro-benchmarks: differential compilation ---

func BenchmarkDifferentiateJoinView(b *testing.B) {
	def, db := joinFixture(b, 100)
	cs := delta.ChangeSet{}
	for _, name := range algebra.BaseNames(def) {
		tb, _ := db.Table(name)
		cs[name] = struct {
			Deleted  algebra.Expr
			Inserted algebra.Expr
		}{
			Deleted:  algebra.NewBase(name+"_del", tb.Schema()),
			Inserted: algebra.NewBase(name+"_ins", tb.Schema()),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := delta.PostUpdate(cs, def); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeJoinView(b *testing.B) {
	def, db := joinFixture(b, 100)
	cs := delta.ChangeSet{}
	for _, name := range algebra.BaseNames(def) {
		tb, _ := db.Table(name)
		cs[name] = struct {
			Deleted  algebra.Expr
			Inserted algebra.Expr
		}{
			Deleted:  algebra.NewBase(name+"_del", tb.Schema()),
			Inserted: algebra.NewBase(name+"_ins", tb.Schema()),
		}
	}
	d, a, err := delta.PostUpdate(cs, def)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algebra.OptimizePair(d, a)
	}
}

// --- End-to-end transaction throughput with a mixed workload ---

func BenchmarkMixedWorkloadCombined(b *testing.B) {
	m, w := retailManager(b, core.Combined)
	runner, err := m.NewRunner("v", core.Policy{PropagateEvery: 8, RefreshEvery: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Execute(w.MixedBatch(5, 1)); err != nil {
			b.Fatal(err)
		}
		if err := runner.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// Guard: the benchmark fixtures must leave invariants intact.
func TestBenchFixturesPreserveInvariants(t *testing.T) {
	db := storage.NewDatabase()
	w := workload.NewRetail(workload.RetailConfig{
		Customers: 50, HighFraction: 0.2, InitialSales: 200, Items: 50, ZipfS: 1.2, Seed: 3,
	})
	if err := w.Setup(db); err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(db)
	def, err := w.ViewDef()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("v", def, core.Combined); err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(txn.Insert("sales", bag.Of(schema.Row(1, 1, 1, 1.0)))); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariant("v"); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh("v"); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConsistent("v"); err != nil {
		t.Fatal(err)
	}
}
