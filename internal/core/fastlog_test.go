package core

import (
	"math/rand"
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// algebraicLogMerge is the reference form of makesafe_BL (=
// makesafe_C) that appendToLogs implements in place. It copies v's log
// tables and the effective deltas of nt into a snapshot database and
// applies, as one simultaneous txn.ApplyAssignments bundle,
//
//	▼R := ▼R ⊎ (∇R ∸ ▲R)
//	▲R := (▲R ∸ ∇R) ⊎ △R
//
// with ∇R/△R replaced by σ_p(∇R)/σ_p(△R) where the view has a log
// filter p on R. Call it before Execute; the returned snapshot holds
// the logs Execute must produce, under the view's own log names.
func algebraicLogMerge(t *testing.T, m *Manager, v *View, nt txn.Txn) *storage.Database {
	t.Helper()
	snap := storage.NewDatabase()
	load := func(name string, sch *schema.Schema, b *bag.Bag) algebra.Expr {
		t.Helper()
		tb, err := snap.Create(name, sch, storage.Internal)
		if err != nil {
			t.Fatal(err)
		}
		if b != nil {
			tb.Replace(b.Clone())
		}
		return algebra.NewBase(name, sch)
	}
	var assigns []txn.Assignment
	for _, b := range v.BaseTables() {
		tb, err := m.DB().Table(b)
		if err != nil {
			t.Fatal(err)
		}
		sch := tb.Schema()
		dl, _ := m.DB().Bag(v.logDel[b])
		il, _ := m.DB().Bag(v.logIns[b])
		delLog := load(v.logDel[b], sch, dl)
		insLog := load(v.logIns[b], sch, il)
		u, ok := nt[b]
		if !ok {
			continue
		}
		txDel := load("tx_del_"+b, sch, u.Delete)
		txIns := load("tx_ins_"+b, sch, u.Insert)
		if pred, ok := v.logFilter[b]; ok {
			if txDel, err = algebra.NewSelect(pred, txDel); err != nil {
				t.Fatal(err)
			}
			if txIns, err = algebra.NewSelect(pred, txIns); err != nil {
				t.Fatal(err)
			}
		}
		newOld, err := algebra.NewMonus(txDel, insLog) // ∇R ∸ ▲R
		if err != nil {
			t.Fatal(err)
		}
		delRHS, err := algebra.NewUnionAll(delLog, newOld)
		if err != nil {
			t.Fatal(err)
		}
		insKeep, err := algebra.NewMonus(insLog, txDel) // ▲R ∸ ∇R
		if err != nil {
			t.Fatal(err)
		}
		insRHS, err := algebra.NewUnionAll(insKeep, txIns)
		if err != nil {
			t.Fatal(err)
		}
		assigns = append(assigns,
			txn.Assignment{Table: v.logDel[b], Expr: delRHS},
			txn.Assignment{Table: v.logIns[b], Expr: insRHS})
	}
	if err := txn.ApplyAssignments(snap, assigns); err != nil {
		t.Fatal(err)
	}
	return snap
}

// executeAgainstAlgebraic runs tx through m and requires every log
// table of v to equal algebraicLogMerge's result for the same
// pre-state, log by log.
func executeAgainstAlgebraic(t *testing.T, m *Manager, v *View, tx txn.Txn) {
	t.Helper()
	nt, err := tx.Normalize(m.DB())
	if err != nil {
		t.Fatal(err)
	}
	want := algebraicLogMerge(t, m, v, nt)
	if err := m.Execute(tx); err != nil {
		t.Fatal(err)
	}
	for _, b := range v.BaseTables() {
		for _, name := range []string{v.logDel[b], v.logIns[b]} {
			got, _ := m.DB().Bag(name)
			exp, _ := want.Bag(name)
			if !got.Equal(exp) {
				t.Fatalf("log %s diverged from the algebraic merge:\nin place:  %v\nalgebraic: %v", name, got, exp)
			}
		}
	}
}

// TestFastLogAppendMatchesAlgebraic drives random transaction streams
// through the in-place log append and asserts that, step by step, each
// log table equals the algebraic Figure 3 assignments evaluated on the
// pre-transaction snapshot.
func TestFastLogAppendMatchesAlgebraic(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	u := algebra.NewRandomUniverse(2)
	for trial := 0; trial < 25; trial++ {
		def := u.RandomQuery(r, 3)

		// Initial rows are loaded BEFORE the view is defined so MV
		// starts consistent.
		seed := bag.New()
		for i, n := 0, r.Intn(8); i < n; i++ {
			seed.Add(schema.Row(r.Intn(4), r.Intn(4)), 1+r.Intn(2))
		}
		db := storage.NewDatabase()
		for _, name := range u.Tables {
			tb, err := db.Create(name, u.Sch, storage.External)
			if err != nil {
				t.Fatal(err)
			}
			tb.Replace(seed.Clone())
		}
		m := NewManager(db)
		v, err := m.DefineView("v", def, Combined)
		if err != nil {
			t.Fatal(err)
		}

		for step := 0; step < 8; step++ {
			tx := txn.Txn{}
			for _, name := range u.Tables {
				del, ins := u.RandomDelta(r)
				tx[name] = txn.Update{Delete: del, Insert: ins}
			}
			executeAgainstAlgebraic(t, m, v, tx)
			if err := m.CheckInvariant("v"); err != nil {
				t.Fatalf("trial %d step %d: in-place append broke INV_C: %v\ndef=%s", trial, step, err, def)
			}
		}

		if err := m.Refresh("v"); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckConsistent("v"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExecuteValidatesBeforeBookkeeping(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	v, err := m.DefineView("hv", def, Combined)
	if err != nil {
		t.Fatal(err)
	}
	// A mixed transaction with a type-violating insert must fail without
	// touching any log table.
	bad := txn.Txn{"sales": txn.Update{
		Delete: bag.Of(saleRow(0, 0, 1)),
		Insert: bag.Of(schema.Row("not-an-int", 1, 1, 1.0)),
	}}
	if err := m.Execute(bad); err == nil {
		t.Fatal("ill-typed insert accepted")
	}
	for _, b := range v.BaseTables() {
		lb, _ := db.Bag(v.logIns[b])
		if !lb.Empty() {
			t.Fatalf("log %s mutated by rejected transaction", v.logIns[b])
		}
		lb, _ = db.Bag(v.logDel[b])
		if !lb.Empty() {
			t.Fatalf("log %s mutated by rejected transaction", v.logDel[b])
		}
	}
	if err := m.CheckInvariant("hv"); err != nil {
		t.Fatal(err)
	}
}

// Quantify the fast path: its per-transaction cost must not grow with
// the accumulated log size, unlike the algebraic assignments.
func TestFastLogAppendIndependentOfLogSize(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	db, def := retailDB(t)
	m := NewManager(db)
	if _, err := m.DefineView("hv", def, BaseLogs); err != nil {
		t.Fatal(err)
	}
	// Grow the log to ~20k rows.
	big := bag.New()
	for i := 0; i < 20000; i++ {
		big.Add(saleRow(i%10, i, 1+i%3), 1)
	}
	if err := m.Execute(txn.Insert("sales", big)); err != nil {
		t.Fatal(err)
	}
	v, _ := m.View("hv")
	before, _ := db.Bag(v.logIns["sales"])
	sizeBefore := before.Len()

	// Appends must stay cheap: run a batch of tiny transactions and
	// check they finish quickly relative to the log size (smoke check,
	// not a strict timing assertion).
	for i := 0; i < 50; i++ {
		if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(i%10, i, 1)))); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := db.Bag(v.logIns["sales"])
	if after.Len() != sizeBefore+50 {
		t.Fatalf("log grew from %d to %d, want +50", sizeBefore, after.Len())
	}
	if err := m.CheckInvariant("hv"); err != nil {
		t.Fatal(err)
	}
}
