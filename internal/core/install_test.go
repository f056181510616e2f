package core

import (
	"testing"

	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/txn"
)

// installStream is a transaction stream over retailDB: inserts,
// deletes of new and loaded sales, a customer demotion, and a duplicate
// insert.
func installStream() []txn.Txn {
	return []txn.Txn{
		txn.Insert("sales", bag.Of(saleRow(0, 99, 5), saleRow(2, 99, 1))),
		txn.Delete("sales", bag.Of(saleRow(0, 99, 5))),
		{
			"customer": {
				Delete: bag.Of(schema.Row(2, "cust", "addr", "High")),
				Insert: bag.Of(schema.Row(2, "cust", "addr", "Low")),
			},
			"sales": {Insert: bag.Of(saleRow(4, 50, 2))},
		},
		txn.Insert("sales", bag.Of(saleRow(4, 50, 2))),
		// Deletes a loaded row (retailDB's sale i=2) and one copy of
		// the duplicated insert.
		txn.Delete("sales", bag.Of(schema.Row(2, 2, 2, 2.0), saleRow(4, 50, 2))),
		txn.Insert("sales", bag.Of(saleRow(8, 7, 3))),
	}
}

// TestMVInstallInPlace holds every MV-updating transaction — IM's
// makesafe, refresh_BL, refresh_DT, and partial_refresh_C under
// Policies 1 and 2 — to the in-place install: the bag behind the MV
// table keeps its identity, a copy a reader took with Query before the
// install is unchanged by it, and the view's invariant and consistency
// hold after every step.
func TestMVInstallInPlace(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sc     Scenario
		policy Policy
	}{
		{name: "IM", sc: Immediate},
		{name: "BL", sc: BaseLogs, policy: Policy{RefreshEvery: 2}},
		{name: "DT", sc: DiffTables, policy: Policy{RefreshEvery: 2}},
		{name: "C/policy1", sc: Combined, policy: Policy{PropagateEvery: 1, RefreshEvery: 2}},
		{name: "C/policy2", sc: Combined, policy: Policy{PropagateEvery: 1, RefreshEvery: 2, Partial: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, def := retailDB(t)
			m := NewManager(db)
			v, err := m.DefineView("hv", def, tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			r, err := m.NewRunner("hv", tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			mv, err := db.Bag(v.MVTable())
			if err != nil {
				t.Fatal(err)
			}
			installs := 0
			for i, tx := range installStream() {
				before, err := m.Query("hv")
				if err != nil {
					t.Fatal(err)
				}
				snap := before.Clone()
				if err := m.Execute(tx); err != nil {
					t.Fatalf("step %d: execute: %v", i, err)
				}
				if err := r.Tick(); err != nil {
					t.Fatalf("step %d: tick: %v", i, err)
				}
				if got, _ := db.Bag(v.MVTable()); got != mv {
					t.Fatalf("step %d: the MV table's bag was replaced; the install must mutate it in place", i)
				}
				if !before.Equal(snap) {
					t.Fatalf("step %d: a Query copy taken before the install changed to %v, was %v", i, before, snap)
				}
				if err := m.CheckInvariant("hv"); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				fresh := tc.sc == Immediate || (i+1)%tc.policy.RefreshEvery == 0
				if !fresh {
					continue
				}
				if err := m.CheckConsistent("hv"); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if !mv.Equal(snap) {
					installs++
				}
			}
			if installs == 0 {
				t.Fatal("no step changed the MV; the stream does not exercise the install")
			}
		})
	}
}

// TestRunCompiledAssignsStagesTargets checks stage-then-commit: when
// a bundle's second target does not exist, the first target is left
// exactly as it was — same bag, same contents — rather than installed.
func TestRunCompiledAssignsStagesTargets(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	v, err := m.DefineView("hv", def, Combined)
	if err != nil {
		t.Fatal(err)
	}
	// Give ∇MV contents the bundle would overwrite: delete retailDB's
	// sales i=2 and i=4, both in the view.
	if err := m.Execute(txn.Delete("sales", bag.Of(schema.Row(2, 2, 2, 2.0), schema.Row(4, 4, 1, 4.0)))); err != nil {
		t.Fatal(err)
	}
	if err := m.Propagate("hv"); err != nil {
		t.Fatal(err)
	}
	first, err := db.Bag(v.dtDel)
	if err != nil {
		t.Fatal(err)
	}
	if first.Empty() {
		t.Fatal("∇MV is empty; the test needs contents to protect")
	}
	want := first.Clone()
	ver := first.Version()

	mvExpr := m.baseExpr(v.MVTable())
	ca, err := m.compileExprs([]string{v.dtDel, "no_such_table"}, mvExpr, mvExpr)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.runCompiledAssigns(v, ca, nil); err == nil {
		t.Fatal("bundle with a missing target installed without error")
	}
	got, _ := db.Bag(v.dtDel)
	if got != first || got.Version() != ver || !got.Equal(want) {
		t.Fatalf("first target changed by a failed bundle: %v, want %v untouched", got, want)
	}
}
