package core

import (
	"time"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/delta"
	"dvm/internal/obs/trace"
	"dvm/internal/storage"
)

// Compiled delta programs: every maintenance expression a view needs is
// fixed at DefineView time, so instead of re-interpreting the algebra
// DAG per transaction, the manager lowers each one ONCE through
// algebra.Compile into fused closures with pre-resolved columns,
// slot-cached DAG nodes, and version-validated join indexes that
// persist across evaluations (see internal/algebra/compile.go). These
// programs are the only evaluator of the Figure 3 transactions. The
// tree-walking interpreter (algebra.Eval) is the test oracle:
// CheckInvariant/CheckConsistent recompute Q and PAST(L,Q) with it from
// scratch, and the differential tests hold the compiled path to it.

// compiledAssign is one compiled simultaneous-assignment bundle, with
// state the reusable evaluation scratch (slot cache + join indexes). A
// state is reused only under the manager's single-writer discipline,
// never concurrently. In a replace bundle the program's roots are the
// assignment right-hand sides and tables the install targets in root
// order. An update bundle (compileUpdate) has one target and the two
// roots (del, add), installed in place as target := (target ∸ del) ⊎ add.
type compiledAssign struct {
	prog   *algebra.Program
	state  *algebra.State
	tables []string
	update bool
}

// compiledDelta holds every program compiled for one view. Fields are
// nil when the scenario has no such path.
type compiledDelta struct {
	// safe is the makesafe program Execute installs per transaction:
	// IM's MV update and DT's differential fold. BL/C views extend
	// their logs in place instead (appendToLogs).
	safe *compiledAssign
	// fold is propagate_C's fold of ▼(L,Q)/▲(L,Q) into ∇MV/△MV.
	fold *compiledAssign
	// refresh is refresh_BL's MV update from the log queries.
	refresh *compiledAssign
	// apply is refresh_DT / partial_refresh_C's MV update from the
	// differential tables.
	apply *compiledAssign
	// def recomputes Q from scratch (RefreshRecompute).
	def *compiledAssign
}

// compilePrograms lowers the view's precompiled incremental queries
// into compiled delta programs. Must run after compile(v) and the
// auxiliary tables exist; the time spent is recorded in
// delta_compile_ns.
func (m *Manager) compilePrograms(v *View) error {
	start := time.Now()
	cd := &compiledDelta{}
	var err error

	switch v.Scenario {
	case Immediate:
		// makesafe_IM: MV := (MV ∸ ∇(T,Q)) ⊎ △(T,Q).
		cd.safe, err = m.compileUpdate(v.mvName, v.imDel, v.imAdd)
	case BaseLogs:
		// refresh_BL: MV := (MV ∸ ▼(L,Q)) ⊎ ▲(L,Q).
		cd.refresh, err = m.compileUpdate(v.mvName, v.blDel, v.blAdd)
	case DiffTables:
		// makesafe_DT: fold ∇(T,Q)/△(T,Q) into the differential tables;
		// refresh_DT: MV := (MV ∸ ∇MV) ⊎ △MV.
		if cd.safe, err = m.compileFold(v, v.imDel, v.imAdd); err == nil {
			cd.apply, err = m.compileUpdate(v.mvName, m.baseExpr(v.dtDel), m.baseExpr(v.dtAdd))
		}
	case Combined:
		// propagate_C: fold ▼(L,Q)/▲(L,Q) into the differential tables;
		// partial_refresh_C: MV := (MV ∸ ∇MV) ⊎ △MV.
		if cd.fold, err = m.compileFold(v, v.blDel, v.blAdd); err == nil {
			cd.apply, err = m.compileUpdate(v.mvName, m.baseExpr(v.dtDel), m.baseExpr(v.dtAdd))
		}
	}
	if err != nil {
		return err
	}

	if cd.def, err = m.compileExprs([]string{v.mvName}, v.Def); err != nil {
		return err
	}

	v.cd = cd
	if v.met != nil {
		v.met.deltaCompileNs.Observe(int64(time.Since(start)))
	}
	return nil
}

// compileUpdate compiles target := (target ∸ del) ⊎ add as an update
// bundle: only del and add are compiled, and runCompiledAssigns applies
// them to the live target bag, so the install costs O(|del|+|add|)
// rather than O(|target|).
func (m *Manager) compileUpdate(target string, del, add algebra.Expr) (*compiledAssign, error) {
	ca, err := m.compileExprs([]string{target}, del, add)
	if err != nil {
		return nil, err
	}
	ca.update = true
	return ca, nil
}

// compileFold compiles the composition-lemma fold of (del, add) into
// the view's differential tables (makesafe_DT and propagate_C):
//
//	∇MV := ∇MV ⊎ (del ∸ △MV)
//	△MV := (△MV ∸ del) ⊎ add
//
// When the view uses strong minimality, the folded tables are
// additionally kept disjoint — the "strongly minimal analog of Lemma 3"
// the paper sketches in Section 5.3: tuples present in both ∇MV and △MV
// cancel, which preserves (MV ∸ ∇MV) ⊎ △MV because ∇MV ⊑ MV.
func (m *Manager) compileFold(v *View, del, add algebra.Expr) (*compiledAssign, error) {
	dtDel := m.baseExpr(v.dtDel)
	dtAdd := m.baseExpr(v.dtAdd)
	newDel, err := algebra.NewMonus(del, dtAdd) // del ∸ △MV
	if err != nil {
		return nil, err
	}
	delRHS, err := algebra.NewUnionAll(dtDel, newDel)
	if err != nil {
		return nil, err
	}
	addKeep, err := algebra.NewMonus(dtAdd, del) // △MV ∸ del
	if err != nil {
		return nil, err
	}
	addRHS, err := algebra.NewUnionAll(addKeep, add)
	if err != nil {
		return nil, err
	}
	var delOut, addOut algebra.Expr = delRHS, addRHS
	if v.StrongMinimal {
		if delOut, addOut, err = delta.StrengthenMinimality(delOut, addOut); err != nil {
			return nil, err
		}
	}
	return m.compileExprs([]string{v.dtDel, v.dtAdd}, delOut, addOut)
}

// compileExprs compiles roots into a program whose i-th root installs
// into tables[i].
func (m *Manager) compileExprs(tables []string, roots ...algebra.Expr) (*compiledAssign, error) {
	prog, err := algebra.Compile(roots...)
	if err != nil {
		return nil, err
	}
	return &compiledAssign{prog: prog, state: prog.NewState(), tables: tables}, nil
}

// evalCompiled runs one compiled program against the live database,
// recording compiled_eval_ns / index_probe_tuples and emitting the
// core.eval.compiled span under parent with its explicit duration.
func (m *Manager) evalCompiled(v *View, ca *compiledAssign, parent *trace.Span) ([]*bag.Bag, error) {
	start := time.Now()
	outs, stats, err := ca.prog.Eval(ca.state, m.db)
	dur := time.Since(start)
	if err != nil {
		return nil, err
	}
	probed := stats.IndexProbeTuples
	if v.met != nil {
		v.met.compiledEvalNs.Observe(int64(dur))
		v.met.indexProbeTuples.Add(probed)
	}
	sp := parent.StartChild(trace.SpanEvalCompiled,
		trace.Str("view", v.Name), trace.Int("index_probe_tuples", probed))
	sp.EndExplicit(dur)
	return outs, nil
}

// runCompiledAssigns evaluates a compiled assignment bundle and
// installs it. Simultaneous semantics hold because Program.Eval
// computes every root against the pre-state before anything is
// installed, and every target is looked up before the first install,
// so a failure leaves all targets untouched.
//
// An update bundle removes del from the live target bag and adds add
// to it. Monus clamps per tuple, so this equals (target ∸ del) ⊎ add
// exactly; the bag keeps its identity, so an index over it catches up
// through its journal (Index.Sync) and a reader's earlier Query copy is
// unaffected. A replace bundle swaps each root in as its table's bag.
func (m *Manager) runCompiledAssigns(v *View, ca *compiledAssign, parent *trace.Span) error {
	targets := make([]*storage.Table, len(ca.tables))
	for i, name := range ca.tables {
		tb, err := m.db.Table(name)
		if err != nil {
			return err
		}
		targets[i] = tb
	}
	outs, err := m.evalCompiled(v, ca, parent)
	if err != nil {
		return err
	}
	if ca.update {
		targets[0].Data().RemoveBag(outs[0]).AddBag(outs[1])
		return nil
	}
	for i, tb := range targets {
		tb.Replace(outs[i])
	}
	return nil
}
