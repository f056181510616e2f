package core

import (
	"time"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/obs/trace"
	"dvm/internal/txn"
)

// Compiled delta programs: every maintenance expression a view needs is
// fixed at DefineView time, so instead of re-interpreting the algebra
// DAG per transaction, the manager lowers each one ONCE through
// algebra.Compile into fused closures with pre-resolved columns,
// slot-cached DAG nodes, and version-validated join indexes that
// persist across evaluations (see internal/algebra/compile.go). The
// tree-walking interpreter stays available — WithInterpretedDeltas
// switches every path back to it — and serves as the differential-
// testing oracle the compiled engine is checked against.

// compiledAssign is one compiled simultaneous-assignment bundle: the
// program's roots are the assignment right-hand sides, tables the
// install targets in root order, and state the reusable evaluation
// scratch (slot cache + join indexes). A state is reused only under the
// manager's single-writer discipline, never concurrently.
type compiledAssign struct {
	prog   *algebra.Program
	state  *algebra.State
	tables []string
}

// compiledDelta holds every program compiled for one view. Fields are
// nil when the scenario has no such path.
type compiledDelta struct {
	// safe is the makesafe program Execute installs per transaction:
	// the compiled twin of View.safeAssigns (IM's MV update, DT's
	// differential fold, BL/C's algebraic log merge for the
	// slow-append mode).
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

// WithInterpretedDeltas makes the manager evaluate every maintenance
// expression with the tree-walking interpreter instead of compiled
// delta programs. The two engines are differentially tested to agree;
// the flag exists for that cross-check, for ablation benchmarks (E16),
// and as an escape hatch.
func WithInterpretedDeltas() ManagerOption {
	return func(m *Manager) { m.interpretDeltas = true }
}

// compilePrograms lowers the view's precompiled incremental queries
// into compiled delta programs (no-op under WithInterpretedDeltas).
// Must run after compile(v) and the auxiliary tables exist; the time
// spent is recorded in delta_compile_ns.
func (m *Manager) compilePrograms(v *View) error {
	if m.interpretDeltas {
		return nil
	}
	start := time.Now()
	cd := &compiledDelta{}

	if len(v.safeAssigns) > 0 {
		ca, err := m.compileAssigns(v.safeAssigns)
		if err != nil {
			return err
		}
		cd.safe = ca
	}

	switch v.Scenario {
	case BaseLogs:
		upd, err := applyDelta(m.baseExpr(v.mvName), v.blDel, v.blAdd)
		if err != nil {
			return err
		}
		if cd.refresh, err = m.compileExprs([]string{v.mvName}, upd); err != nil {
			return err
		}
	case DiffTables:
		upd, err := applyDelta(m.baseExpr(v.mvName), m.baseExpr(v.dtDel), m.baseExpr(v.dtAdd))
		if err != nil {
			return err
		}
		if cd.apply, err = m.compileExprs([]string{v.mvName}, upd); err != nil {
			return err
		}
	case Combined:
		fold, err := m.foldAssigns(v, v.blDel, v.blAdd)
		if err != nil {
			return err
		}
		if cd.fold, err = m.compileAssigns(fold); err != nil {
			return err
		}
		upd, err := applyDelta(m.baseExpr(v.mvName), m.baseExpr(v.dtDel), m.baseExpr(v.dtAdd))
		if err != nil {
			return err
		}
		if cd.apply, err = m.compileExprs([]string{v.mvName}, upd); err != nil {
			return err
		}
	}

	def, err := m.compileExprs([]string{v.mvName}, v.Def)
	if err != nil {
		return err
	}
	cd.def = def

	v.cd = cd
	if v.met != nil {
		v.met.deltaCompileNs.Observe(int64(time.Since(start)))
	}
	return nil
}

// compileAssigns compiles the right-hand sides of a simultaneous
// assignment bundle as one DAG (they share subexpressions the same way
// the interpreter's shared memo exploits).
func (m *Manager) compileAssigns(assigns []txn.Assignment) (*compiledAssign, error) {
	tables := make([]string, len(assigns))
	exprs := make([]algebra.Expr, len(assigns))
	for i, a := range assigns {
		tables[i] = a.Table
		exprs[i] = a.Expr
	}
	return m.compileExprs(tables, exprs...)
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
// installs each root into its target table. Simultaneous semantics
// hold because Program.Eval computes every root against the pre-state
// before anything is installed.
func (m *Manager) runCompiledAssigns(v *View, ca *compiledAssign, parent *trace.Span) error {
	outs, err := m.evalCompiled(v, ca, parent)
	if err != nil {
		return err
	}
	for i, name := range ca.tables {
		tb, err := m.db.Table(name)
		if err != nil {
			return err
		}
		tb.Replace(outs[i])
	}
	return nil
}

// applyCompiledSafe is Execute's compiled makesafe step for one view:
// the compiled twin of appending View.safeAssigns to the transaction's
// assignment bundle. Cross-view staging is unnecessary — no view's
// right-hand sides read another view's targets (auxiliary tables are
// internal, and views may only reference external tables) — so the
// per-view evaluate-then-install preserves the simultaneous (T1+T2)
// semantics.
func (m *Manager) applyCompiledSafe(v *View, parent *trace.Span) error {
	return m.runCompiledAssigns(v, v.cd.safe, parent)
}
