package dvm_test

import (
	"testing"

	"dvm/internal/obs/trace"
)

// TestTracePolicy1RetailDay is the tracing subsystem's end-to-end
// acceptance: a Policy 1 retail day (hourly Execute + Propagate, one
// closing Refresh) run with sampling on must yield
//
//  1. exactly one trace tree per maintenance transaction, with the
//     makesafe/propagate/refresh spans parented the way
//     docs/observability.md's taxonomy says;
//  2. per-trace exclusive time that reconciles *exactly* with the
//     view_downtime_ns histogram — both read the same clock sample
//     (internal/core/refresh.go, startDowntimeSpan), so the sums are
//     equal, not merely close;
//  3. a Chrome trace-event export that round-trips through the
//     in-repo parser.
func TestTracePolicy1RetailDay(t *testing.T) {
	const (
		hoursPerDay  = 24
		salesPerHour = 40
	)
	mgr, w := setupRetailDay(t)
	mgr.Tracer().SampleAll()

	for hour := 0; hour < hoursPerDay; hour++ {
		if err := mgr.Execute(w.SalesBatch(salesPerHour)); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Propagate("hv"); err != nil {
			t.Fatal(err)
		}
	}
	v, err := mgr.View("hv")
	if err != nil {
		t.Fatal(err)
	}
	mvBefore, err := mgr.DB().Bag(v.MVTable())
	if err != nil {
		t.Fatal(err)
	}
	wantMV := int64(mvBefore.Len())
	if err := mgr.Refresh("hv"); err != nil {
		t.Fatal(err)
	}

	// (1) One trace per maintenance transaction.
	const wantTraces = 2*hoursPerDay + 1
	traces := mgr.Tracer().Last(wantTraces + 1)
	if len(traces) != wantTraces {
		t.Fatalf("captured %d traces, want %d (one per Execute/Propagate/Refresh)", len(traces), wantTraces)
	}
	byRoot := map[string]int{}
	for _, tr := range traces {
		byRoot[tr.Root.Name]++
	}
	if byRoot[trace.SpanExecute] != hoursPerDay ||
		byRoot[trace.SpanPropagate] != hoursPerDay ||
		byRoot[trace.SpanRefresh] != 1 {
		t.Fatalf("root span census %v, want %d %s, %d %s, 1 %s",
			byRoot, hoursPerDay, trace.SpanExecute, hoursPerDay, trace.SpanPropagate, trace.SpanRefresh)
	}

	// Parenting: every execute tree holds the view's makesafe span and
	// the apply span as direct children.
	for _, tr := range traces {
		if tr.Root.Name != trace.SpanExecute {
			continue
		}
		if childNamed(tr.Root, trace.SpanMakesafe) == nil {
			t.Fatalf("execute trace #%d has no %s child", tr.ID, trace.SpanMakesafe)
		}
		if childNamed(tr.Root, trace.SpanApply) == nil {
			t.Fatalf("execute trace #%d has no %s child", tr.ID, trace.SpanApply)
		}
	}
	// Parenting: the refresh tree nests lock wait/hold under the root
	// and the exclusive apply section under the hold.
	refresh := traceWithRoot(t, traces, trace.SpanRefresh)
	if childNamed(refresh.Root, trace.SpanLockWait) == nil {
		t.Fatalf("refresh trace has no %s child", trace.SpanLockWait)
	}
	hold := childNamed(refresh.Root, trace.SpanLockHold)
	if hold == nil {
		t.Fatalf("refresh trace has no %s child", trace.SpanLockHold)
	}
	apply := childNamed(hold, trace.SpanRefreshApply)
	if apply == nil {
		t.Fatalf("%s has no %s child — the downtime section is not nested under the lock hold", trace.SpanLockHold, trace.SpanRefreshApply)
	}
	if !apply.Exclusive {
		t.Fatalf("%s span is not marked exclusive", trace.SpanRefreshApply)
	}
	if got, ok := intAttr(apply, "mv_tuples"); !ok || got != wantMV {
		t.Fatalf("%s mv_tuples = %d (present %v), want |MV| before the refresh = %d", trace.SpanRefreshApply, got, ok, wantMV)
	}
	// Every compiled evaluation of the refresh — propagate_C's fold and
	// partial_refresh_C's apply — runs inside the downtime section, so
	// its span must hang directly under the exclusive apply span.
	evals := 0
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		for _, c := range s.Children {
			if c.Name == trace.SpanEvalCompiled {
				evals++
				if s.Name != trace.SpanRefreshApply {
					t.Errorf("%s span parented under %s, want %s", trace.SpanEvalCompiled, s.Name, trace.SpanRefreshApply)
				}
			}
			walk(c)
		}
	}
	walk(refresh.Root)
	if evals == 0 {
		t.Fatalf("refresh trace has no %s span", trace.SpanEvalCompiled)
	}

	// (2) The traces' exclusive sections ARE the downtime histogram.
	var exclusive int64
	for _, tr := range traces {
		exclusive += tr.ExclusiveNs
	}
	m, ok := mgr.Obs().Snapshot().Get("view_downtime_ns", "hv")
	if !ok {
		t.Fatal("view_downtime_ns{hv} not recorded")
	}
	if exclusive != m.Sum {
		t.Fatalf("sum of exclusive spans %dns != view_downtime_ns sum %dns — trace and histogram disagree about downtime", exclusive, m.Sum)
	}
	if exclusive == 0 {
		t.Fatal("refresh recorded zero exclusive time; the downtime span never fired")
	}

	// (3) Chrome export round-trips through the in-repo parser.
	data, err := trace.ChromeJSON(traces)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseChrome(data)
	if err != nil {
		t.Fatalf("exported Chrome trace fails validation: %v", err)
	}
	lanes := map[int64]bool{}
	for _, ev := range events {
		lanes[ev.Tid] = true
	}
	if len(lanes) != wantTraces {
		t.Fatalf("Chrome export has %d tid lanes, want %d (one per transaction)", len(lanes), wantTraces)
	}
}

// childNamed returns the first direct child of s with the given span
// name, or nil.
func childNamed(s *trace.Span, name string) *trace.Span {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// traceWithRoot returns the first trace whose root span has the given
// name, failing the test if none exists.
func traceWithRoot(t *testing.T, traces []*trace.Trace, name string) *trace.Trace {
	t.Helper()
	for _, tr := range traces {
		if tr.Root.Name == name {
			return tr
		}
	}
	t.Fatalf("no trace with root %s", name)
	return nil
}

// intAttr returns the integer attribute key of s, if present.
func intAttr(s *trace.Span, key string) (int64, bool) {
	for _, a := range s.Attrs {
		if a.Key == key && a.IsInt {
			return a.I, true
		}
	}
	return 0, false
}
