package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// short returns a workload with short days, so the self-tests run in
// seconds; the load and the views are the real ones.
func short(t *testing.T, name string) spec {
	t.Helper()
	sp, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sp.dayBaskets = 100
	return sp
}

// workCounts runs one traced day and returns its count metrics.
func workCounts(t *testing.T, sp spec, seed int64) map[string]float64 {
	t.Helper()
	st, err := generate(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	p, err := runDays(st, 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	if p.gateErr != nil || p.failed != 0 {
		t.Fatalf("%s: gate %v, %d failed calls %v", sp.name, p.gateErr, p.failed, p.failedBy)
	}
	out := map[string]float64{}
	for _, m := range tr.perLayer() {
		if m.unit == "count" {
			out[m.name] = m.value
		}
	}
	return out
}

func TestWorkCountsRepeat(t *testing.T) {
	for _, s := range specs {
		sp := short(t, s.name)
		a, b := workCounts(t, sp, 7), workCounts(t, sp, 7)
		for name, v := range a {
			if b[name] != v {
				t.Errorf("%s: %s = %v then %v for the same seed", sp.name, name, v, b[name])
			}
		}
		for _, name := range []string{"core.propagate.log_tuples", "core.partial_refresh.diff_tuples", "core.partial_refresh.mv_tuples"} {
			if a[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", sp.name, name, a[name])
			}
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	sp := short(t, "fanout-sql")
	a, err := generate(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(sp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.days[0][0].sql == b.days[0][0].sql && a.days[1][0].sql == b.days[1][0].sql {
		t.Fatal("seeds 1 and 2 generated the same first baskets")
	}
	if a.days[0][0].sql == a.days[1][0].sql {
		t.Fatal("days 1 and 2 of one seed start with the same basket")
	}
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON checks that each workload prints exactly
// the metrics BENCHMARK.json names, with its units, and that the last
// line is the result object.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, s := range specs {
		have = append(have, s.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for _, name := range names {
		st, err := generate(short(t, name), 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			rep, err := measure(st, 3, options{trace: traced})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rep.print(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", name, err)
			}
			if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
				t.Fatalf("%s: result keys %v", name, res)
			}
			var got map[string]jsonMetric
			if err := json.Unmarshal(res["metrics"], &got); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", name, traced, len(got), len(want))
			}
			for _, m := range want {
				g, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not printed", name, traced, m.Name)
				case g.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s printed in %q, BENCHMARK.json says %q", name, traced, m.Name, g.Unit, m.Unit)
				}
			}
			if !rep.correct {
				t.Errorf("%s trace=%v: gate %s", name, traced, rep.gate)
			}
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := tail(xs); p != 90 || v != 90 {
		t.Fatalf("tail of 1..100 = p%g %g, want p90 90 (ten samples beyond)", p, v)
	}
	if p, v := tail(xs[:5]); p != 50 || v != 3 {
		t.Fatalf("tail of 1..5 = p%g %g, want the p50 fallback 3", p, v)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %g", got)
	}
}
