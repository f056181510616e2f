// Command perfbench is the repository benchmark. It drives one named
// workload (retail-day, big-view or fanout-sql; see workload.go) through
// the engine in its default configuration, one goroutine, closed loop,
// and prints every end-to-end metric (-trace 0) or every per-layer
// metric (-trace 1) by name and unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// From the repository root:
//
//	bash perfbench/run.sh --workload retail-day --seed 1 --seconds 25 --trace 0
//
// Everything a run replays is generated from -seed before anything is
// timed: one initial load and 16 day streams, each drawn by its own
// workload generator. A run replays whole days, day i from stream i mod
// 16, until -seconds of timed phase have passed. Every day starts from
// a freshly loaded database; the load and the view definitions are
// timed as setup_s, outside the timed phase. After the last day a
// correctness gate refreshes every view and checks it against a
// from-scratch evaluation; a failed gate prints correct=false and
// exits 1.
//
// With -trace 1 the first half of the time runs untraced and the second
// half records a span around every call the benchmark makes into the
// public functions of core and sql; the per-layer metrics come from
// those spans, the tracing overhead from comparing the two halves. The
// spans are written as JSON lines under .bench_build/perfbench-spans
// when the run ends.
//
// Seed 1 is the default; seed 1017 is held out, to check a claim on a
// seed it was not tuned on. The self-tests (cd perfbench && go test)
// check that tuple counts repeat for a seed and that the printed
// metrics match BENCHMARK.json one to one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

const (
	defaultSeed = 1
	heldOutSeed = 1017
	// minSetups is the fewest set-ups setup_s is the median of.
	minSetups = 3
	// spanDir is where a traced run writes its spans, under the
	// directory perfbench/run.sh builds in.
	spanDir = ".bench_build/perfbench-spans"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one printed figure; note says how it was read.
type metric struct {
	name, unit string
	value      float64
	note       string
}

type options struct {
	budget  time.Duration // timed phase
	trace   bool
	spanDir string // "" writes no span file
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "retail-day", "workload: retail-day, big-view or fanout-sql")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("stream seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 25, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	sp, err := specByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	st, err := generate(sp, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	opts := options{budget: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, spanDir: spanDir}
	rep, err := measure(st, *seed, opts)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct {
		return 1
	}
	return 0
}

// phase is what a run of whole days measured.
type phase struct {
	days      int
	timed     time.Duration
	setups    []float64 // seconds
	lat       [4][]float64
	downtime  []float64 // µs
	dayHeap   []float64 // MiB live after each day
	maint     time.Duration
	attempted int
	failed    int
	failedBy  map[string]int
	gcCycles  uint64
	allocB    uint64
	mvTuples  int
	gateTime  time.Duration
	gateErr   error
}

func (p *phase) txns() int { return len(p.lat[classTxn]) }

func (p *phase) txnPerS() float64 { return float64(p.txns()) / p.timed.Seconds() }

// runDays replays whole days until budget of timed phase has passed,
// then runs the correctness gate on the last day's database.
func runDays(st *stream, budget time.Duration, tr *tracer) (*phase, error) {
	p := &phase{failedBy: map[string]int{}}
	rt := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: allocMetric}}
	for p.days == 0 || p.timed < budget {
		runtime.GC()
		tr.startDay(p.days)
		t0 := time.Now()
		in, err := st.setup(tr)
		p.setups = append(p.setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if p.days == 0 {
			for _, v := range st.views {
				p.mvTuples += in.size("__mv_" + v)
			}
		}
		runtime.GC()
		tr.enter("day")
		metrics.Read(rt)
		gc0, alloc0 := rt[0].Value.Uint64(), rt[1].Value.Uint64()
		day := st.days[p.days%len(st.days)]
		d0 := time.Now()
		for i := range day {
			s := &day[i]
			t := time.Now()
			err := in.run(tr, s)
			el := time.Since(t)
			p.attempted++
			if err != nil {
				p.failed++
				p.failedBy[s.layer()]++
				continue
			}
			us := float64(el) / 1e3
			p.lat[s.class] = append(p.lat[s.class], us)
			if s.class == classMaint {
				p.maint += el
			}
			if s.downtime {
				p.downtime = append(p.downtime, us)
			}
		}
		p.timed += time.Since(d0)
		metrics.Read(rt)
		p.gcCycles += rt[0].Value.Uint64() - gc0
		p.allocB += rt[1].Value.Uint64() - alloc0
		p.days++
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.dayHeap = append(p.dayHeap, float64(ms.HeapAlloc)/(1<<20))

		if p.timed < budget {
			continue
		}
		tr.enter("gate")
		g0 := time.Now()
		err = st.gate(tr, in)
		p.gateTime = time.Since(g0)
		if err != nil {
			p.gateErr = fmt.Errorf("after day %d: %w", p.days, err)
			return p, nil
		}
	}
	for len(p.setups) < minSetups {
		runtime.GC()
		t0 := time.Now()
		if _, err := st.setup(nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}
	return p, nil
}

// report is one run's result.
type report struct {
	workload  string
	trace     bool
	env       map[string]any
	metrics   []metric
	correct   bool
	attempted int
	failed    int
	failedBy  map[string]int
	summary   string
	gate      string
	spanFile  string
}

func measure(st *stream, seed int64, opts options) (*report, error) {
	rep := &report{workload: st.spec.name, trace: opts.trace, failedBy: map[string]int{}}
	var phases []*phase
	if !opts.trace {
		p, err := runDays(st, opts.budget, nil)
		if err != nil {
			return nil, err
		}
		phases = []*phase{p}
		rep.metrics = endToEnd(p)
		rep.summary = fmt.Sprintf("%d days, %.2fs timed, gate %.2fs", p.days, p.timed.Seconds(), p.gateTime.Seconds())
	} else {
		plain, err := runDays(st, opts.budget/2, nil)
		if err != nil {
			return nil, err
		}
		phases = []*phase{plain}
		if plain.gateErr == nil {
			tr := newTracer()
			traced, err := runDays(st, opts.budget/2, tr)
			if err != nil {
				return nil, err
			}
			phases = append(phases, traced)
			rep.metrics = perLayer(tr, plain, traced)
			rep.summary = fmt.Sprintf("untraced %d days, %.2fs timed; traced %d days, %.2fs timed",
				plain.days, plain.timed.Seconds(), traced.days, traced.timed.Seconds())
			if opts.spanDir != "" {
				path, err := tr.write(opts.spanDir, fmt.Sprintf("%s-seed%d.jsonl", st.spec.name, seed))
				if err != nil {
					return nil, fmt.Errorf("write spans: %w", err)
				}
				rep.spanFile = path
			}
		}
	}
	rep.correct = true
	rep.gate = "every view refreshed and checked after the last day"
	for _, p := range phases {
		rep.attempted += p.attempted
		rep.failed += p.failed
		for k, n := range p.failedBy {
			rep.failedBy[k] += n
		}
		if p.gateErr != nil {
			rep.correct = false
			rep.gate = "FAILED: " + p.gateErr.Error()
			if len(rep.gate) > 400 {
				rep.gate = rep.gate[:400] + "..."
			}
		}
	}
	if rep.metrics == nil {
		rep.metrics = []metric{}
	}
	rep.env = stamp(st, seed, phases[0].mvTuples)
	return rep, nil
}

// endToEnd reads the user-visible metrics off an untraced run. The
// live heap is the mean day's: a map caught mid-growth keeps its old
// buckets live, so single days read high or low.
func endToEnd(p *phase) []metric {
	return []metric{
		{"setup_s", "s", median(p.setups), fmt.Sprintf("median of %d set-ups", len(p.setups))},
		{"txn_per_s", "1/s", p.txnPerS(), fmt.Sprintf("%d commits", p.txns())},
		{"txn_p50_us", "us", median(p.lat[classTxn]), ""},
		{"downtime_p50_us", "us", median(p.downtime), fmt.Sprintf("%d refreshes", len(p.downtime))},
		{"maint_us_per_txn", "us", ratio(float64(p.maint)/1e3, float64(p.txns())), ""},
		{"read_p50_us", "us", median(p.lat[classRead]), fmt.Sprintf("%d reads", len(p.lat[classRead]))},
		{"heap_mb", "MiB", mean(p.dayHeap), fmt.Sprintf("mean of %d days, live heap after a forced GC", p.days)},
	}
}

// tails are the highest percentiles with ten samples beyond them of
// commits, downtime and reads. Across ten seeds their spread reaches
// 0.16 to 0.5 of their median, over a tenth, so they are reported with
// the per-layer metrics.
func tails(p *phase) []metric {
	tp, tv := tail(p.lat[classTxn])
	dp, dv := tail(p.downtime)
	rp, rv := tail(p.lat[classRead])
	return []metric{
		{"txn_tail_us", "us", tv, tailNote(tp, p.txns()) + ", untraced half"},
		{"downtime_tail_us", "us", dv, tailNote(dp, len(p.downtime)) + ", untraced half"},
		{"read_tail_us", "us", rv, tailNote(rp, len(p.lat[classRead])) + ", untraced half"},
	}
}

// perLayer combines the traced half's spans with the untraced half's
// runtime counts and the overhead between the two.
func perLayer(tr *tracer, plain, traced *phase) []metric {
	out := tr.perLayer()
	days := float64(plain.days)
	attempted := plain.attempted + traced.attempted
	out = append(out,
		metric{"runtime.gc_cycles", "count", float64(plain.gcCycles) / days, "per day, untraced half"},
		metric{"runtime.alloc_mb", "MiB", float64(plain.allocB) / (1 << 20) / days, "per day, untraced half"},
		metric{"fresh_read_p50_us", "us", median(plain.lat[classFresh]), "QueryFresh slices, untraced half"},
		metric{"failed_frac", "frac", ratio(float64(plain.failed+traced.failed), float64(attempted)), ""},
		metric{"trace.overhead_pct", "%", (ratio(plain.txnPerS(), traced.txnPerS()) - 1) * 100,
			fmt.Sprintf("txn_per_s untraced %.1f, traced %.1f", plain.txnPerS(), traced.txnPerS())},
	)
	return append(out, tails(plain)...)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report, then the JSON result as the
// last line.
func (r *report) print(w io.Writer) error {
	env, err := json.Marshal(r.env)
	if err != nil {
		return err
	}
	kind := "end-to-end"
	if r.trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "perfbench %s: %s metrics\n", r.workload, kind)
	fmt.Fprintf(w, "env %s\n", env)
	fmt.Fprintf(w, "run %s\n", r.summary)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-40s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	fmt.Fprintf(w, "failed %d of %d attempted (failed_frac %g)", r.failed, r.attempted, ratio(float64(r.failed), float64(r.attempted)))
	for _, k := range sortedKeys(r.failedBy) {
		fmt.Fprintf(w, " %s=%d", k, r.failedBy[k])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "gate %s\n", r.gate)
	if r.spanFile != "" {
		fmt.Fprintf(w, "spans %s\n", r.spanFile)
	}
	res := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
