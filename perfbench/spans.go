package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed call the benchmark made into core or sql, or a
// group (setup, gate, or one basket) that parents such calls. All the
// calls of one basket share the basket's id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a group
	Name   string `json:"name"`
	Phase  string `json:"phase"` // setup, day or gate
	Day    int    `json:"day"`
	Basket int    `json:"basket"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
	Failed bool   `json:"failed,omitempty"`
	work
}

// tracer keeps spans in memory; write saves them when the run ends.
// A nil *tracer records nothing, so untraced runs call the same code.
type tracer struct {
	epoch  time.Time
	phase  string
	spans  []span
	group  int // index of the open group span, -1 if none
	day    int
	days   int
	basket int
	alloc  []metrics.Sample
}

const allocMetric = "/gc/heap/allocs:bytes"

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), group: -1, alloc: []metrics.Sample{{Name: allocMetric}}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) allocated() uint64 {
	metrics.Read(t.alloc)
	if t.alloc[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return t.alloc[0].Value.Uint64()
}

// startDay opens day d's set-up group.
func (t *tracer) startDay(d int) {
	if t == nil {
		return
	}
	t.day, t.days = d, d+1
	t.startGroup("setup", "setup", 0)
}

// enter sets the phase the next calls are counted in; the gate gets a
// group of its own.
func (t *tracer) enter(phase string) {
	if t == nil {
		return
	}
	if phase == "gate" {
		t.startGroup("gate", "gate", 0)
		return
	}
	t.phase, t.basket = phase, 0
}

// startGroup opens a group span; the calls begun after it are its
// children until the next group opens.
func (t *tracer) startGroup(name, phase string, basket int) {
	if t == nil {
		return
	}
	t.phase, t.basket = phase, basket
	now := t.now()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Name: name, Phase: phase, Day: t.day, Basket: basket, Start: now, End: now})
	t.group = len(t.spans) - 1
}

// begin opens a call span and returns its index (-1 when off). A call
// of a new basket opens that basket's group first.
func (t *tracer) begin(name string, basket int) int {
	if t == nil {
		return -1
	}
	if basket > 0 && basket != t.basket {
		t.startGroup("basket", t.phase, basket)
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: t.group, Name: name, Phase: t.phase, Day: t.day, Basket: basket})
	i := len(t.spans) - 1
	t.spans[i].Alloc = t.allocated()
	t.spans[i].Start = t.now()
	return i
}

// end closes span i and stretches its group to cover it.
func (t *tracer) end(i int, err error) {
	if t == nil || i < 0 {
		return
	}
	s := &t.spans[i]
	s.End = t.now()
	s.Alloc = t.allocated() - s.Alloc
	s.Failed = err != nil
	if s.Parent >= 0 {
		t.spans[s.Parent].End = s.End
	}
}

// setWork attaches a tuple count to the span closed last.
func (t *tracer) setWork(w work) {
	if t == nil || len(t.spans) == 0 {
		return
	}
	t.spans[len(t.spans)-1].work = w
}

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return "", err
	}
	return path, f.Close()
}

// layerStats aggregates the spans of one name. Counts are the first
// day's (every run starts with the same day, so they repeat exactly),
// or for the gate, which runs once after the last day, the gate's.
type layerStats struct {
	durs     []float64 // µs
	busy     time.Duration
	alloc    uint64
	calls    int
	calls0   int
	work0    work
	workAll  work
	workBusy time.Duration // time of the calls that carried work counts
}

// aggregate groups the call spans by name, each name over the phase
// phaseOf assigns it.
func (t *tracer) aggregate() map[string]*layerStats {
	out := map[string]*layerStats{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent < 0 || s.Phase != phaseOf(s.Name) {
			continue
		}
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		d := time.Duration(s.End - s.Start)
		ls.calls++
		ls.busy += d
		ls.durs = append(ls.durs, float64(d)/1e3)
		ls.alloc += s.Alloc
		if s.Day == 0 || s.Phase == "gate" {
			ls.calls0++
			ls.work0 = ls.work0.plus(s.work)
		}
		if s.work != (work{}) {
			ls.workAll = ls.workAll.plus(s.work)
			ls.workBusy += d
		}
	}
	return out
}

// coreOps and sqlKinds are the calls the per-layer table reports.
var (
	coreOps  = []string{"execute", "propagate", "partial_refresh", "refresh", "query", "query_fresh", "define_view"}
	sqlKinds = []string{"insert", "delete", "select", "propagate", "partial_refresh", "ddl"}
)

// phaseOf says which phase a layer's calls are counted in. The gate's
// SQL statements and the load's INSERTs are not counted as sql.*.
func phaseOf(name string) string {
	switch name {
	case "core.define_view", "sql.exec.ddl", "storage.load":
		return "setup"
	case "core.refresh":
		return "gate"
	}
	return "day"
}

// perLayer derives the per-layer metrics from the spans. Call and
// tuple counts are the first day's; busy times are per day, averaged
// over the traced days; latencies are over all calls.
func (t *tracer) perLayer() []metric {
	agg := t.aggregate()
	get := func(name string) *layerStats {
		if ls := agg[name]; ls != nil {
			return ls
		}
		return &layerStats{}
	}
	perDay := func(x float64) float64 { return x / float64(t.days) }
	var out []metric
	add := func(name, unit string, v float64, note string) {
		out = append(out, metric{name: name, unit: unit, value: v, note: note})
	}
	for _, op := range coreOps {
		ls := get("core." + op)
		p, tv := tail(ls.durs)
		add("core."+op+".calls", "count", float64(ls.calls0), "day 1 or the gate")
		if phaseOf("core."+op) == "gate" {
			add("core."+op+".busy_ms", "ms", ms(ls.busy), "in the gate")
		} else {
			add("core."+op+".busy_ms", "ms", perDay(ms(ls.busy)), "per day")
		}
		add("core."+op+".p50_us", "us", median(ls.durs), "")
		add("core."+op+".tail_us", "us", tv, tailNote(p, len(ls.durs)))
		add("core."+op+".alloc_kb_per_call", "KiB", ratio(float64(ls.alloc)/1024, float64(ls.calls)), "")
	}

	// Work counts come from core's propagate and partial refresh, called
	// directly or through a SQL maintenance statement.
	prop := sumWork(get("core.propagate"), get("sql.exec.propagate"))
	part := sumWork(get("core.partial_refresh"), get("sql.exec.partial_refresh"))
	add("core.propagate.log_tuples", "count", float64(prop.work0.LogTuples), "day 1")
	add("core.partial_refresh.diff_tuples", "count", float64(part.work0.DiffTuples), "day 1")
	add("core.partial_refresh.mv_tuples", "count", float64(part.work0.MVTuples), "day 1")
	add("core.partial_refresh.ns_per_diff_tuple", "ns", ratio(float64(part.workBusy), float64(part.workAll.DiffTuples)), "")
	add("core.partial_refresh.ns_per_mv_tuple", "ns", ratio(float64(part.workBusy), float64(part.workAll.MVTuples)), "")

	parse := get("sql.parse")
	add("sql.parse.calls", "count", float64(parse.calls0), "day 1")
	add("sql.parse.busy_ms", "ms", perDay(ms(parse.busy)), "per day")
	add("sql.parse.p50_us", "us", median(parse.durs), "")
	for _, k := range sqlKinds {
		ls := get("sql.exec." + k)
		add("sql.exec."+k+".calls", "count", float64(ls.calls0), "day 1")
		add("sql.exec."+k+".busy_ms", "ms", perDay(ms(ls.busy)), "per day")
		add("sql.exec."+k+".p50_us", "us", median(ls.durs), "")
	}
	add("storage.load_ms", "ms", perDay(ms(get("storage.load").busy)), "per day (one load a day)")
	return out
}

func sumWork(a, b *layerStats) layerStats {
	return layerStats{
		work0:    a.work0.plus(b.work0),
		workAll:  a.workAll.plus(b.workAll),
		workBusy: a.workBusy + b.workBusy,
	}
}

func (w work) plus(o work) work {
	return work{w.LogTuples + o.LogTuples, w.DiffTuples + o.DiffTuples, w.MVTuples + o.MVTuples}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func tailNote(p float64, n int) string {
	if n == 0 {
		return "no samples"
	}
	return fmt.Sprintf("p%g of %d samples", p, n)
}
