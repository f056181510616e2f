package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"dvm/internal/algebra"
	"dvm/internal/core"
	"dvm/internal/schema"
	"dvm/internal/sql"
	"dvm/internal/storage"
	"dvm/internal/txn"
	"dvm/internal/workload"
)

// spec is one named workload: the data it loads, the views it defines,
// and how often each operation recurs in the basket stream. Every
// period counts baskets; 0 disables the operation.
type spec struct {
	name         string
	customers    int
	highFraction float64
	sales        int
	items        int
	zipfS        float64

	// dayBaskets is the length of one day. A run replays whole days,
	// each from a freshly loaded database, so the state a faster
	// engine reaches is no larger than a slower one's.
	dayBaskets int

	flipEvery      int // ScoreFlip transaction
	propagateEvery int // Propagate every view
	partialEvery   int // PartialRefresh every view (Policy 2)
	freshEvery     int // QueryFresh slice of the basket's customer
	queryEvery     int // full Query of the view
	selectEvery    int // point SELECT on one view (SQL workloads)

	// sqlViews > 0 drives the day through sql.Engine with that many
	// Combined views, each over an equal share of the item range;
	// otherwise one Combined view is driven through core.Manager.
	sqlViews int
}

var specs = []spec{
	{
		name: "retail-day", customers: 2000, highFraction: 0.2, sales: 20000, items: 500, zipfS: 1.2,
		dayBaskets: 400, flipEvery: 40, propagateEvery: 1, partialEvery: 50, freshEvery: 10, queryEvery: 100,
	},
	{
		name: "big-view", customers: 2000, highFraction: 0.8, sales: 100000, items: 500, zipfS: 1.2,
		dayBaskets: 200, flipEvery: 40, propagateEvery: 1, partialEvery: 5, queryEvery: 50,
	},
	{
		name: "fanout-sql", customers: 2000, highFraction: 0.2, sales: 20000, items: 500, zipfS: 1.2,
		dayBaskets: 500, flipEvery: 40, propagateEvery: 25, partialEvery: 100, selectEvery: 1,
		sqlViews: 16,
	},
}

func specByName(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// class is the end-to-end bucket a step's latency is reported in.
type class uint8

const (
	classTxn class = iota
	classMaint
	classRead
	classFresh
)

// stepKind says which public call a step makes.
type stepKind uint8

const (
	kExecute stepKind = iota
	kPropagate
	kPartial
	kQuery
	kFresh
	kSQL
)

// step is one pre-generated call of the timed phase.
type step struct {
	kind     stepKind
	class    class
	basket   int
	view     string
	t        txn.Txn
	pred     algebra.Predicate
	sql      string
	sqlKind  string // insert, delete, select, propagate, partial_refresh
	downtime bool   // a refresh: readers are locked out for most of it
}

// layer names the span a step's call is recorded under.
func (s *step) layer() string {
	switch s.kind {
	case kExecute:
		return "core.execute"
	case kPropagate:
		return "core.propagate"
	case kPartial:
		return "core.partial_refresh"
	case kQuery:
		return "core.query"
	case kFresh:
		return "core.query_fresh"
	}
	return "sql.exec." + s.sqlKind
}

// stream is everything a run replays, generated from the seed before
// any timing starts: one initial load and cycleDays day streams.
type stream struct {
	spec      spec
	customers []schema.Tuple
	sales     []schema.Tuple
	custSch   *schema.Schema
	salesSch  *schema.Schema
	views     []string
	viewDefs  []algebra.Expr // core workloads
	ddlSQL    []string       // SQL workloads: CREATE TABLE
	loadSQL   []string       // SQL workloads: the initial load
	viewSQL   []string       // SQL workloads: CREATE MATERIALIZED VIEW
	oracleSQL []string       // SQL workloads: each view's query over the base tables
	days      [][]step       // cycleDays day streams; run day i replays days[i%cycleDays]
}

// cycleDays is the number of distinct day streams a run cycles
// through. Each day draws its own baskets, flips and reads, so a run
// averages over many independent days rather than one.
const cycleDays = 16

// newGen returns the workload generator for one seed.
func newGen(sp spec, seed int64, sales int) *workload.Retail {
	return workload.NewRetail(workload.RetailConfig{
		Customers: sp.customers, HighFraction: sp.highFraction, InitialSales: sales,
		Items: sp.items, ZipfS: sp.zipfS, Seed: seed,
	})
}

// generate builds the load and the day streams from the seed.
func generate(sp spec, seed int64) (*stream, error) {
	gen := newGen(sp, seed, sp.sales)
	scratch := storage.NewDatabase()
	if err := gen.Setup(scratch); err != nil {
		return nil, fmt.Errorf("generate load: %w", err)
	}
	st := &stream{spec: sp, custSch: gen.CustomerSchema(), salesSch: gen.SalesSchema()}
	var err error
	if st.customers, err = rows(scratch, "customer"); err != nil {
		return nil, err
	}
	if st.sales, err = rows(scratch, "sales"); err != nil {
		return nil, err
	}

	if sp.sqlViews > 0 {
		st.buildSQLSetup()
	} else {
		def, err := gen.ViewDef()
		if err != nil {
			return nil, err
		}
		st.views, st.viewDefs = []string{"v"}, []algebra.Expr{def}
	}

	daySeeds := rand.New(rand.NewSource(seed))
	for d := 0; d < cycleDays; d++ {
		day, err := st.genDay(daySeeds.Int63())
		if err != nil {
			return nil, err
		}
		st.days = append(st.days, day)
	}
	return st, nil
}

// genDay draws one day's steps. Every day starts from the same load,
// and the customer scores the generator's Setup assigns do not depend
// on the seed, so a generator without initial sales draws valid flips.
func (st *stream) genDay(seed int64) ([]step, error) {
	sp := st.spec
	gen := newGen(sp, seed, 0)
	if err := gen.Setup(storage.NewDatabase()); err != nil {
		return nil, fmt.Errorf("generate day: %w", err)
	}
	var day []step
	for b := 1; b <= sp.dayBaskets; b++ {
		basket := gen.Basket(3, 8, 0.15)
		cust := basket["sales"].Insert.Tuples()[0][0]
		day = st.addTxn(day, b, basket)
		if every(b, sp.flipEvery) {
			flip, err := gen.ScoreFlip()
			if err != nil {
				return nil, err
			}
			day = st.addTxn(day, b, flip)
		}
		if every(b, sp.selectEvery) {
			v := st.views[b%len(st.views)]
			day = append(day, step{kind: kSQL, class: classRead, basket: b, sqlKind: "select",
				sql: fmt.Sprintf("SELECT * FROM %s WHERE custId = %s", v, literal(cust))})
		}
		if every(b, sp.propagateEvery) {
			day = st.addMaint(day, b, kPropagate, "propagate", "PROPAGATE", false)
		}
		if every(b, sp.partialEvery) {
			day = st.addMaint(day, b, kPartial, "partial_refresh", "PARTIAL REFRESH", true)
		}
		if every(b, sp.freshEvery) {
			day = append(day, step{kind: kFresh, class: classFresh, basket: b, view: st.views[0],
				pred: algebra.Eq(algebra.A("custId"), algebra.Const{Value: cust})})
		}
		if every(b, sp.queryEvery) {
			day = append(day, step{kind: kQuery, class: classRead, basket: b, view: st.views[0]})
		}
	}
	return day, nil
}

func every(b, period int) bool { return period > 0 && b%period == 0 }

// rows lists a table's tuples (with multiplicity) in a fixed order.
func rows(db *storage.Database, table string) ([]schema.Tuple, error) {
	b, err := db.Bag(table)
	if err != nil {
		return nil, err
	}
	var out []schema.Tuple
	b.EachOrdered(func(t schema.Tuple, n int) {
		for i := 0; i < n; i++ {
			out = append(out, t)
		}
	})
	return out, nil
}

// addTxn appends a user transaction: one Execute on core workloads; on
// SQL workloads, per table, a DELETE matching each deleted row in full
// followed by one multi-row INSERT.
func (st *stream) addTxn(day []step, b int, t txn.Txn) []step {
	if st.spec.sqlViews == 0 {
		return append(day, step{kind: kExecute, class: classTxn, basket: b, t: t})
	}
	for _, table := range []string{"customer", "sales"} {
		u, ok := t[table]
		if !ok {
			continue
		}
		sch := st.salesSch
		if table == "customer" {
			sch = st.custSch
		}
		if u.Delete != nil {
			u.Delete.EachOrdered(func(tu schema.Tuple, _ int) {
				day = append(day, step{kind: kSQL, class: classTxn, basket: b, sqlKind: "delete",
					sql: fmt.Sprintf("DELETE FROM %s WHERE %s", table, matchRow(sch, tu))})
			})
		}
		if u.Insert != nil && !u.Insert.Empty() {
			var ins []schema.Tuple
			u.Insert.EachOrdered(func(tu schema.Tuple, n int) {
				for i := 0; i < n; i++ {
					ins = append(ins, tu)
				}
			})
			day = append(day, step{kind: kSQL, class: classTxn, basket: b, sqlKind: "insert",
				sql: insertSQL(table, ins)})
		}
	}
	return day
}

// addMaint appends one maintenance call per view.
func (st *stream) addMaint(day []step, b int, k stepKind, sqlKind, verb string, downtime bool) []step {
	for _, v := range st.views {
		s := step{kind: k, class: classMaint, basket: b, view: v, downtime: downtime}
		if st.spec.sqlViews > 0 {
			s.kind, s.sqlKind, s.sql = kSQL, sqlKind, verb+" "+v
		}
		day = append(day, s)
	}
	return day
}

const viewSelect = "SELECT c.custId, c.name, c.score, s.itemNo, s.quantity FROM customer c, sales s " +
	"WHERE c.custId = s.custId AND s.quantity != 0 AND c.score = 'High'"

// loadChunk is the number of rows per INSERT statement of the load.
const loadChunk = 500

// buildSQLSetup writes the DDL, the load and the view definitions of a
// SQL workload; view i covers items [i*items/n, (i+1)*items/n).
func (st *stream) buildSQLSetup() {
	sp := st.spec
	st.ddlSQL = []string{
		"CREATE TABLE customer (custId INT, name STRING, address STRING, score STRING)",
		"CREATE TABLE sales (custId INT, itemNo INT, quantity INT, salesPrice FLOAT)",
	}
	for _, load := range []struct {
		table string
		rows  []schema.Tuple
	}{{"customer", st.customers}, {"sales", st.sales}} {
		for i := 0; i < len(load.rows); i += loadChunk {
			j := min(i+loadChunk, len(load.rows))
			st.loadSQL = append(st.loadSQL, insertSQL(load.table, load.rows[i:j]))
		}
	}
	for i := 0; i < sp.sqlViews; i++ {
		lo, hi := i*sp.items/sp.sqlViews, (i+1)*sp.items/sp.sqlViews
		q := fmt.Sprintf("%s AND s.itemNo >= %d AND s.itemNo < %d", viewSelect, lo, hi)
		name := fmt.Sprintf("v%d", i)
		st.views = append(st.views, name)
		st.oracleSQL = append(st.oracleSQL, q)
		st.viewSQL = append(st.viewSQL, fmt.Sprintf("CREATE MATERIALIZED VIEW %s REFRESH DEFERRED COMBINED AS %s", name, q))
	}
}

func insertSQL(table string, rs []schema.Tuple) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(table)
	sb.WriteString(" VALUES ")
	for i, r := range rs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		for j, v := range r {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(literal(v))
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// matchRow is a WHERE clause matching exactly the rows equal to tu.
func matchRow(sch *schema.Schema, tu schema.Tuple) string {
	conds := make([]string, len(tu))
	for i, c := range sch.Columns() {
		name := c.Name
		if k := strings.IndexByte(name, '.'); k >= 0 {
			name = name[k+1:]
		}
		conds[i] = name + " = " + literal(tu[i])
	}
	return strings.Join(conds, " AND ")
}

// literal renders a value so the SQL parser reads back the same value.
func literal(v schema.Value) string {
	switch v.Type() {
	case schema.TString:
		return "'" + v.AsString() + "'"
	case schema.TFloat:
		s := strconv.FormatFloat(v.AsFloat(), 'f', -1, 64)
		if !strings.ContainsRune(s, '.') {
			s += ".0"
		}
		return s
	}
	return v.String()
}

// instance is one day's engine: a freshly loaded database with the
// workload's views defined.
type instance struct {
	m   *core.Manager
	eng *sql.Engine // SQL workloads only
}

// setup loads the tables and defines the views in a fresh database,
// recording the load and every define call as spans of tr (nil: off).
func (st *stream) setup(tr *tracer) (*instance, error) {
	if st.spec.sqlViews > 0 {
		return st.setupSQL(tr)
	}
	db := storage.NewDatabase()
	ld := tr.begin("storage.load", 0)
	err := load(db, "customer", st.custSch, st.customers)
	if err == nil {
		err = load(db, "sales", st.salesSch, st.sales)
	}
	tr.end(ld, err)
	if err != nil {
		return nil, err
	}
	in := &instance{m: core.NewManager(db)}
	for i, v := range st.views {
		sp := tr.begin("core.define_view", 0)
		_, err := in.m.DefineView(v, st.viewDefs[i], core.Combined)
		tr.end(sp, err)
		if err != nil {
			return nil, fmt.Errorf("define view %s: %w", v, err)
		}
	}
	return in, nil
}

func load(db *storage.Database, name string, sch *schema.Schema, rs []schema.Tuple) error {
	tb, err := db.Create(name, sch, storage.External)
	if err != nil {
		return err
	}
	for _, r := range rs {
		if err := tb.Insert(r, 1); err != nil {
			return err
		}
	}
	return nil
}

func (st *stream) setupSQL(tr *tracer) (*instance, error) {
	eng := sql.NewEngine()
	in := &instance{m: eng.Manager(), eng: eng}
	for _, q := range st.ddlSQL {
		if _, err := in.querySQL(tr, q, "ddl", 0); err != nil {
			return nil, err
		}
	}
	ld := tr.begin("storage.load", 0)
	var err error
	for _, q := range st.loadSQL {
		if _, err = in.querySQL(tr, q, "insert", 0); err != nil {
			break
		}
	}
	tr.end(ld, err)
	if err != nil {
		return nil, err
	}
	for _, q := range st.viewSQL {
		if _, err := in.querySQL(tr, q, "ddl", 0); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// querySQL parses and executes one statement, as sql.Engine.Exec does,
// with a span around each of the two calls.
func (in *instance) querySQL(tr *tracer, q, kind string, basket int) (*sql.Result, error) {
	ps := tr.begin("sql.parse", basket)
	stmt, err := sql.Parse(q)
	tr.end(ps, err)
	if err != nil {
		return nil, err
	}
	es := tr.begin("sql.exec."+kind, basket)
	res, err := in.eng.ExecStmt(stmt)
	tr.end(es, err)
	return res, err
}

// run makes one step's call, recording spans around it when tracing.
// Work counts are read before the call, through storage's public Bag
// lookups, and attached to the call's span.
func (in *instance) run(tr *tracer, s *step) error {
	var w work
	if tr != nil {
		w = in.workBefore(s)
	}
	var err error
	if s.kind == kSQL {
		_, err = in.querySQL(tr, s.sql, s.sqlKind, s.basket)
	} else {
		sp := tr.begin(s.layer(), s.basket)
		err = in.call(s)
		tr.end(sp, err)
	}
	tr.setWork(w)
	return err
}

// call makes a core step's call.
func (in *instance) call(s *step) error {
	var err error
	switch s.kind {
	case kExecute:
		err = in.m.Execute(s.t)
	case kPropagate:
		err = in.m.Propagate(s.view)
	case kPartial:
		err = in.m.PartialRefresh(s.view)
	case kQuery:
		_, err = in.m.Query(s.view)
	case kFresh:
		_, err = in.m.QueryFresh(s.view, s.pred)
	}
	return err
}

// work is the tuple count a maintenance call is about to process.
type work struct {
	LogTuples  int `json:"log_tuples,omitempty"`
	DiffTuples int `json:"diff_tuples,omitempty"`
	MVTuples   int `json:"mv_tuples,omitempty"`
}

func (in *instance) workBefore(s *step) work {
	switch {
	case s.kind == kPropagate || s.sqlKind == "propagate":
		return work{LogTuples: in.logTuples(s.view)}
	case s.kind == kPartial || s.sqlKind == "partial_refresh":
		return work{
			DiffTuples: in.size("__dmv_del_"+s.view) + in.size("__dmv_add_"+s.view),
			MVTuples:   in.size("__mv_" + s.view),
		}
	}
	return work{}
}

func (in *instance) logTuples(view string) int {
	n := 0
	for _, base := range []string{"customer", "sales"} {
		n += in.size(fmt.Sprintf("__log_del_%s__%s", base, view)) + in.size(fmt.Sprintf("__log_ins_%s__%s", base, view))
	}
	return n
}

func (in *instance) size(table string) int {
	b, err := in.m.DB().Bag(table)
	if err != nil {
		return 0
	}
	return b.Len()
}

// gate refreshes every view and checks it: the Figure 1 invariant, MV
// against a from-scratch evaluation, and on SQL workloads each view's
// SELECT * against its query run over the base tables.
func (st *stream) gate(tr *tracer, in *instance) error {
	for i, v := range st.views {
		sp := tr.begin("core.refresh", 0)
		err := in.m.Refresh(v)
		tr.end(sp, err)
		if err != nil {
			return fmt.Errorf("refresh %s: %w", v, err)
		}
		if err := in.m.CheckInvariant(v); err != nil {
			return err
		}
		if err := in.m.CheckConsistent(v); err != nil {
			return err
		}
		if in.eng == nil {
			continue
		}
		got, err := in.querySQL(nil, "SELECT * FROM "+v, "select", 0)
		if err != nil {
			return err
		}
		want, err := in.querySQL(nil, st.oracleSQL[i], "select", 0)
		if err != nil {
			return err
		}
		if !got.Rows.Equal(want.Rows) {
			return fmt.Errorf("view %s: SELECT * has %d rows, its query over the base tables %d",
				v, got.Rows.Len(), want.Rows.Len())
		}
	}
	return nil
}
