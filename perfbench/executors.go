package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"mra"
	"mra/internal/algebra"
	"mra/internal/eval"
	"mra/internal/multiset"
	"mra/internal/plan"
	"mra/internal/rewrite"
	"mra/internal/schema"
	"mra/internal/server"
	"mra/internal/sqlfront"
	"mra/internal/stmt"
	"mra/internal/storage"
	"mra/internal/txn"
	"mra/internal/value"
)

// fixture is one round's database and the executor that reaches it.
type fixture struct {
	x executor
	// analyze is how long ANALYZE took during set-up.
	analyze time.Duration
	// tcp and inproc are set when x is of that kind, for their counters.
	tcp    *tcpExec
	inproc *inprocExec
	// close stops the server and closes the sessions, if any.
	close func() error
}

// conns is a serving round's listener and the sessions dialled to it.  The
// clients are the benchmark's, not the program's, so they connect before the
// database exists, and the live heap is counted from after them; the
// listener queues the connections until the server starts accepting.
type conns struct {
	l       net.Listener
	clients []*server.Client
}

// dialSessions listens on a loopback port and dials n sessions to it.
func dialSessions(n int) (*conns, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &conns{l: l}
	for i := 0; i < n; i++ {
		cl, err := server.Dial(l.Addr().String(), 30*time.Second)
		if err != nil {
			c.close()
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	return c, nil
}

// close closes the sessions and the listener.
func (c *conns) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	c.l.Close()
}

// openEndToEnd loads the tables into a fresh mra.DB and, for a serving
// workload, serves it with xraserve on the dialled sessions' listener.
func (w *workload) openEndToEnd(in *inputs, c *conns) (*fixture, error) {
	db := mra.Open()
	for _, t := range in.tables {
		if err := db.CreateRelation(t.name, t.cols...); err != nil {
			return nil, err
		}
		if err := db.InsertValues(t.name, t.rows...); err != nil {
			return nil, err
		}
	}
	if w.workers > 0 {
		db.SetWorkers(w.workers)
	}
	start := time.Now()
	if err := db.Analyze(""); err != nil {
		return nil, err
	}
	fx := &fixture{analyze: time.Since(start), close: func() error { return nil }}
	if !w.serve {
		fx.x = facadeExec{db: db}
		return fx, nil
	}

	srv := server.New(db, server.Config{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(c.l) }()
	x := &tcpExec{clients: c.clients}
	fx.x, fx.tcp = x, x
	fx.close = func() error {
		for _, cl := range c.clients {
			cl.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr := srv.Shutdown(ctx)
		if err := <-served; !errors.Is(err, server.ErrServerClosed) {
			return fmt.Errorf("serving: %w", err)
		}
		return shutdownErr
	}
	return fx, nil
}

// tcpExec sends lines over the sessions' TCP connections.
type tcpExec struct {
	clients []*server.Client
	// requests and wire count round trips and their total time outside the
	// server's own execution (round trip − Response.ElapsedUS).
	requests int
	wire     time.Duration
}

func (x *tcpExec) do(session int, line string) (reply, error) {
	start := time.Now()
	resp, err := x.clients[session].Do(line)
	rtt := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	x.requests++
	x.wire += rtt - time.Duration(resp.ElapsedUS)*time.Microsecond
	rep := reply{ok: resp.OK, conflict: resp.Conflict, err: resp.Error}
	if len(resp.Results) > 0 {
		rep.rows = resp.Results[0].Rows
	}
	return rep, nil
}

// facadeExec runs auto-committed lines through the library facade: queries
// through DB.QuerySQL, statements through DB.ExecSQL.
type facadeExec struct{ db *mra.DB }

func (x facadeExec) do(_ int, line string) (reply, error) {
	var res *mra.Result
	var err error
	if isQuery(line) {
		res, err = x.db.QuerySQL(line)
	} else {
		var results []*mra.Result
		results, err = x.db.ExecSQL(line)
		if len(results) > 0 {
			res = results[0]
		}
	}
	if err != nil {
		return reply{err: err.Error(), conflict: errors.Is(err, txn.ErrConflict)}, nil
	}
	rep := reply{ok: true}
	if res != nil {
		rep.rows = res.Rows()
		for _, row := range rep.rows {
			for i, v := range row {
				if n, ok := v.(int64); ok {
					row[i] = float64(n)
				}
			}
		}
	}
	return rep, nil
}

// isQuery reports whether the line is a SELECT.
func isQuery(line string) bool {
	return strings.HasPrefix(strings.ToLower(strings.TrimSpace(line)), "select")
}

// openReplay builds the same database as openEndToEnd directly on the
// storage and transaction layers, for an in-process replay of the stream.
func (w *workload) openReplay(in *inputs) (*fixture, error) {
	store := storage.NewDatabase()
	mgr := txn.NewManager(store)
	for _, t := range in.tables {
		attrs := make([]schema.Attribute, len(t.cols))
		for i, c := range t.cols {
			attrs[i] = schema.Attribute{Name: c.Name, Type: c.Type}
		}
		rel := schema.NewRelation(t.name, attrs...)
		if err := store.CreateRelation(rel); err != nil {
			return nil, err
		}
		rows := make([][]value.Value, len(t.rows))
		for i, row := range t.rows {
			rows[i] = make([]value.Value, len(row))
			for j, v := range row {
				switch v := v.(type) {
				case int64:
					rows[i][j] = value.NewInt(v)
				case float64:
					rows[i][j] = value.NewFloat(v)
				case string:
					rows[i][j] = value.NewString(v)
				default:
					return nil, fmt.Errorf("table %s: unsupported value %T", t.name, v)
				}
			}
		}
		insert := stmt.Insert{Target: t.name, Source: algebra.Literal{Rel: rel.Rename(""), Rows: rows}}
		if _, err := mgr.Run(stmt.Program{insert}); err != nil {
			return nil, err
		}
	}
	if w.workers > 0 {
		mgr.SetWorkers(w.workers)
	}
	start := time.Now()
	if err := store.AnalyzeAll(); err != nil {
		return nil, err
	}
	x := &inprocExec{
		store:    store,
		mgr:      mgr,
		rw:       rewrite.NewRewriter(),
		workers:  w.workers,
		facade:   !w.serve,
		sessions: make([]inprocSession, w.sessions),
	}
	return &fixture{x: x, inproc: x, analyze: time.Since(start), close: func() error { return nil }}, nil
}

// inprocExec replays lines in process through the layers' public functions,
// in the order xraserve's sessions (or, for facade workloads, DB.QuerySQL
// and DB.ExecSQL) call them, with a span around every layer call when rec is
// set.
type inprocExec struct {
	store    *storage.Database
	mgr      *txn.Manager
	rw       *rewrite.Rewriter
	workers  int
	facade   bool
	rec      *recorder
	sessions []inprocSession

	// counting executes plans with their statistics on, for the counts
	// below; no other round pays for collecting them.
	counting                       bool
	scanned, rowsOut, materialised uint64
}

// inprocSession is a session's transaction state machine.
type inprocSession struct {
	tx      *txn.Tx
	aborted bool
}

func (x *inprocExec) do(session int, line string) (reply, error) {
	defer x.rec.end(x.rec.begin("line"))
	s := &x.sessions[session]
	switch strings.ToLower(strings.TrimRight(strings.TrimSpace(line), "; \t")) {
	case "begin":
		if s.aborted || s.tx != nil {
			return reply{err: "already in a transaction"}, nil
		}
		s.tx = x.begin()
		return reply{ok: true}, nil
	case "commit":
		if s.aborted || s.tx == nil {
			s.aborted = false
			return reply{err: "no transaction to commit"}, nil
		}
		tx := s.tx
		s.tx = nil
		return outcome(nil, x.commit(tx)), nil
	case "rollback":
		s.aborted = false
		if s.tx != nil {
			s.tx.Abort()
			s.tx = nil
		}
		return reply{ok: true}, nil
	}
	if s.aborted {
		return reply{err: "current transaction is aborted"}, nil
	}
	if x.facade && isQuery(line) {
		rows, err := x.query(line)
		return outcome(rows, err), nil
	}
	if s.tx != nil {
		rows, err := x.script(s.tx, line, s.tx.Catalog())
		if err != nil {
			s.tx.Abort()
			s.tx = nil
			s.aborted = true
		}
		return outcome(rows, err), nil
	}
	// Auto-commit: xraserve compiles against the new transaction, the facade
	// (DB.ExecSQL) against the database before it begins.
	var cat algebra.Catalog = x.store
	var tx *txn.Tx
	if !x.facade {
		tx = x.begin()
		cat = tx.Catalog()
	}
	prog, err := x.compile(line, cat)
	if err != nil {
		if tx != nil {
			tx.Abort()
		}
		return outcome(nil, err), nil
	}
	if tx == nil {
		tx = x.begin()
	}
	rows, err := x.run(tx, prog)
	if err == nil {
		err = x.commit(tx)
	} else {
		tx.Abort()
	}
	return outcome(rows, err), nil
}

// outcome turns a result or error into a reply.
func outcome(rows [][]any, err error) reply {
	if err != nil {
		return reply{err: err.Error(), conflict: errors.Is(err, txn.ErrConflict)}
	}
	return reply{ok: true, rows: rows}
}

func (x *inprocExec) begin() *txn.Tx {
	defer x.rec.end(x.rec.begin("txn.begin"))
	return x.mgr.BeginTx(txn.TxOptions{})
}

func (x *inprocExec) commit(tx *txn.Tx) error {
	defer x.rec.end(x.rec.begin("txn.commit"))
	return tx.Commit()
}

func (x *inprocExec) compile(line string, cat algebra.Catalog) (stmt.Program, error) {
	defer x.rec.end(x.rec.begin("sqlfront.compile"))
	prog, _, err := sqlfront.CompileScript(line, cat)
	return prog, err
}

// script compiles and runs a line inside an open transaction.
func (x *inprocExec) script(tx *txn.Tx, line string, cat algebra.Catalog) ([][]any, error) {
	prog, err := x.compile(line, cat)
	if err != nil {
		return nil, err
	}
	return x.run(tx, prog)
}

// run executes the program's statements through a timing statement context
// and returns the first query result's rows.
func (x *inprocExec) run(tx *txn.Tx, prog stmt.Program) ([][]any, error) {
	before := len(tx.Outputs())
	ctx := tracedCtx{Tx: tx, x: x}
	for _, s := range prog {
		sp := x.rec.begin("stmt.execute")
		err := s.Execute(ctx)
		x.rec.end(sp)
		if err != nil {
			return nil, err
		}
	}
	if outs := tx.Outputs(); len(outs) > before {
		return relRows(outs[before]), nil
	}
	return nil, nil
}

// query mirrors DB.QuerySQL: compile, validate, rewrite, then plan and
// execute against a fresh snapshot.
func (x *inprocExec) query(line string) ([][]any, error) {
	sp := x.rec.begin("sqlfront.compile")
	q, err := sqlfront.CompileQuery(line, x.store)
	x.rec.end(sp)
	if err != nil {
		return nil, err
	}
	if err := algebra.Validate(q.Expr, x.store); err != nil {
		return nil, err
	}
	sp = x.rec.begin("rewrite.rewrite")
	e, _ := x.rw.Rewrite(q.Expr, x.store)
	x.rec.end(sp)
	tx := x.begin()
	defer tx.Abort()
	rel, err := x.evaluate(tx, e)
	if err != nil {
		return nil, err
	}
	return relRows(rel), nil
}

// evaluate plans and executes an expression against the transaction the way
// eval.Engine does with statistics off.  A counting replay executes with the
// plan's execution statistics on instead, and accumulates the row counts.
func (x *inprocExec) evaluate(tx *txn.Tx, e algebra.Expr) (*multiset.Relation, error) {
	pl := &plan.Planner{Cards: eval.Cardinalities(tx), Workers: x.workers}
	sp := x.rec.begin("plan.plan")
	p, err := pl.Plan(e, eval.CatalogOf(tx))
	x.rec.end(sp)
	if err != nil {
		return nil, err
	}
	if !x.counting {
		sp = x.rec.begin("plan.execute")
		rel, err := p.ExecuteContext(tx.Context(), tx)
		x.rec.end(sp)
		return rel, err
	}
	var st plan.Stats
	rel, err := p.ExecuteStatsContext(tx.Context(), tx, &st)
	if err != nil {
		return nil, err
	}
	x.scanned += scannedRows(p.Root)
	x.rowsOut += rel.Cardinality()
	x.materialised += st.MaterialisedTuples
	return rel, nil
}

// scannedRows sums the exact cardinality estimates of the plan's leaves, the
// rows its scans read.  Execution statistics record no leaf emissions.
func scannedRows(n plan.Node) uint64 {
	children := n.Children()
	if len(children) == 0 {
		return uint64(n.Estimate())
	}
	var sum uint64
	for _, c := range children {
		sum += scannedRows(c)
	}
	return sum
}

// tracedCtx is the statement context of the replay: the transaction itself,
// with its Evaluate and Replace calls timed.
type tracedCtx struct {
	*txn.Tx
	x *inprocExec
}

// Evaluate mirrors txn.Tx.Evaluate under a stmt.select span.
func (c tracedCtx) Evaluate(e algebra.Expr) (*multiset.Relation, error) {
	defer c.x.rec.end(c.x.rec.begin("stmt.select"))
	if c.State() != txn.StateActive {
		return nil, txn.ErrDone
	}
	if err := algebra.Validate(e, c.Catalog()); err != nil {
		return nil, err
	}
	return c.x.evaluate(c.Tx, e)
}

// Replace times the hand-over of a rebuilt relation to the transaction.
func (c tracedCtx) Replace(name string, r *multiset.Relation) error {
	defer c.x.rec.end(c.x.rec.begin("txn.replace"))
	return c.Tx.Replace(name, r)
}

// relRows converts a relation's occurrences to rows, numbers as float64.
func relRows(rel *multiset.Relation) [][]any {
	tuples := rel.Tuples()
	rows := make([][]any, len(tuples))
	for i, t := range tuples {
		row := make([]any, t.Arity())
		for j := range row {
			v := t.At(j)
			switch v.Kind() {
			case value.KindInt, value.KindFloat:
				row[j], _ = v.AsFloat()
			case value.KindString:
				row[j] = v.Str()
			case value.KindBool:
				row[j] = v.Bool()
			}
		}
		rows[i] = row
	}
	return rows
}
