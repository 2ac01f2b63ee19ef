package txn

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/eval"
	"mra/internal/multiset"
	"mra/internal/plan"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/stmt"
	"mra/internal/storage"
	"mra/internal/tuple"
	"mra/internal/value"
)

// The write-path battery: statements emit Definition 4.1 deltas, the
// transaction folds them into one pending net delta per relation, scans read
// the relation through an overlay, and commit ships the deltas.  Its oracle
// is the rebuild semantics the statements had before — every statement
// recomputes its whole target relation with multiset.Union/Difference — with
// E evaluated by the definition-literal eval.Reference.

// pairSchema is the (a, b) integer schema of the battery's relations.
func pairSchema(name string) schema.Relation {
	return schema.NewRelation(name,
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt})
}

// rebuild executes s against state by rebuilding its target relation whole,
// the statement semantics of Definition 4.1 written literally.
func rebuild(s stmt.Statement, state eval.MapSource) error {
	ref := eval.Reference{}
	switch s := s.(type) {
	case stmt.Insert:
		cur := state[strings.ToLower(s.Target)]
		add, err := ref.Eval(s.Source, state)
		if err != nil {
			return err
		}
		out, err := multiset.Union(cur, add.WithSchema(cur.Schema()))
		if err != nil {
			return err
		}
		state[strings.ToLower(s.Target)] = out
	case stmt.Delete:
		cur := state[strings.ToLower(s.Target)]
		rem, err := ref.Eval(s.Source, state)
		if err != nil {
			return err
		}
		out, err := multiset.Difference(cur, rem.WithSchema(cur.Schema()))
		if err != nil {
			return err
		}
		state[strings.ToLower(s.Target)] = out
	case stmt.Update:
		cur := state[strings.ToLower(s.Target)]
		sel, err := ref.Eval(s.Selection, state)
		if err != nil {
			return err
		}
		sel = sel.WithSchema(cur.Schema())
		remain, err := multiset.Difference(cur, sel)
		if err != nil {
			return err
		}
		hit, err := multiset.Intersection(cur, sel)
		if err != nil {
			return err
		}
		modified, err := multiset.Map(hit, cur.Schema(), func(t tuple.Tuple) (tuple.Tuple, error) {
			vals := make([]value.Value, len(s.Items))
			for i, item := range s.Items {
				v, err := item.Eval(t)
				if err != nil {
					return tuple.Tuple{}, err
				}
				vals[i] = v
			}
			return tuple.FromSlice(vals), nil
		})
		if err != nil {
			return err
		}
		out, err := multiset.Union(remain, modified)
		if err != nil {
			return err
		}
		state[strings.ToLower(s.Target)] = out
	case stmt.Assign:
		r, err := ref.Eval(s.Source, state)
		if err != nil {
			return err
		}
		state[strings.ToLower(s.Name)] = r
	default:
		return fmt.Errorf("rebuild: unsupported statement %T", s)
	}
	return nil
}

// scriptGen draws random statements over the database relations r and s and
// the temporaries the script has assigned so far.
type scriptGen struct {
	rng   *rand.Rand
	temps []string
}

func (g *scriptGen) relation() string {
	names := append([]string{"r", "s"}, g.temps...)
	return names[g.rng.Intn(len(names))]
}

func (g *scriptGen) literal() algebra.Expr {
	rows := make([][]value.Value, 1+g.rng.Intn(3))
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(g.rng.Intn(6))), value.NewInt(int64(g.rng.Intn(6)))}
	}
	return algebra.Literal{Rel: pairSchema("").Rename(""), Rows: rows}
}

// expr draws an expression of the pair schema: a relation, a selection over
// one, a literal, or the union of a selection and a literal.
func (g *scriptGen) expr() algebra.Expr {
	sel := func() algebra.Expr {
		op := []value.CompareOp{value.CmpEq, value.CmpLt, value.CmpGe}[g.rng.Intn(3)]
		cond := scalar.NewCompare(op, scalar.NewAttr(g.rng.Intn(2)), scalar.NewConst(value.NewInt(int64(g.rng.Intn(6)))))
		return algebra.NewSelect(cond, algebra.NewRel(g.relation()))
	}
	switch g.rng.Intn(5) {
	case 0:
		return algebra.NewRel(g.relation())
	case 1, 2:
		return sel()
	case 3:
		return g.literal()
	default:
		return algebra.NewUnion(sel(), g.literal())
	}
}

func (g *scriptGen) statement() stmt.Statement {
	switch g.rng.Intn(7) {
	case 0, 1:
		return stmt.Insert{Target: g.relation(), Source: g.expr()}
	case 2, 3:
		return stmt.Delete{Target: g.relation(), Source: g.expr()}
	case 4, 5:
		items := [][]scalar.Expr{
			{scalar.NewAttr(0), scalar.NewArith(value.OpAdd, scalar.NewAttr(1), scalar.NewConst(value.NewInt(int64(1+g.rng.Intn(2)))))},
			{scalar.NewAttr(1), scalar.NewAttr(0)},
			{scalar.NewAttr(0), scalar.NewConst(value.NewInt(int64(g.rng.Intn(6))))},
		}[g.rng.Intn(3)]
		return stmt.Update{Target: g.relation(), Selection: g.expr(), Items: items}
	default:
		name := fmt.Sprintf("t%d", g.rng.Intn(3))
		st := stmt.Assign{Name: name, Source: g.expr()}
		for _, t := range g.temps {
			if t == name {
				return st
			}
		}
		g.temps = append(g.temps, name)
		return st
	}
}

// probes are the read shapes checked against the overlay after every
// statement: a bare scan (materialised result), a morsel-split filter, a
// projection, the hash-partitioned set operators, a shared-build join, a
// two-phase aggregate and duplicate elimination.
func probes() []algebra.Expr {
	r, s := algebra.NewRel("r"), algebra.NewRel("s")
	return []algebra.Expr{
		r,
		s,
		algebra.NewSelect(scalar.NewCompare(value.CmpGe, scalar.NewAttr(1), scalar.NewConst(value.NewInt(2))), r),
		algebra.NewProject([]int{0}, s),
		algebra.NewUnion(r, s),
		algebra.NewDifference(r, s),
		algebra.NewIntersect(s, r),
		algebra.NewJoin(scalar.NewCompare(value.CmpEq, scalar.NewAttr(0), scalar.NewAttr(2)), r, s),
		algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, r),
		algebra.NewUnique(s),
	}
}

// randomPairs fills a relation with up to 24 distinct pairs, multiplicity 1–3.
func randomPairs(rng *rand.Rand, name string) *multiset.Relation {
	r := multiset.New(pairSchema(name))
	for i := 0; i < 24; i++ {
		r.Add(tuple.Ints(int64(rng.Intn(6)), int64(rng.Intn(6))), uint64(1+rng.Intn(3)))
	}
	return r
}

// TestDeltaWritePathProperty runs random insert/delete/update/assign scripts
// inside one transaction — statements routinely target and read relations
// the transaction already wrote — and checks after every statement, bag for
// bag: each relation read through the transaction equals the rebuild
// oracle's; each pending delta equals multiset.Diff(snapshot, oracle), the
// delta commit validation keys off; and every probe query planned with
// forced exchanges (morsel size 1, batch size 2) at workers 1/2/4/8 and run
// over the overlays equals eval.Reference over the oracle state.  Commit must
// install exactly the oracle's relations, advancing logical time only when a
// delta is non-empty.
func TestDeltaWritePathProperty(t *testing.T) {
	const scripts = 12
	const steps = 14
	for _, workers := range matrixWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + workers)))
			for script := 0; script < scripts; script++ {
				db := storage.NewDatabase()
				oracle := eval.MapSource{}
				for _, name := range []string{"r", "s"} {
					if err := db.CreateRelation(pairSchema(name)); err != nil {
						t.Fatal(err)
					}
					oracle[name] = randomPairs(rng, name)
				}
				if _, err := db.Apply(map[string]*multiset.Relation{"r": oracle["r"], "s": oracle["s"]}); err != nil {
					t.Fatal(err)
				}
				before := db.LogicalTime()
				tx := NewManager(db).BeginTx(TxOptions{Workers: workers})
				gen := &scriptGen{rng: rng}
				for step := 0; step < steps; step++ {
					st := gen.statement()
					if err := tx.Exec(st); err != nil {
						t.Fatalf("script %d step %d %s: delta path: %v", script, step, st, err)
					}
					if err := rebuild(st, oracle); err != nil {
						t.Fatalf("script %d step %d %s: rebuild oracle: %v", script, step, st, err)
					}
					where := fmt.Sprintf("script %d step %d after %s", script, step, st)
					checkAgainstOracle(t, where, tx, oracle, workers)
				}
				changed := false
				for _, w := range tx.pending {
					changed = changed || !w.delta.Empty()
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("script %d: commit: %v", script, err)
				}
				for _, name := range []string{"r", "s"} {
					got, _ := db.Relation(name)
					if !got.Equal(oracle[name]) {
						t.Fatalf("script %d: committed %s = %v, oracle %v", script, name, got, oracle[name])
					}
				}
				if advanced := db.LogicalTime() != before; advanced != changed {
					t.Fatalf("script %d: logical time advanced=%v with non-empty delta=%v", script, advanced, changed)
				}
			}
		})
	}
}

// checkAgainstOracle compares the transaction's state with the oracle's.
func checkAgainstOracle(t *testing.T, where string, tx *Tx, oracle eval.MapSource, workers int) {
	t.Helper()
	for name, want := range oracle {
		got, ok := tx.Relation(name)
		if !ok || !got.Equal(want) {
			t.Fatalf("%s: %s through the transaction = %v, rebuild oracle %v", where, name, got, want)
		}
		if card, _ := tx.RelationCardinality(name); card != want.Cardinality() {
			t.Fatalf("%s: |%s| = %d, oracle %d", where, name, card, want.Cardinality())
		}
		if n, _ := tx.RelationDistinctCount(name); n != want.DistinctCount() {
			t.Fatalf("%s: distinct %s = %d, oracle %d", where, name, n, want.DistinctCount())
		}
		w, isDB := tx.pending[name]
		if !isDB {
			continue
		}
		base, _ := tx.snap.Relation(name)
		wantAdd, wantRemove := multiset.Diff(base, want)
		d := w.delta
		if !bagEqual(d.Add, wantAdd) || !bagEqual(d.Remove, wantRemove) {
			t.Fatalf("%s: pending delta of %s is +%v −%v, Diff(snapshot, oracle) is +%v −%v",
				where, name, d.Add, d.Remove, wantAdd, wantRemove)
		}
	}
	pl := &plan.Planner{Cards: eval.Cardinalities(tx), Workers: workers, ParallelThreshold: 1, MorselSize: 1, BatchSize: 2}
	for _, q := range probes() {
		p, err := pl.Plan(q, eval.CatalogOf(tx))
		if err != nil {
			t.Fatalf("%s: plan %s: %v", where, q, err)
		}
		got, err := p.ExecuteContext(context.Background(), tx)
		if err != nil {
			t.Fatalf("%s: execute %s: %v", where, q, err)
		}
		want, err := eval.Reference{}.Eval(q, oracle)
		if err != nil {
			t.Fatalf("%s: reference %s: %v", where, q, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: %s over the overlay = %v, reference %v\n%s", where, q, got, want, p)
		}
	}
}

// bagEqual compares a possibly-nil delta side with a relation.
func bagEqual(r, want *multiset.Relation) bool {
	if r == nil {
		return want.IsEmpty()
	}
	return r.Equal(want)
}

// TestNetZeroTransactionsCommitReadOnly pins that writes which cancel out
// leave nothing to commit: an insert deleted again and an update updated
// back commit as read-only — no logical-time advance, no key-log entry — and
// so never conflict with a concurrent committer of the same key.
func TestNetZeroTransactionsCommitReadOnly(t *testing.T) {
	lit := func(rows ...[2]int64) algebra.Expr {
		vals := make([][]value.Value, len(rows))
		for i, r := range rows {
			vals[i] = []value.Value{value.NewInt(r[0]), value.NewInt(r[1])}
		}
		return algebra.Literal{Rel: pairSchema("").Rename(""), Rows: vals}
	}
	key := func(a int64) algebra.Expr {
		return algebra.NewSelect(scalar.NewCompare(value.CmpEq, scalar.NewAttr(0), scalar.NewConst(value.NewInt(a))), algebra.NewRel("r"))
	}
	bump := func(by int64) []scalar.Expr {
		return []scalar.Expr{scalar.NewAttr(0), scalar.NewArith(value.OpAdd, scalar.NewAttr(1), scalar.NewConst(value.NewInt(by)))}
	}
	cases := map[string]stmt.Program{
		"insert-then-delete": {
			stmt.Insert{Target: "r", Source: lit([2]int64{1, 10})},
			stmt.Delete{Target: "r", Source: lit([2]int64{1, 10})},
		},
		"update-then-update-back": {
			stmt.Update{Target: "r", Selection: key(1), Items: bump(5)},
			stmt.Update{Target: "r", Selection: key(1), Items: bump(-5)},
		},
		"delete-then-reinsert": {
			stmt.Delete{Target: "r", Source: key(1)},
			stmt.Insert{Target: "r", Source: lit([2]int64{1, 10})},
		},
	}
	for name, prog := range cases {
		t.Run(name, func(t *testing.T) {
			db := storage.NewDatabase()
			if err := db.CreateRelation(pairSchema("r")); err != nil {
				t.Fatal(err)
			}
			seed := multiset.FromTuples(pairSchema("r"), tuple.Ints(1, 10), tuple.Ints(2, 20))
			if _, err := db.Apply(map[string]*multiset.Relation{"r": seed}); err != nil {
				t.Fatal(err)
			}
			m := NewManager(db)
			netZero := m.Begin()
			if err := netZero.Run(prog); err != nil {
				t.Fatal(err)
			}
			// A concurrent writer of the very key commits first.
			if _, err := m.Run(stmt.Program{stmt.Update{Target: "r", Selection: key(1), Items: bump(1)}}); err != nil {
				t.Fatal(err)
			}
			entries, _ := db.KeyLogStats("r")
			before := db.LogicalTime()
			if err := netZero.Commit(); err != nil {
				t.Fatalf("net-zero transaction conflicted: %v", err)
			}
			if db.LogicalTime() != before {
				t.Fatalf("net-zero commit advanced logical time %d → %d", before, db.LogicalTime())
			}
			if after, _ := db.KeyLogStats("r"); after != entries {
				t.Fatalf("net-zero commit logged keys: %d → %d entries", entries, after)
			}
			want := multiset.FromTuples(pairSchema("r"), tuple.Ints(1, 11), tuple.Ints(2, 20))
			if got, _ := db.Relation("r"); !got.Equal(want) {
				t.Fatalf("r = %v, want the concurrent writer's %v", got, want)
			}
		})
	}
}

// accountDB builds a database whose account(id, balance) relation holds n
// rows, one per id.
func accountDB(t testing.TB, n int) *storage.Database {
	t.Helper()
	s := schema.NewRelation("account",
		schema.Attribute{Name: "id", Type: value.KindInt},
		schema.Attribute{Name: "balance", Type: value.KindInt})
	db := storage.NewDatabase()
	if err := db.CreateRelation(s); err != nil {
		t.Fatal(err)
	}
	r := multiset.NewWithCapacity(s, n)
	for id := 0; id < n; id++ {
		r.Add(tuple.Ints(int64(id), 1000), 1)
	}
	if _, err := db.Apply(map[string]*multiset.Relation{"account": r}); err != nil {
		t.Fatal(err)
	}
	return db
}

// transfer is the two updates of a transfer of amount from one account to
// another.
func transfer(from, to, amount int64) [2]stmt.Update {
	upd := func(id, by int64) stmt.Update {
		return stmt.Update{
			Target:    "account",
			Selection: algebra.NewSelect(scalar.NewCompare(value.CmpEq, scalar.NewAttr(0), scalar.NewConst(value.NewInt(id))), algebra.NewRel("account")),
			Items:     []scalar.Expr{scalar.NewAttr(0), scalar.NewArith(value.OpAdd, scalar.NewAttr(1), scalar.NewConst(value.NewInt(by)))},
		}
	}
	return [2]stmt.Update{upd(from, -amount), upd(to, amount)}
}

// TestTransferAllocationFlatInTableSize pins the write path's cost at the
// statement layer: the bytes allocated by the two updates of a transfer
// (before commit) must not grow with the table — under 2× from 1k to 16k
// accounts — because statements write deltas and scans read through the
// overlay instead of copying the relation.
func TestTransferAllocationFlatInTableSize(t *testing.T) {
	const rounds = 20
	perTransfer := func(n int) float64 {
		db := accountDB(t, n)
		// Statistics, as on any served database: without them the planner
		// pre-sizes each selection's output by a flat selectivity of |R|.
		if err := db.AnalyzeAll(); err != nil {
			t.Fatal(err)
		}
		m := NewManager(db)
		var total uint64
		for i := 0; i < rounds; i++ {
			tx := m.Begin()
			stmts := transfer(int64(i%n), int64((i+7)%n), 5)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, s := range stmts {
				if err := tx.Exec(s); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
			tx.Abort()
		}
		return float64(total) / rounds
	}
	small, large := perTransfer(1<<10), perTransfer(1<<14)
	t.Logf("bytes per transfer: %.0f at 1k accounts, %.0f at 16k (ratio %.2f)", small, large, large/small)
	if large >= 2*small {
		t.Fatalf("transfer allocations grow with the table: %.0f B at 1k, %.0f B at 16k accounts", small, large)
	}
}

// TestCommittedUpdatesReclaimTombstones pins arena reclamation on the live
// relation: thousands of committed single-row updates leave its entry span
// within twice its live size plus a constant, with the balances intact.
func TestCommittedUpdatesReclaimTombstones(t *testing.T) {
	const accounts = 1024
	db := accountDB(t, accounts)
	m := NewManager(db)
	balance := make([]int64, accounts)
	for i := range balance {
		balance[i] = 1000
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		from, to := int64(rng.Intn(accounts)), int64(rng.Intn(accounts))
		stmts := transfer(from, to, 1)
		if _, err := m.Run(stmt.Program{stmts[0], stmts[1]}); err != nil {
			t.Fatal(err)
		}
		balance[from]--
		balance[to]++
	}
	live, _ := db.Relation("account")
	if span := live.EntrySpan(); span > 2*accounts+4 {
		t.Fatalf("entry span %d for %d live accounts: tombstones are not reclaimed", span, accounts)
	}
	want := multiset.New(live.Schema())
	for id, b := range balance {
		want.Add(tuple.Ints(int64(id), b), 1)
	}
	if !live.Equal(want) {
		t.Fatal("balances changed across compaction")
	}
}

// TestReplaceBecomesPendingDelta checks the wholesale entry point: Replace
// turns a rebuilt relation into the pending delta against the snapshot, and
// later statements fold onto it.
func TestReplaceBecomesPendingDelta(t *testing.T) {
	db := accountDB(t, 4)
	tx := NewManager(db).Begin()
	cur, _ := tx.Relation("account")
	next := cur.Clone()
	next.Remove(tuple.Ints(0, 1000), 1)
	next.Add(tuple.Ints(9, 1), 1)
	if err := tx.Replace("account", next); err != nil {
		t.Fatal(err)
	}
	stmts := transfer(1, 9, 1)
	for _, s := range stmts {
		if err := tx.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := multiset.FromTuples(next.Schema(), tuple.Ints(1, 999), tuple.Ints(2, 1000), tuple.Ints(3, 1000), tuple.Ints(9, 2))
	if got, _ := db.Relation("account"); !got.Equal(want) {
		t.Fatalf("account = %v, want %v", got, want)
	}
	if err := tx.Replace("account", next); !errors.Is(err, ErrDone) {
		t.Fatalf("Replace after commit: %v, want ErrDone", err)
	}
}
