package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"mra"
	"mra/internal/loadgen"
	gen "mra/internal/workload"
)

// workload is one set of inputs and one operation stream the benchmark runs.
// A round of a workload loads its tables into a fresh database, runs warmup
// operations, then measures the next ops operations of the same seeded
// stream; every round of a run replays the identical stream.
type workload struct {
	name string
	// sessions is the number of client sessions the sender interleaves.
	sessions int
	// serve selects an in-process xraserve on loopback TCP; otherwise the
	// operations go through the library facade (DB.QuerySQL / DB.ExecSQL).
	serve bool
	// workers is the facade's SetWorkers degree; zero keeps the default.
	workers int
	// warmup and ops are the untimed and timed operation counts of a round.
	warmup, ops int
	// referenceUnit is the median time of a unit of calibration work
	// (speed.go) in this workload's runs on the machine the benchmark was
	// tuned on; timings are scaled to the speed it implies.  It differs
	// between workloads, whose inputs stay in memory during the calibration.
	referenceUnit time.Duration
	// tables generates the workload's inputs from the seed.
	tables func(seed int64) []table
	// stream starts a fresh operation stream (with its model of the
	// committed state) over the generated inputs.
	stream func(seed int64, in *inputs) stream
}

// workloads is the benchmark's workload set; README.md says why each exists.
var workloads = map[string]*workload{
	"bank-mix-1k": {
		name:          "bank-mix-1k",
		sessions:      2,
		serve:         true,
		warmup:        100,
		ops:           1000,
		referenceUnit: 7600 * time.Microsecond,
		tables:        func(seed int64) []table { return []table{accountTable(1024, seed)} },
		stream: func(seed int64, in *inputs) stream {
			return newBankStream(seed, in, 2, loadgen.BankMix(1024, 8, 50, 35, 15).Kinds)
		},
	},
	"transfer-16k": {
		name:          "transfer-16k",
		sessions:      1,
		serve:         true,
		warmup:        20,
		ops:           200,
		referenceUnit: 8600 * time.Microsecond,
		tables:        func(seed int64) []table { return []table{accountTable(16384, seed)} },
		stream: func(seed int64, in *inputs) stream {
			transfer := loadgen.BankMix(16384, 8, 0, 100, 0).Kinds[1]
			transfer.Weight = 75
			return newBankStream(seed, in, 1, []loadgen.TxKind{transfer, lookupKind(16384, 25)})
		},
	},
	"olap-star-100k": {
		name:          "olap-star-100k",
		sessions:      1,
		workers:       2,
		warmup:        6,
		ops:           36,
		referenceUnit: 8600 * time.Microsecond,
		tables:        func(seed int64) []table { return starTables(100000, 60, seed) },
		stream:        newOlapStream,
	},
}

// table is one generated relation: its columns and rows.
type table struct {
	name string
	cols []mra.Column
	rows [][]any
}

// inputs is what a run generates once from its seed and shares across
// rounds: the tables, and state checks carry from one round to the next.
type inputs struct {
	tables []table
	oracle *olapOracle
}

// op is one operation of a stream: a read-only query or a read-write
// transaction.  A single line runs auto-committed; several lines run inside
// a begin/commit bracket.
type op struct {
	write bool
	lines []string
	// apply records a committed write in the stream's model.
	apply func()
	// check verifies a read's answer against the model.
	check func(rows [][]any) error
}

// stream hands out the operations of each session and knows what the
// database must hold afterwards.
type stream interface {
	next(session int) (*op, error)
	// final verifies the database's end state through the executor and
	// returns it as canonical rows.
	final(x executor) ([]string, error)
}

// deck deals card indexes in a seeded random order with exact weights: every
// sum-of-weights draws (after dividing the weights by their greatest common
// divisor) deal each index exactly its weight times.  Dealing the mix rather
// than drawing it independently keeps the share of each kind the same at
// every seed, so seeds vary only the order and the arguments.
type deck struct {
	cards []int
	next  int
	rng   *rand.Rand
}

func newDeck(rng *rand.Rand, weights ...int) *deck {
	g := 0
	for _, w := range weights {
		g = gcd(g, w)
	}
	d := &deck{rng: rng}
	for i, w := range weights {
		for j := 0; j < w/g; j++ {
			d.cards = append(d.cards, i)
		}
	}
	return d
}

// deal returns the next card, shuffling a fresh deck when one runs out.
func (d *deck) deal() int {
	if d.next == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return c
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// accountTable is the banking relation account(id, owner, balance).
func accountTable(n int, seed int64) table {
	return table{
		name: "account",
		cols: []mra.Column{mra.Col("id", mra.Int), mra.Col("owner", mra.String), mra.Col("balance", mra.Float)},
		rows: gen.AccountRows(n, seed),
	}
}

// lookupKind is a point read of one account's balance: the read-side twin of
// a transfer's row-finding evaluation.
func lookupKind(accounts, weight int) loadgen.TxKind {
	return loadgen.TxKind{
		Name:     "lookup",
		Weight:   weight,
		ReadOnly: true,
		Make: func(rng *rand.Rand) []string {
			return []string{fmt.Sprintf("select balance from account where id = %d;", rng.Intn(accounts))}
		},
	}
}

// bankStream drives the banking kinds from one random stream per session and
// keeps a model of the committed balances, applied in commit order.
type bankStream struct {
	kinds    []loadgen.TxKind
	decks    []*deck
	rngs     []*rand.Rand
	owners   []string
	balances []float64
}

// newBankStream starts the banking stream over the generated account table.
func newBankStream(seed int64, in *inputs, sessions int, kinds []loadgen.TxKind) stream {
	rows := in.tables[0].rows
	s := &bankStream{kinds: kinds, owners: make([]string, len(rows)), balances: make([]float64, len(rows))}
	for i, row := range rows {
		s.owners[i] = row[1].(string)
		s.balances[i] = row[2].(float64)
	}
	weights := make([]int, len(kinds))
	for i, k := range kinds {
		weights[i] = k.Weight
	}
	for i := 0; i < sessions; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		s.rngs = append(s.rngs, rng)
		s.decks = append(s.decks, newDeck(rng, weights...))
	}
	return s
}

// next draws the session's next transaction and binds its model effect or
// answer check.
func (s *bankStream) next(session int) (*op, error) {
	kind := s.kinds[s.decks[session].deal()]
	o := &op{write: !kind.ReadOnly, lines: kind.Make(s.rngs[session])}
	if o.write {
		type move struct {
			id  int
			amt float64
		}
		moves := make([]move, len(o.lines))
		for i, line := range o.lines {
			var sign string
			var amt float64
			if _, err := fmt.Sscanf(line, "update account set balance = balance %s %f where id = %d;", &sign, &amt, &moves[i].id); err != nil {
				return nil, fmt.Errorf("parsing transfer %q: %w", line, err)
			}
			if sign == "-" {
				amt = -amt
			}
			moves[i].amt = amt
		}
		o.apply = func() {
			// The engine evaluates balance ± amt in float64; x - y is exactly
			// x + (-y), so applying the moves in commit order keeps the model
			// bit-identical to the table.
			for _, m := range moves {
				s.balances[m.id] += m.amt
			}
		}
		return o, nil
	}
	var floor float64
	var id int
	if _, err := fmt.Sscanf(o.lines[0], "select count(*), sum(balance) from account where balance > %f;", &floor); err == nil {
		o.check = func(rows [][]any) error { return s.checkAnalytics(floor, rows) }
	} else if _, err := fmt.Sscanf(o.lines[0], "select balance from account where id = %d;", &id); err == nil {
		o.check = func(rows [][]any) error { return s.checkLookup(id, rows) }
	} else {
		return nil, fmt.Errorf("unknown read %q", o.lines[0])
	}
	return o, nil
}

// checkAnalytics verifies count(*) exactly and sum(balance) to a relative
// 1e-9 against the committed balances.
func (s *bankStream) checkAnalytics(floor float64, rows [][]any) error {
	count, sum := 0.0, 0.0
	for _, b := range s.balances {
		if b > floor {
			count++
			sum += b
		}
	}
	if len(rows) != 1 || len(rows[0]) != 2 {
		return fmt.Errorf("%w: analytics above %v returned %v", errCheck, floor, rows)
	}
	gotCount, ok := rows[0][0].(float64)
	if !ok || gotCount != count {
		return fmt.Errorf("%w: analytics above %v counted %v, model %v", errCheck, floor, rows[0][0], count)
	}
	if count == 0 && rows[0][1] == nil {
		return nil
	}
	gotSum, ok := rows[0][1].(float64)
	if !ok || math.Abs(gotSum-sum) > 1e-9*math.Abs(sum) {
		return fmt.Errorf("%w: analytics above %v summed %v, model %v", errCheck, floor, rows[0][1], sum)
	}
	return nil
}

// checkLookup verifies a point read returns the committed balance exactly.
func (s *bankStream) checkLookup(id int, rows [][]any) error {
	if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0] != s.balances[id] {
		return fmt.Errorf("%w: balance of %d read %v, model %v", errCheck, id, rows, s.balances[id])
	}
	return nil
}

// final compares the whole account table with the model, row for row.
func (s *bankStream) final(x executor) ([]string, error) {
	rep, err := x.do(0, "select id, owner, balance from account;")
	if err != nil {
		return nil, err
	}
	if !rep.ok {
		return nil, fmt.Errorf("reading final accounts: %s", rep.err)
	}
	if len(rep.rows) != len(s.balances) {
		return nil, fmt.Errorf("%w: final table has %d rows, model %d", errCheck, len(rep.rows), len(s.balances))
	}
	seen := make([]bool, len(s.balances))
	for _, row := range rep.rows {
		id, ok := row[0].(float64)
		i := int(id)
		if !ok || i < 0 || i >= len(seen) || seen[i] || row[1] != s.owners[i] || row[2] != s.balances[i] {
			return nil, fmt.Errorf("%w: final row %v does not match the model", errCheck, row)
		}
		seen[i] = true
	}
	return canonRows(rep.rows), nil
}

// The star schema: fact(k1, k2, k3, payload) and three dimensions
// dJ(keyJ, attrJ) keyed 0..dimRows-1.  Column names are unique across the
// schema so grouped outputs need no aliases.  Exactly starFilterRows rows of
// d1, at seeded keys, pass the star join's filter attr1 < starFilterBelow, so
// the join does the same amount of work at every seed.
func starTables(factRows, dimRows int, seed int64) []table {
	rng := rand.New(rand.NewSource(seed))
	fact := table{name: "fact", cols: []mra.Column{
		mra.Col("k1", mra.Int), mra.Col("k2", mra.Int), mra.Col("k3", mra.Int), mra.Col("payload", mra.Int)}}
	fact.rows = make([][]any, factRows)
	for i := range fact.rows {
		fact.rows[i] = []any{int64(rng.Intn(dimRows)), int64(rng.Intn(dimRows)), int64(rng.Intn(dimRows)), int64(rng.Intn(10000))}
	}
	tables := []table{fact}
	passing := rng.Perm(dimRows)[:starFilterRows]
	for d := 1; d <= 3; d++ {
		dim := table{name: fmt.Sprintf("d%d", d), cols: []mra.Column{
			mra.Col(fmt.Sprintf("key%d", d), mra.Int), mra.Col(fmt.Sprintf("attr%d", d), mra.Int)}}
		for k := 0; k < dimRows; k++ {
			attr := int64(rng.Intn(1 << 16))
			if d == 1 {
				attr = starFilterBelow + int64(rng.Intn(1<<16-starFilterBelow))
				if slices.Contains(passing, k) {
					attr = int64(rng.Intn(starFilterBelow))
				}
			}
			dim.rows = append(dim.rows, []any{int64(k), attr})
		}
		tables = append(tables, dim)
	}
	return tables
}

// starFilterRows of d1's rows have attr1 below starFilterBelow.
const (
	starFilterRows  = 2
	starFilterBelow = 4096
)

// olapQueries rotate in this fixed order: a three-way star join with GROUP
// BY, a filtered two-column grouped aggregate, and a global aggregate.  The
// star join's selective filter on d1 (starFilterBelow) keeps the reference
// evaluator's Cartesian products small enough to check every answer.
var olapQueries = []string{
	fmt.Sprintf("select attr2, attr3, count(*), sum(payload) from d1 join fact on key1 = k1 join d2 on k2 = key2 join d3 on k3 = key3 where attr1 < %d group by attr2, attr3;", starFilterBelow),
	"select k1, k2, count(*), sum(payload) from fact where k3 < 30 group by k1, k2;",
	"select count(*), sum(payload), min(payload), max(payload) from fact where k2 < 40;",
}

// olapStream alternates the rotating queries with single-row updates of d2
// and d3, and models the dimension attributes.  The order of operations is
// the same at every seed, so every seed runs each update after the same
// query; the seed picks the updated rows and values.
type olapStream struct {
	rng     *rand.Rand
	in      *inputs
	attrs   [3][]int64
	reads   int
	ordinal int
}

// newOlapStream starts the star-schema stream.
func newOlapStream(seed int64, in *inputs) stream {
	rng := rand.New(rand.NewSource(seed*31 + 17))
	s := &olapStream{rng: rng, in: in}
	for d := range s.attrs {
		for _, row := range in.tables[d+1].rows {
			s.attrs[d] = append(s.attrs[d], row[1].(int64))
		}
	}
	if in.oracle == nil {
		in.oracle = newOlapOracle(in.tables)
	}
	return s
}

// next returns the next operation: the next query, or after each query a
// dimension update.
func (s *olapStream) next(int) (*op, error) {
	s.ordinal++
	ordinal := s.ordinal
	if ordinal%2 == 0 {
		// Updates rewrite the grouping attributes of d2 and d3; d1, whose
		// attribute the star join filters on, stays fixed.
		d, key, attr := 1+s.rng.Intn(2), s.rng.Intn(len(s.attrs[0])), int64(s.rng.Intn(1<<16))
		return &op{
			write: true,
			lines: []string{fmt.Sprintf("update d%d set attr%d = %d where key%d = %d;", d+1, d+1, attr, d+1, key)},
			apply: func() { s.attrs[d][key] = attr },
		}, nil
	}
	q := s.reads % len(olapQueries)
	s.reads++
	var attrs [3][]int64
	if q == 0 {
		// Only the star join reads the dimensions.
		for d := range attrs {
			attrs[d] = append([]int64(nil), s.attrs[d]...)
		}
	}
	return &op{
		lines: []string{olapQueries[q]},
		check: func(rows [][]any) error { return s.in.oracle.observe(ordinal, q, attrs, rows) },
	}, nil
}

// final compares each dimension with the model and checks the fact table
// kept its size.
func (s *olapStream) final(x executor) ([]string, error) {
	var state []string
	for d := range s.attrs {
		rep, err := x.do(0, fmt.Sprintf("select key%d, attr%d from d%d;", d+1, d+1, d+1))
		if err != nil {
			return nil, err
		}
		if !rep.ok || len(rep.rows) != len(s.attrs[d]) {
			return nil, fmt.Errorf("%w: final d%d read %d rows (%s), model %d", errCheck, d+1, len(rep.rows), rep.err, len(s.attrs[d]))
		}
		for _, row := range rep.rows {
			key, _ := row[0].(float64)
			if attr, ok := row[1].(float64); !ok || key < 0 || int(key) >= len(s.attrs[d]) || int64(attr) != s.attrs[d][int(key)] {
				return nil, fmt.Errorf("%w: final d%d row %v does not match the model", errCheck, d+1, row)
			}
		}
		state = append(state, canonRows(rep.rows)...)
	}
	rep, err := x.do(0, "select count(*) from fact;")
	if err != nil {
		return nil, err
	}
	want := float64(len(s.in.tables[0].rows))
	if !rep.ok || len(rep.rows) != 1 || rep.rows[0][0] != want {
		return nil, fmt.Errorf("%w: final fact count %v (%s), want %v", errCheck, rep.rows, rep.err, want)
	}
	return state, nil
}

// canonRows renders rows as a sorted, newline-joined list, the form answers
// are compared in bag for bag.
func canonRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		b := make([]byte, 0, 32)
		for j, v := range row {
			if j > 0 {
				b = append(b, '|')
			}
			switch x := v.(type) {
			case float64:
				b = strconv.AppendFloat(b, x, 'g', -1, 64)
			case nil:
				b = append(b, "null"...)
			default:
				b = fmt.Append(b, x)
			}
		}
		out[i] = string(b)
	}
	return out
}
