package main

import (
	"fmt"
	"slices"
	"strings"

	"mra/internal/eval"
	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/sqlfront"
	"mra/internal/tuple"
	"mra/internal/value"
)

// olapOracle checks the star-schema answers bag for bag outside the timed
// phase: the single-table queries against eval.Reference on the same data,
// and the star join against its answer computed directly from the generated
// rows.  Every round replays the same stream, so an answer is checked once,
// the first time its operation runs; later rounds must repeat it.
type olapOracle struct {
	tables  []table
	answers map[int]string
	pending []pendingCheck
}

// pendingCheck is an answer awaiting its check.
type pendingCheck struct {
	ordinal int
	query   int
	attrs   [3][]int64
	got     string
}

func newOlapOracle(tables []table) *olapOracle {
	return &olapOracle{tables: tables, answers: make(map[int]string)}
}

// observe records the answer of the stream's ordinal-th operation, query q,
// run while the dimensions held attrs (nil when q does not read them).
func (o *olapOracle) observe(ordinal, q int, attrs [3][]int64, rows [][]any) error {
	got := strings.Join(sorted(canonRows(rows)), "\n")
	if prev, ok := o.answers[ordinal]; ok {
		if prev != got {
			return fmt.Errorf("%w: operation %d (%s) answered differently from an earlier round", errCheck, ordinal, olapQueries[q])
		}
		return nil
	}
	o.answers[ordinal] = got
	o.pending = append(o.pending, pendingCheck{ordinal: ordinal, query: q, attrs: attrs, got: got})
	return nil
}

// verify checks every pending answer.  The single-table queries go to
// eval.Reference unrewritten, so a fault in the rewriter the engine uses
// cannot reach the expected answer; their answers depend on the fact table
// alone, which the stream never changes, so each is evaluated once.  The
// star join, written as a chain of joins, would make the reference build
// products of 100k·60³ rows, so its answer is computed here instead.
func (o *olapOracle) verify() error {
	static := make(map[int]string)
	for _, p := range o.pending {
		var want string
		if p.query == 0 {
			want = o.star(p.attrs)
		} else if w, ok := static[p.query]; ok {
			want = w
		} else {
			var err error
			if want, err = o.reference(p.query); err != nil {
				return err
			}
			static[p.query] = want
		}
		if want != p.got {
			return fmt.Errorf("%w: operation %d (%s) disagrees with the expected answer", errCheck, p.ordinal, olapQueries[p.query])
		}
	}
	o.pending = nil
	return nil
}

// reference evaluates a query over the fact table alone with eval.Reference.
func (o *olapOracle) reference(q int) (string, error) {
	src := eval.MapSource{"fact": relationOf(o.tables[0])}
	cq, err := sqlfront.CompileQuery(olapQueries[q], src.Catalog())
	if err != nil {
		return "", err
	}
	rel, err := eval.Reference{}.Eval(cq.Expr, src)
	if err != nil {
		return "", err
	}
	return strings.Join(sorted(canonRows(relRows(rel))), "\n"), nil
}

// star computes the star join's answer from the generated fact rows and the
// dimension attributes in force, indexed by key: the fact rows whose d1 row
// passes the filter, grouped by their d2 and d3 attributes.
func (o *olapOracle) star(attrs [3][]int64) string {
	type group struct{ attr2, attr3 int64 }
	type agg struct{ count, sum int64 }
	groups := make(map[group]*agg)
	for _, row := range o.tables[0].rows {
		k1, k2, k3, payload := row[0].(int64), row[1].(int64), row[2].(int64), row[3].(int64)
		if attrs[0][k1] >= starFilterBelow {
			continue
		}
		g := group{attrs[1][k2], attrs[2][k3]}
		a := groups[g]
		if a == nil {
			a = &agg{}
			groups[g] = a
		}
		a.count++
		a.sum += payload
	}
	rows := make([][]any, 0, len(groups))
	for g, a := range groups {
		rows = append(rows, []any{float64(g.attr2), float64(g.attr3), float64(a.count), float64(a.sum)})
	}
	return strings.Join(sorted(canonRows(rows)), "\n")
}

// relationOf builds a star-schema table, all of whose columns are
// integers, as a multiset relation.
func relationOf(t table) *multiset.Relation {
	attrs := make([]schema.Attribute, len(t.cols))
	for i, c := range t.cols {
		attrs[i] = schema.Attribute{Name: c.Name, Type: c.Type}
	}
	rel := multiset.New(schema.NewRelation(t.name, attrs...))
	for _, row := range t.rows {
		vals := make([]value.Value, len(row))
		for i, v := range row {
			vals[i] = value.NewInt(v.(int64))
		}
		rel.Add(tuple.New(vals...), 1)
	}
	return rel
}

// sorted sorts the strings in place and returns them.
func sorted(s []string) []string {
	slices.Sort(s)
	return s
}
