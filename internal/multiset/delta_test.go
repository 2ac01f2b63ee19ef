package multiset

import (
	"math/rand"
	"testing"

	"mra/internal/schema"
	"mra/internal/tuple"
)

// randomRelation builds a relation of up to span distinct single-int tuples
// with multiplicities in [1, 4].
func randomRelation(rng *rand.Rand, span int) *Relation {
	r := New(intSchema(1))
	for v := 0; v < span; v++ {
		if rng.Intn(2) == 0 {
			r.Add(tuple.Ints(int64(v)), uint64(1+rng.Intn(4)))
		}
	}
	return r
}

func TestDiffSharedTableIsEmpty(t *testing.T) {
	r := New(intSchema(1))
	r.Add(tuple.Ints(1), 2)
	r.Add(tuple.Ints(2), 1)
	add, remove := Diff(r, r.Clone())
	if !add.IsEmpty() || !remove.IsEmpty() {
		t.Fatalf("diff of a COW clone must be empty, got add=%v remove=%v", add, remove)
	}
}

func TestDiffApplyDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		base := randomRelation(rng, 12)
		next := randomRelation(rng, 12)
		add, remove := Diff(base, next)

		// Add and remove are disjoint by construction.
		add.Each(func(tp tuple.Tuple, _ uint64) bool {
			if remove.Contains(tp) {
				t.Fatalf("trial %d: tuple %v in both add and remove", trial, tp)
			}
			return true
		})

		got := base.Clone()
		got.ApplyDelta(add, remove)
		if !got.Equal(next) {
			t.Fatalf("trial %d: (base ∸ remove) ⊎ add = %v, want %v (base %v, add %v, remove %v)",
				trial, got, next, base, add, remove)
		}
		// The delta must not have mutated base through the COW clone.
		add2, remove2 := Diff(base, next)
		if !add2.Equal(add) || !remove2.Equal(remove) {
			t.Fatalf("trial %d: Diff is not stable over ApplyDelta on a clone", trial)
		}
	}
}

func TestApplyDeltaMergesDisjointWriters(t *testing.T) {
	base := New(intSchema(1))
	for v := int64(0); v < 4; v++ {
		base.Add(tuple.Ints(v), 1)
	}
	// Writer A bumps tuple 0's multiplicity; writer B deletes tuple 3 and
	// inserts tuple 9.  Applied in either order the merged state is the same.
	mk := func(order [2]int) *Relation {
		addA, remA := New(intSchema(1)), New(intSchema(1))
		addA.Add(tuple.Ints(0), 2)
		addB, remB := New(intSchema(1)), New(intSchema(1))
		remB.Add(tuple.Ints(3), 1)
		addB.Add(tuple.Ints(9), 1)
		deltas := [2][2]*Relation{{addA, remA}, {addB, remB}}
		got := base.Clone()
		for _, i := range order {
			got.ApplyDelta(deltas[i][0], deltas[i][1])
		}
		return got
	}
	ab, ba := mk([2]int{0, 1}), mk([2]int{1, 0})
	if !ab.Equal(ba) {
		t.Fatalf("disjoint deltas must commute: A;B=%v B;A=%v", ab, ba)
	}
	if ab.Multiplicity(tuple.Ints(0)) != 3 || ab.Contains(tuple.Ints(3)) || !ab.Contains(tuple.Ints(9)) {
		t.Fatalf("merged state wrong: %v", ab)
	}
}

func TestApplyDeltaClampsAtZero(t *testing.T) {
	base := New(intSchema(1))
	base.Add(tuple.Ints(1), 1)
	remove := New(intSchema(1))
	remove.Add(tuple.Ints(1), 5)
	remove.Add(tuple.Ints(2), 1) // not present at all
	got := base.Clone()
	got.ApplyDelta(nil, remove)
	if !got.IsEmpty() {
		t.Fatalf("monus must clamp at zero, got %v", got)
	}
}

func TestEachHashMatchesEach(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := randomRelation(rng, 32)
	seen := make(map[uint64]uint64)
	r.EachHash(func(tp tuple.Tuple, h uint64, n uint64) bool {
		if h != tp.Hash() {
			t.Fatalf("cached hash %d != recomputed %d for %v", h, tp.Hash(), tp)
		}
		seen[h] += n
		return true
	})
	total := uint64(0)
	for _, n := range seen {
		total += n
	}
	if total != r.Cardinality() {
		t.Fatalf("EachHash covered %d occurrences, want %d", total, r.Cardinality())
	}
}

func TestContainsHashTracksLiveness(t *testing.T) {
	r := New(intSchema(1))
	tp := tuple.Ints(42)
	if r.ContainsHash(tp.Hash()) {
		t.Fatal("empty relation must not contain the hash")
	}
	r.Add(tp, 2)
	if !r.ContainsHash(tp.Hash()) {
		t.Fatal("live tuple's hash must be contained")
	}
	r.Remove(tp, 2)
	if r.ContainsHash(tp.Hash()) {
		t.Fatal("tombstoned tuple's hash must not be contained")
	}
}

// collect sums a chunk stream into a relation.
func collect(s schema.Relation, each func(fn func(tuple.Tuple, uint64) bool)) *Relation {
	out := New(s)
	each(func(tp tuple.Tuple, n uint64) bool {
		out.Add(tp, n)
		return true
	})
	return out
}

// TestThenMatchesDiff folds random step sequences — removals clamped by
// monus, additions, both sides at once — into one net delta and checks it
// against Diff of the rebuilt relation after every step: the pending delta of
// a transaction must be exactly what diffing its current state against the
// snapshot would give, since commit validation keys off it.
func TestThenMatchesDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		base := randomRelation(rng, 10)
		cur := base.Clone()
		var net Delta
		for step := 0; step < 8; step++ {
			var d Delta
			if rng.Intn(3) > 0 {
				d.Remove = randomRelation(rng, 10)
			}
			if rng.Intn(3) > 0 {
				d.Add = randomRelation(rng, 10)
			}
			net.Then(base, d)
			cur.ApplyDelta(d.Add, d.Remove)

			wantAdd, wantRemove := Diff(base, cur)
			gotAdd, gotRemove := net.Add, net.Remove
			if gotAdd == nil {
				gotAdd = New(base.schema)
			}
			if gotRemove == nil {
				gotRemove = New(base.schema)
			}
			if !gotAdd.Equal(wantAdd) || !gotRemove.Equal(wantRemove) {
				t.Fatalf("trial %d step %d: net delta +%v −%v, Diff gives +%v −%v",
					trial, step, gotAdd, gotRemove, wantAdd, wantRemove)
			}
		}
	}
}

// TestThenAdoptsPureInsertCopyOnWrite checks the O(1) first-insert path: the
// adopted step must not be mutated by later folds.
func TestThenAdoptsPureInsertCopyOnWrite(t *testing.T) {
	base := FromTuples(intSchema(1), tuple.Ints(1))
	step := FromTuples(intSchema(1), tuple.Ints(2), tuple.Ints(3))
	var net Delta
	net.Then(base, Delta{Add: step})
	net.Then(base, Delta{Remove: FromTuples(intSchema(1), tuple.Ints(2))})
	if step.Cardinality() != 2 || !step.Contains(tuple.Ints(2)) {
		t.Fatalf("fold mutated the adopted step: %v", step)
	}
	if want := FromTuples(intSchema(1), tuple.Ints(3)); !net.Add.Equal(want) || !net.Remove.IsEmpty() {
		t.Fatalf("net delta +%v −%v, want +%v", net.Add, net.Remove, want)
	}
}

// TestOverlayMatchesMaterialised reads random net deltas through an Overlay
// every way a scan leaf can — whole, batched, hash-partitioned, and cut into
// entry ranges — and checks each against the materialised relation, along
// with the counts the planner and statements read off the view.
func TestOverlayMatchesMaterialised(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		base := randomRelation(rng, 16)
		if trial%2 == 0 {
			// Tombstones in the base arena must stay invisible.
			base.Remove(tuple.Ints(int64(rng.Intn(16))), 1)
		}
		want := base.Clone()
		want.ApplyDelta(randomRelation(rng, 16), randomRelation(rng, 16))
		add, remove := Diff(base, want)
		if trial%3 == 1 {
			// Removal entries in the reverse of base's arena order.
			rev := New(base.schema)
			ts := remove.Distinct()
			for i := len(ts) - 1; i >= 0; i-- {
				rev.Add(ts[i], remove.Multiplicity(ts[i]))
			}
			remove = rev
		}
		if trial%5 == 0 {
			add, remove = New(base.schema), New(base.schema)
			want = base
		}
		o := NewOverlay(base, Delta{Add: add, Remove: remove})
		s := base.schema

		if got := o.Relation(); !got.Equal(want) {
			t.Fatalf("trial %d: Relation() = %v, want %v", trial, got, want)
		}
		if got := collect(s, o.Each); !got.Equal(want) {
			t.Fatalf("trial %d: Each = %v, want %v", trial, got, want)
		}
		for _, size := range []int{1, 3, 256} {
			got := collect(s, func(fn func(tuple.Tuple, uint64) bool) {
				o.EachBatch(size, func(ts []tuple.Tuple, cs []uint64) bool {
					for i := range ts {
						fn(ts[i], cs[i])
					}
					return true
				})
			})
			if !got.Equal(want) {
				t.Fatalf("trial %d: EachBatch(%d) = %v, want %v", trial, size, got, want)
			}
		}
		for _, parts := range []int{1, 2, 3} {
			got := New(s)
			for p := 0; p < parts; p++ {
				got.MergeFrom(collect(s, func(fn func(tuple.Tuple, uint64) bool) { o.EachInPartition(p, parts, fn) }))
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d: EachInPartition over %d parts = %v, want %v", trial, parts, got, want)
			}
		}
		for _, morsel := range []int{1, 2, 5} {
			got := New(s)
			for lo := -1; lo < o.EntrySpan(); lo += morsel {
				got.MergeFrom(collect(s, func(fn func(tuple.Tuple, uint64) bool) { o.EachEntryRange(lo, lo+morsel, fn) }))
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d: EachEntryRange by %d = %v, want %v", trial, morsel, got, want)
			}
		}
		if o.Cardinality() != want.Cardinality() || o.DistinctCount() != want.DistinctCount() {
			t.Fatalf("trial %d: overlay counts %d/%d, want %d/%d", trial,
				o.Cardinality(), o.DistinctCount(), want.Cardinality(), want.DistinctCount())
		}
		probe := randomRelation(rng, 16)
		wantHit, _ := Intersection(want, probe)
		if got := o.Intersect(probe); !got.Equal(wantHit) {
			t.Fatalf("trial %d: Intersect = %v, want %v", trial, got, wantHit)
		}
	}
}

// TestCloneCompactsTombstones pins arena reclamation: a relation updated
// through copy-on-write clones — every update tombstones one entry and
// appends another, as committed updates do to the live instance — keeps its
// entry span within twice its live size, with its contents unchanged.
func TestCloneCompactsTombstones(t *testing.T) {
	const live = 64
	r := New(intSchema(2))
	for k := int64(0); k < live; k++ {
		r.Add(tuple.Ints(k, 0), 1)
	}
	rng := rand.New(rand.NewSource(19))
	balance := make([]int64, live)
	for i := 0; i < 1000; i++ {
		k := int64(rng.Intn(live))
		snap := r.Clone() // a reader pins the current table
		r.ApplyDelta(FromTuples(r.schema, tuple.Ints(k, balance[k]+1)), FromTuples(r.schema, tuple.Ints(k, balance[k])))
		balance[k]++
		if span := r.EntrySpan(); span > 2*live+1 {
			t.Fatalf("update %d: entry span %d for %d live tuples", i, span, live)
		}
		if snap.Multiplicity(tuple.Ints(k, balance[k]-1)) != 1 {
			t.Fatalf("update %d: compaction disturbed a reader's table", i)
		}
	}
	want := New(intSchema(2))
	for k := int64(0); k < live; k++ {
		want.Add(tuple.Ints(k, balance[k]), 1)
	}
	if !r.Equal(want) || r.DistinctCount() != live {
		t.Fatalf("contents changed by compaction: %v", r)
	}
}
