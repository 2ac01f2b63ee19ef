package storage

import (
	"math/rand"
	"testing"

	"mra/internal/multiset"
	"mra/internal/stats"
	"mra/internal/tuple"
)

// TestStatsMaintainedThroughApplyDeltas checks the statistics lifecycle
// against the storage engine's delta-install path: once a relation is
// analyzed, every committed delta updates its summary in place — exact row
// counts, sketch-accurate distinct counts — while wholesale replacement
// invalidates it.
func TestStatsMaintainedThroughApplyDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := newKeyLogDB(t, 500)
	if _, err := db.Analyze("r"); err != nil {
		t.Fatal(err)
	}
	s, _ := db.RelationSchema("r")

	live := 500 // rows currently in the relation, all with v=0 initially
	for round := 0; round < 30; round++ {
		add, remove := multiset.New(s), multiset.New(s)
		for i := 0; i < 1+rng.Intn(20); i++ {
			add.Add(tuple.Ints(int64(500+round*100+i), int64(rng.Intn(50))), uint64(1+rng.Intn(3)))
		}
		// Remove one of the seed rows while any remain.
		if live > 0 {
			remove.Add(tuple.Ints(int64(500-live), 0), 1)
			live--
		}
		snap := db.Snapshot()
		if _, err := db.ApplyDeltas(snap.Version(), map[string]multiset.Delta{"r": {Add: add, Remove: remove}}, nil); err != nil {
			t.Fatal(err)
		}
		snap.Release()
	}

	st, ok := db.TableStats("r")
	if !ok {
		t.Fatal("statistics dropped by delta installs")
	}
	r, _ := db.Relation("r")
	rebuilt := stats.Analyze(r, 0)
	if st.Rows() != rebuilt.Rows() {
		t.Errorf("incremental rows = %v, rebuilt = %v", st.Rows(), rebuilt.Rows())
	}
	if got, want := uint64(st.Rows()), r.Cardinality(); got != want {
		t.Errorf("stats rows = %d, relation cardinality = %d", got, want)
	}
	// Sketches are grow-only: the incremental NDV may exceed the rebuilt one
	// (it still counts removed values) but must cover it within sketch error.
	for c := 0; c < st.Cols(); c++ {
		inc, iok := st.NDV(c)
		reb, rok := rebuilt.NDV(c)
		if iok != rok {
			t.Fatalf("col %d: ndv known: incremental %v, rebuilt %v", c, iok, rok)
		}
		if !iok {
			continue
		}
		if inc < reb*0.95 {
			t.Errorf("col %d: incremental ndv %v under rebuilt %v", c, inc, reb)
		}
	}
	if st.Version() == 0 || st.Version() <= rebuilt.Version() {
		t.Errorf("incremental summary not stamped with install version: %d", st.Version())
	}

	// Wholesale replacement invalidates rather than corrupts.
	if _, err := db.Apply(map[string]*multiset.Relation{"r": multiset.New(s)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.TableStats("r"); ok {
		t.Error("statistics survived wholesale Apply")
	}
}

// TestSnapshotStatsStable checks that a snapshot keeps the statistics of its
// version even while later transactions update the live summaries.
func TestSnapshotStatsStable(t *testing.T) {
	db := newKeyLogDB(t, 100)
	if _, err := db.Analyze("r"); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	defer snap.Release()
	before, ok := snap.TableStats("r")
	if !ok {
		t.Fatal("snapshot missing analyzed statistics")
	}

	s, _ := db.RelationSchema("r")
	add := multiset.New(s)
	add.Add(tuple.Ints(1000, 1), 1)
	if _, err := db.ApplyDeltas(snap.Version(), map[string]multiset.Delta{"r": {Add: add, Remove: multiset.New(s)}}, nil); err != nil {
		t.Fatal(err)
	}

	after, _ := snap.TableStats("r")
	if after != before || after.Rows() != 100 {
		t.Errorf("snapshot stats changed under a concurrent commit: %v rows", after.Rows())
	}
	liveSt, _ := db.TableStats("r")
	if liveSt.Rows() != 101 {
		t.Errorf("live stats rows = %v, want 101", liveSt.Rows())
	}
}
