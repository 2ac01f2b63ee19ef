package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// shrunk returns a copy of the named workload with small rounds.
func shrunk(t *testing.T, name string, warmup, ops int) *workload {
	t.Helper()
	w, ok := workloads[name]
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	c := *w
	c.warmup, c.ops = warmup, ops
	return &c
}

// TestOneSenderIsDeterministic guards the one-goroutine design: two runs
// at one seed send the same lines in the same order, see the same conflicts
// and leave the same state; another seed sends a different stream.
func TestOneSenderIsDeterministic(t *testing.T) {
	w := shrunk(t, "bank-mix-1k", 20, 400)
	run := func(seed int64) roundStats {
		t.Helper()
		rs, err := w.round(seed, &inputs{tables: w.tables(seed)}, endToEnd)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return rs
	}
	a, b := run(1), run(1)
	if a.streamHash != b.streamHash || a.stateHash != b.stateHash {
		t.Fatalf("same seed, different runs: stream %x/%x, state %x/%x", a.streamHash, b.streamHash, a.stateHash, b.stateHash)
	}
	if a.tally.conflicts != b.tally.conflicts || a.tally.commits != b.tally.commits {
		t.Fatalf("same seed, conflicts %d/%d commits %d/%d", a.tally.conflicts, b.tally.conflicts, a.tally.commits, b.tally.commits)
	}
	if a.tally.conflicts == 0 {
		t.Fatalf("no conflicts in %d commits: the stream does not exercise commit validation", a.tally.commits)
	}
	if c := run(2); c.streamHash == a.streamHash || c.stateHash == a.stateHash {
		t.Fatalf("seeds 1 and 2 produced the same stream or state")
	}
}

// TestReplayMatchesServer checks that the in-process replay behind the
// per-layer metrics runs the same stream, with the same conflicts, to the
// same state as the server over TCP, traced or not.
func TestReplayMatchesServer(t *testing.T) {
	w := shrunk(t, "bank-mix-1k", 20, 400)
	in := &inputs{tables: w.tables(3)}
	var ref roundStats
	for _, m := range []mode{endToEnd, replay, traced, counted} {
		rs, err := w.round(3, in, m)
		if err != nil {
			t.Fatalf("mode %d: %v", m, err)
		}
		if m == endToEnd {
			ref = rs
			continue
		}
		if rs.streamHash != ref.streamHash || rs.stateHash != ref.stateHash || rs.tally.conflicts != ref.tally.conflicts {
			t.Fatalf("mode %d diverged from the server: conflicts %d/%d", m, rs.tally.conflicts, ref.tally.conflicts)
		}
		if m == traced && len(rs.spans) == 0 {
			t.Fatal("traced replay recorded no spans")
		}
	}
}

// TestLiveHeapFollowsDatabaseSize checks that live_heap_mb measures the
// database rather than the benchmark's own data: eight times the accounts
// must give at least four times the live heap.
func TestLiveHeapFollowsDatabaseSize(t *testing.T) {
	heap := func(accounts int) uint64 {
		t.Helper()
		w := shrunk(t, "bank-mix-1k", 20, 200)
		w.tables = func(seed int64) []table { return []table{accountTable(accounts, seed)} }
		rs, err := w.round(1, &inputs{tables: w.tables(1)}, endToEnd)
		if err != nil {
			t.Fatal(err)
		}
		return rs.liveHeap
	}
	small, large := heap(2048), heap(16384)
	t.Logf("live heap: %d bytes at 2048 accounts, %d at 16384", small, large)
	if small == 0 || large < 4*small {
		t.Fatalf("live heap %d bytes at 2048 accounts, %d at 16384: not following the database", small, large)
	}
}

// TestOlapAnswersMatchReference runs a short star-schema round, checks its
// answers, and makes sure a wrong answer to each query fails the check.
func TestOlapAnswersMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 100k rows")
	}
	w := shrunk(t, "olap-star-100k", 2, 8)
	in := &inputs{tables: w.tables(1)}
	if _, err := w.round(1, in, endToEnd); err != nil {
		t.Fatal(err)
	}
	checks := slices.Clone(in.oracle.pending)
	if err := in.oracle.verify(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, c := range checks {
		if seen[c.query] {
			continue
		}
		seen[c.query] = true
		c.got = strings.Replace(c.got, "1", "2", 1)
		in.oracle.pending = []pendingCheck{c}
		if err := in.oracle.verify(); !errors.Is(err, errCheck) {
			t.Errorf("a wrong answer to %q was accepted: %v", olapQueries[c.query], err)
		}
	}
	if len(seen) != len(olapQueries) {
		t.Fatalf("the round answered %d of the %d queries", len(seen), len(olapQueries))
	}
}

// TestModelCatchesWrongAnswers makes sure the checks can fail.
func TestModelCatchesWrongAnswers(t *testing.T) {
	in := &inputs{tables: []table{accountTable(4, 1)}}
	s := newBankStream(1, in, 1, nil).(*bankStream)
	if err := s.checkLookup(0, [][]any{{s.balances[0] + 0.01}}); !errors.Is(err, errCheck) {
		t.Fatalf("wrong balance accepted: %v", err)
	}
	if err := s.checkAnalytics(-1, [][]any{{float64(len(s.balances) - 1), 0.0}}); !errors.Is(err, errCheck) {
		t.Fatalf("wrong count accepted: %v", err)
	}
}

// TestPercentileGuards checks that a percentile needs ten samples beyond it
// and is never taken over reads and writes together.
func TestPercentileGuards(t *testing.T) {
	reads := make([]sample, 200)
	for i := range reads {
		reads[i] = sample{d: time.Duration(i+1) * time.Millisecond}
	}
	if v, err := percentile(reads, 95); err != nil || v != 190 {
		t.Fatalf("p95 of 1..200 ms = %v, %v; want 190", v, err)
	}
	if _, err := percentile(reads[:199], 95); err == nil {
		t.Fatal("p95 of 199 samples leaves 9 beyond it and must be refused")
	}
	mixed := append(slices.Clone(reads), sample{d: time.Millisecond, write: true})
	if _, err := percentile(mixed, 50); err == nil {
		t.Fatal("a percentile over reads and writes must be refused")
	}
}

// TestHostScaleScalesTimingsOnly checks that a run on a host half as fast as
// the reference reports the reference's timings, and leaves counts alone.
func TestHostScaleScalesTimingsOnly(t *testing.T) {
	var lat []sample
	for i := 0; i < 400; i++ {
		lat = append(lat, sample{d: 2 * time.Millisecond, write: i%2 == 0})
	}
	rs := roundStats{setup: 2 * time.Second, elapsed: 2 * time.Second, cpu: 2 * time.Second, alloc: 1 << 20, liveHeap: 1 << 20,
		tally: tally{attempted: 400, completed: 400, commits: 200, latencies: lat}, hostUnit: 2 * time.Millisecond}
	res, err := endToEndResult([]roundStats{rs}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"setup_s": 1, "ops_per_s": 400, "read_p50_ms": 1, "write_p95_ms": 1, "cpu_ms_per_op": 2.5,
		"alloc_kb_per_op": 2.56, "live_heap_mb": 1, "success_ratio": 1}
	for name, v := range want {
		if got := res.Metrics[name].Value; math.Abs(got-v) > 1e-9*v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

// TestBenchmarkJSONMatchesOutput checks that BENCHMARK.json declares exactly
// the workloads and metrics the benchmark prints, with the same units.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, benchmark runs %v", names, workloadNames())
	}

	var lat []sample
	for i := 0; i < 400; i++ {
		lat = append(lat, sample{d: time.Millisecond, write: i%2 == 0})
	}
	rs := roundStats{setup: time.Second, elapsed: time.Second, cpu: time.Second, alloc: 1 << 20, liveHeap: 1 << 20,
		tally: tally{attempted: 400, completed: 400, commits: 200, latencies: lat}, hostUnit: time.Millisecond}
	res, err := endToEndResult([]roundStats{rs}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed map[string]string) {
		if len(declared) != len(printed) {
			t.Errorf("%s: %d declared, %d printed", kind, len(declared), len(printed))
		}
		for _, m := range declared {
			if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %s (%s) is printed with unit %q", kind, m.Name, m.Unit, unit)
			}
		}
	}
	printed := make(map[string]string)
	for name, m := range res.Metrics {
		printed[name] = m.Unit
	}
	check("end-to-end", decl.EndToEnd, printed)
	check("per-layer", decl.PerLayer, layerUnits)
}
