package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// mode selects how a round reaches the database.
type mode int

const (
	// endToEnd runs through xraserve over loopback TCP, or through the
	// library facade for facade workloads.
	endToEnd mode = iota
	// replay runs in process through the layers' public functions.
	replay
	// traced is replay with a span around every layer call.
	traced
	// counted is replay with the plans' execution statistics on.
	counted
)

// roundStats is what one round measured.
type roundStats struct {
	tally                 tally
	setup, elapsed, cpu   time.Duration
	alloc                 uint64
	gcCycles              uint32
	gcPause               time.Duration
	liveHeap              uint64
	analyze               time.Duration
	wire                  time.Duration
	wireRequests          int
	scanned, rowsOut      uint64
	materialised          uint64
	keylog                int
	spans                 []span
	streamHash, stateHash uint64
	// hostUnit is the time of one unit of calibration work after the round.
	hostUnit time.Duration
}

// round sets up a fresh database, warms it up with the first operations of
// the seeded stream, and measures the next ones.  Set-up time runs from the
// generated rows to the first timed operation; everything after the timed
// phase (the final-state check, shutdown) is outside every metric.
func (w *workload) round(seed int64, in *inputs, m mode) (rs roundStats, err error) {
	runtime.GC()
	start := time.Now()
	var c *conns
	if m == endToEnd && w.serve {
		if c, err = dialSessions(w.sessions); err != nil {
			return rs, err
		}
	}
	// Everything live now, the clients included, is the benchmark's.
	base := liveHeap()
	var fx *fixture
	if m == endToEnd {
		fx, err = w.openEndToEnd(in, c)
	} else {
		fx, err = w.openReplay(in)
	}
	if err != nil {
		if c != nil {
			c.close()
		}
		return rs, err
	}
	defer func() {
		if cerr := fx.close(); err == nil {
			err = cerr
		}
	}()
	s := w.stream(seed, in)
	d := newSender(fx.x, s, w.sessions, seed)
	if err := d.run(w.warmup, false); err != nil {
		return rs, err
	}
	rs.setup = time.Since(start)
	rs.analyze = fx.analyze

	if m == traced {
		d.trace = newRecorder()
		fx.inproc.rec = d.trace
	}
	if fx.inproc != nil {
		fx.inproc.counting = m == counted
		fx.inproc.scanned, fx.inproc.rowsOut, fx.inproc.materialised = 0, 0, 0
	}
	if fx.tcp != nil {
		rs.wire, rs.wireRequests = -fx.tcp.wire, -fx.tcp.requests
	}
	before := readUsage()
	t0 := time.Now()
	err = d.run(w.ops, true)
	rs.elapsed = time.Since(t0)
	after := readUsage()
	if err != nil {
		return rs, err
	}
	rs.tally = d.tally
	rs.cpu = after.cpu - before.cpu
	rs.alloc = after.mem.TotalAlloc - before.mem.TotalAlloc
	rs.gcCycles = after.mem.NumGC - before.mem.NumGC
	rs.gcPause = time.Duration(after.mem.PauseTotalNs - before.mem.PauseTotalNs)
	if fx.tcp != nil {
		rs.wire += fx.tcp.wire
		rs.wireRequests += fx.tcp.requests
	}
	if fx.inproc != nil {
		x := fx.inproc
		rs.scanned, rs.rowsOut, rs.materialised = x.scanned, x.rowsOut, x.materialised
		x.rec = nil
		for _, t := range in.tables {
			entries, _ := x.store.KeyLogStats(t.name)
			rs.keylog += entries
		}
	}
	if d.trace != nil {
		rs.spans = d.trace.spans
	}
	// The database stays reachable through fx for the final check below.
	// What was live before it was opened (the generated inputs, earlier
	// rounds' results) is not counted.
	runtime.GC()
	rs.liveHeap = max(liveHeap(), base) - base

	final, err := s.final(fx.x)
	if err != nil {
		return rs, err
	}
	rs.streamHash = d.stream.Sum64()
	h := fnv.New64a()
	for _, row := range sorted(final) {
		fmt.Fprintln(h, row)
	}
	rs.stateHash = h.Sum64()
	return rs, nil
}

// liveHeap returns the bytes of heap objects not yet freed: right after a GC,
// the heap still reachable, and after it, that plus what was allocated since.
func liveHeap() uint64 {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}

// usage is the process's CPU time and memory statistics at one instant.
type usage struct {
	cpu time.Duration
	mem runtime.MemStats
}

func readUsage() usage {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&u.mem)
	return u
}

// repeat runs fn until the budget is spent, at least once, and checks that
// every round it returns replayed the identical stream to the identical
// state: sending from one goroutine makes both a function of the seed alone.
func repeat(budget time.Duration, fn func() ([]roundStats, error)) ([][]roundStats, error) {
	var (
		out [][]roundStats
		ref *roundStats
	)
	start := time.Now()
	for len(out) == 0 || time.Since(start) < budget {
		rounds, err := fn()
		if err != nil {
			return nil, err
		}
		for i := range rounds {
			r := &rounds[i]
			if ref == nil {
				ref = r
			}
			if r.streamHash != ref.streamHash || r.stateHash != ref.stateHash || r.tally.conflicts != ref.tally.conflicts {
				return nil, fmt.Errorf("a round at the same seed diverged: stream %x/%x, state %x/%x, conflicts %d/%d",
					r.streamHash, ref.streamHash, r.stateHash, ref.stateHash, r.tally.conflicts, ref.tally.conflicts)
			}
		}
		out = append(out, rounds)
	}
	return out, nil
}

// measureEndToEnd runs end-to-end rounds for the budget and reports the
// end-to-end metrics.
func measureEndToEnd(w *workload, seed int64, budget time.Duration) (result, error) {
	in := &inputs{tables: w.tables(seed)}
	runs, err := repeat(budget, func() ([]roundStats, error) {
		rs, err := w.round(seed, in, endToEnd)
		if err != nil {
			return nil, err
		}
		rs.hostUnit = hostUnit()
		return []roundStats{rs}, nil
	})
	if err != nil {
		return result{}, err
	}
	if in.oracle != nil {
		if err := in.oracle.verify(); err != nil {
			return result{}, err
		}
	}
	rounds := make([]roundStats, len(runs))
	for i, r := range runs {
		rounds[i] = r[0]
	}
	return endToEndResult(rounds, w.referenceUnit)
}

// endToEndResult turns the rounds into the end-to-end metrics: medians of
// per-round values, and per kind of operation the median of the latency
// percentiles of batches of rounds (batchKind).  Timings are scaled by
// reference ÷ the median of the rounds' calibration units (speed.go).
func endToEndResult(rounds []roundStats, reference time.Duration) (result, error) {
	res := result{Correct: true, Metrics: make(map[string]metric)}
	var (
		completed, commits, conflicts int
		setup, rate, cpu, alloc, heap []float64
		units                         []float64
	)
	for _, r := range rounds {
		units = append(units, float64(r.hostUnit))
	}
	res.HostScale = float64(reference) / median(units)
	for _, r := range rounds {
		t := r.tally
		res.Attempted += t.attempted
		res.Failed += t.failed
		completed += t.completed
		commits += t.commits
		conflicts += t.conflicts
		ops := float64(t.completed)
		setup = append(setup, r.setup.Seconds()*res.HostScale)
		rate = append(rate, ops/r.elapsed.Seconds()/res.HostScale)
		cpu = append(cpu, msOf(r.cpu)/ops*res.HostScale)
		alloc = append(alloc, float64(r.alloc)/1024/ops)
		heap = append(heap, float64(r.liveHeap)/(1<<20))
	}
	if completed == 0 || commits == 0 {
		return res, fmt.Errorf("no operation completed (%d) or committed (%d)", completed, commits)
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", median(setup), "s")
	put("ops_per_s", median(rate), "1/s")
	for _, kind := range []struct {
		name  string
		write bool
	}{{"read", false}, {"write", true}} {
		batches := batchKind(rounds, kind.write)
		for _, q := range []float64{50, 95} {
			vs := make([]float64, len(batches))
			for i, b := range batches {
				v, err := percentile(b, q)
				if err != nil {
					return res, fmt.Errorf("%s latency: %w", kind.name, err)
				}
				vs[i] = v * res.HostScale
			}
			put(fmt.Sprintf("%s_p%g_ms", kind.name, q), median(vs), "ms")
		}
	}
	put("success_ratio", float64(completed)/float64(res.Attempted), "ratio")
	put("attempts_per_commit", float64(commits+conflicts)/float64(commits), "ratio")
	put("cpu_ms_per_op", median(cpu), "ms")
	put("alloc_kb_per_op", median(alloc), "KiB")
	put("live_heap_mb", median(heap), "MiB")
	return res, nil
}

// measureLayers runs one counting replay, then, for the budget, iterations of
// one end-to-end round, one untraced replay and one traced replay of the same
// stream, and reports the per-layer metrics.  The spans of the last traced
// round are written under outDir.
func measureLayers(w *workload, seed int64, budget time.Duration) (result, error) {
	in := &inputs{tables: w.tables(seed)}
	// The plans' row counts are the same in every round at a seed, so one
	// counting replay supplies them and no timed round collects them.
	counts, err := w.round(seed, in, counted)
	if err != nil {
		return result{}, err
	}
	runs, err := repeat(budget, func() ([]roundStats, error) {
		var rounds []roundStats
		for _, m := range []mode{endToEnd, replay, traced} {
			rs, err := w.round(seed, in, m)
			if err != nil {
				return nil, err
			}
			rounds = append(rounds, rs)
		}
		return rounds, nil
	})
	if err != nil {
		return result{}, err
	}
	if r := runs[0][0]; r.streamHash != counts.streamHash || r.stateHash != counts.stateHash {
		return result{}, fmt.Errorf("the counting replay diverged from the end-to-end round")
	}
	if in.oracle != nil {
		if err := in.oracle.verify(); err != nil {
			return result{}, err
		}
	}

	res := result{Correct: true, Metrics: make(map[string]metric)}
	per := make(map[string][]float64)
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	add("plan.rows_scanned_per_row_out", ratio(float64(counts.scanned), float64(counts.rowsOut)))
	add("plan.rows_materialised_per_op", float64(counts.materialised)/float64(counts.tally.completed))
	for _, run := range runs {
		e2e, plain, tr := run[0], run[1], run[2]
		res.Attempted += e2e.tally.attempted
		res.Failed += e2e.tally.failed
		ops := float64(tr.tally.completed)
		us := func(d time.Duration) float64 { return float64(d) / 1e3 / ops }
		if e2e.wireRequests > 0 && w.serve {
			add("server.wire_us", float64(e2e.wire)/1e3/float64(e2e.wireRequests))
			add("server.requests_per_op", float64(e2e.tally.requests)/float64(e2e.tally.completed))
		} else {
			add("server.wire_us", 0)
			add("server.requests_per_op", 0)
		}
		total, self := layerTimes(tr.spans)
		add("sqlfront.compile_us", us(total["sqlfront.compile"]))
		add("rewrite.rewrite_us", us(total["rewrite.rewrite"]))
		add("plan.plan_us", us(total["plan.plan"]))
		add("plan.execute_us", us(total["plan.execute"]))
		add("stmt.select_us", us(total["stmt.select"]))
		add("stmt.self_us", us(self["stmt.execute"]))
		add("txn.begin_us", us(total["txn.begin"]))
		add("txn.commit_us", us(total["txn.commit"]))
		add("txn.commit_ratio", ratio(float64(tr.tally.commits), float64(tr.tally.commits+tr.tally.conflicts)))
		add("txn.conflicts_per_commit", ratio(float64(tr.tally.conflicts), float64(tr.tally.commits)))
		add("storage.keylog_entries", float64(tr.keylog))
		add("stats.analyze_ms", msOf(e2e.analyze))
		add("go.gc_cycles_per_op", float64(e2e.gcCycles)/float64(e2e.tally.completed))
		add("go.gc_pause_us_per_op", float64(e2e.gcPause)/1e3/float64(e2e.tally.completed))
		add("trace.op_us", us(total["line"]))
		add("trace.overhead_pct", 100*(tr.elapsed.Seconds()/plain.elapsed.Seconds()-1))
	}
	if len(per) != len(layerUnits) {
		return res, fmt.Errorf("measured %d per-layer metrics, declared %d", len(per), len(layerUnits))
	}
	for name, vs := range per {
		unit, ok := layerUnits[name]
		if !ok {
			return res, fmt.Errorf("per-layer metric %s has no unit", name)
		}
		res.Metrics[name] = metric{Value: median(vs), Unit: unit}
	}
	last := runs[len(runs)-1][2]
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	return res, writeSpans(path, last.spans)
}

// layerUnits are the per-layer metrics and their units.
var layerUnits = map[string]string{
	"server.wire_us":                "us",
	"server.requests_per_op":        "count",
	"sqlfront.compile_us":           "us",
	"rewrite.rewrite_us":            "us",
	"plan.plan_us":                  "us",
	"plan.execute_us":               "us",
	"plan.rows_scanned_per_row_out": "ratio",
	"plan.rows_materialised_per_op": "count",
	"stmt.select_us":                "us",
	"stmt.self_us":                  "us",
	"txn.begin_us":                  "us",
	"txn.commit_us":                 "us",
	"txn.commit_ratio":              "ratio",
	"txn.conflicts_per_commit":      "ratio",
	"storage.keylog_entries":        "count",
	"stats.analyze_ms":              "ms",
	"go.gc_cycles_per_op":           "count",
	"go.gc_pause_us_per_op":         "us",
	"trace.op_us":                   "us",
	"trace.overhead_pct":            "%",
}

// batchKind cuts the rounds' latency samples of one kind into batches of
// consecutive rounds holding at least minBatch samples each; a remainder
// joins the last batch.  Latency percentiles are taken per batch and the
// median over batches is reported, so a burst of machine noise in a few
// rounds moves the result less than it would a percentile over all samples.
func batchKind(rounds []roundStats, write bool) [][]sample {
	var batches [][]sample
	var cur []sample
	for _, r := range rounds {
		for _, s := range r.tally.latencies {
			if s.write == write {
				cur = append(cur, s)
			}
		}
		if len(cur) >= minBatch {
			batches = append(batches, cur)
			cur = nil
		}
	}
	switch {
	case len(cur) == 0:
	case len(batches) == 0:
		batches = append(batches, cur)
	default:
		batches[len(batches)-1] = append(batches[len(batches)-1], cur...)
	}
	return batches
}

// minBatch is the fewest samples that leave minTail beyond a p95.
const minBatch = 200

// minTail is the fewest samples a reported percentile must have beyond it.
const minTail = 10

// percentile returns the nearest-rank q-th percentile of the samples in
// milliseconds.  It refuses samples that mix reads and writes, and a
// percentile with fewer than minTail samples beyond it.
func percentile(samples []sample, q float64) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("no samples")
	}
	ds := make([]time.Duration, len(samples))
	for i, s := range samples {
		if s.write != samples[0].write {
			return 0, fmt.Errorf("refusing a percentile pooled across reads and writes")
		}
		ds[i] = s.d
	}
	slices.Sort(ds)
	rank := max(int(math.Ceil(q/100*float64(len(ds)))), 1)
	if beyond := len(ds) - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q, len(ds), beyond, minTail)
	}
	return msOf(ds[rank-1]), nil
}

// median returns the median of the values.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or zero when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
