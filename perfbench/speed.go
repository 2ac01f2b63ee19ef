package main

import (
	"runtime"
	"slices"
	"time"
)

// The machine the benchmark was tuned on is a 2-vCPU virtual machine whose
// speed drifts with the load of the other guests on its host: the same
// stream at the same seed ran up to a quarter slower, in CPU time as well as
// wall time, for minutes at a time.  That is longer than a run, so no
// statistic over one run's rounds removes it.  Each run therefore also times
// a fixed piece of Go work after every round, and scales its timing metrics
// by the workload's referenceUnit ÷ the median time of that work over the
// run: a run on a slowed host is scaled back to the speed the machine
// usually had.  The work calls no engine code and runs with no database
// open, so a change to the engine does not move it.

// unitsPerRound is how many units of calibration work follow each round.
const unitsPerRound = 4

// hostUnit forces a GC, so that the calibration starts from the same heap
// whatever the round left behind, and returns the mean time of one unit of
// calibration work.
func hostUnit() time.Duration {
	runtime.GC()
	var sum int64
	start := time.Now()
	for i := 0; i < unitsPerRound; i++ {
		sum += calibrationWork()
	}
	d := time.Since(start) / unitsPerRound
	runtime.KeepAlive(sum)
	return d
}

// calibrationItem is a row of the calibration work.
type calibrationItem struct {
	key, val int64
	name     string
}

// calibrationWork is a fixed piece of the kind of work the engine does,
// allocating small objects, building and probing a hash map and sorting,
// without calling any of the engine's code.  It returns a checksum.
func calibrationWork() int64 {
	const n = 20000
	items := make([]*calibrationItem, n)
	m := make(map[int64]*calibrationItem)
	x := uint64(88172645463325252)
	for i := range items {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		it := &calibrationItem{key: int64(x % 1000003), val: int64(i), name: string(rune('a' + i%26))}
		items[i] = it
		m[it.key] = it
	}
	var sum int64
	for i := 0; i < n; i++ {
		if it, ok := m[items[(i*7919)%n].key]; ok {
			sum += it.val
		}
	}
	slices.SortFunc(items, func(a, b *calibrationItem) int { return int(a.key - b.key) })
	return sum + items[n/2].key
}
