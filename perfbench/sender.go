package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"time"
)

// maxRetries bounds the conflict retries of one transaction; a transaction
// that still conflicts after them counts as failed.
const maxRetries = 10

// reply is an executor's answer to one command line.
type reply struct {
	ok       bool
	conflict bool
	err      string
	// rows is the first result set, numbers as float64 (the wire's JSON
	// numbers), so every executor's answers compare alike.
	rows [][]any
}

// executor runs command lines on behalf of numbered sessions, with the
// semantics of an xraserve session: begin / commit / rollback brackets, and
// auto-commit for a statement outside a bracket.
type executor interface {
	do(session int, line string) (reply, error)
}

// sender sends the operations of every session from one goroutine.  A seeded
// draw picks the session that sends its next line, so the interleaving, and
// therefore every conflict, depends only on the seed.
type sender struct {
	x        executor
	s        stream
	pick     *rand.Rand
	inflight []*txState
	started  int
	// trace, when set, is told which operation each line belongs to.
	trace *recorder
	// stream identifies the sequence of lines sent and their outcomes.
	stream hash.Hash64

	// tally counts the timed operations; warm tallies the untimed ones.
	tally, warm tally
}

// txState is one operation in flight: its script of lines and progress.
type txState struct {
	op       *op
	index    int
	script   []string
	next     int
	attempts int
	lat      time.Duration
	// t is the tally the operation counts into.
	t *tally
}

// tally accumulates the outcome of the operations of one phase.
type tally struct {
	attempted, completed, failed int
	commits, conflicts           int
	requests                     int
	// latencies holds one sample per completed operation.
	latencies []sample
}

// sample is one completed operation's latency and kind.
type sample struct {
	d     time.Duration
	write bool
}

// newSender starts a sender over the executor and stream.
func newSender(x executor, s stream, sessions int, seed int64) *sender {
	return &sender{
		x:        x,
		s:        s,
		pick:     rand.New(rand.NewSource(seed ^ 0x5bd1e995)),
		inflight: make([]*txState, sessions),
		stream:   fnv.New64a(),
	}
}

// run starts operations until count more have started, then lets every
// operation in flight finish.  Operations started here count into the timed
// tally when timed is set, into the warm-up tally otherwise.
func (d *sender) run(count int, timed bool) error {
	limit := d.started + count
	eligible := make([]int, 0, len(d.inflight))
	for {
		eligible = eligible[:0]
		for s, tx := range d.inflight {
			if tx != nil || d.started < limit {
				eligible = append(eligible, s)
			}
		}
		if len(eligible) == 0 {
			return nil
		}
		s := eligible[0]
		if len(eligible) > 1 {
			s = eligible[d.pick.Intn(len(eligible))]
		}
		if d.inflight[s] == nil {
			o, err := d.s.next(s)
			if err != nil {
				return err
			}
			tx := &txState{op: o, index: d.started, script: o.lines, t: &d.warm}
			if timed {
				tx.t = &d.tally
			}
			if len(o.lines) > 1 {
				tx.script = append(append([]string{"begin"}, o.lines...), "commit")
			}
			d.inflight[s] = tx
			d.started++
			tx.t.attempted++
		}
		if err := d.step(s); err != nil {
			return err
		}
	}
}

// step sends the session's next line and advances its operation.
func (d *sender) step(s int) error {
	tx := d.inflight[s]
	line := tx.script[tx.next]
	d.trace.setOp(tx.index)
	rep, err := d.send(s, line, tx)
	if err != nil {
		return err
	}
	fmt.Fprintf(d.stream, "%d %s %t %t\n", s, line, rep.ok, rep.conflict)

	last := tx.next == len(tx.script)-1
	switch {
	case rep.ok && !last:
		tx.next++
		return nil
	case rep.ok:
		if tx.op.write {
			tx.t.commits++
			tx.op.apply()
		} else if err := tx.op.check(rep.rows); err != nil {
			return err
		}
		d.finish(s)
		return nil
	case rep.conflict && tx.op.write && last:
		tx.t.conflicts++
		if tx.attempts < maxRetries {
			tx.attempts++
			tx.next = 0
			return nil
		}
	default:
		// A failed statement inside a bracket leaves the session aborted;
		// rollback returns it to idle.
		if len(tx.script) > 1 && line != "begin" && !last {
			if _, err := d.send(s, "rollback", tx); err != nil {
				return err
			}
		}
	}
	tx.t.failed++
	d.inflight[s] = nil
	return nil
}

// send runs one line for the operation, adding its round trip to the
// operation's latency.
func (d *sender) send(s int, line string, tx *txState) (reply, error) {
	start := time.Now()
	rep, err := d.x.do(s, line)
	tx.lat += time.Since(start)
	if err != nil {
		return rep, fmt.Errorf("session %d line %q: %w", s, line, err)
	}
	tx.t.requests++
	return rep, nil
}

// finish records a completed operation's latency under its kind.
func (d *sender) finish(s int) {
	tx := d.inflight[s]
	d.inflight[s] = nil
	tx.t.completed++
	tx.t.latencies = append(tx.t.latencies, sample{d: tx.lat, write: tx.op.write})
}
