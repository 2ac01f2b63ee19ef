package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer.  Spans of one operation share its op
// number; parent is the index of the enclosing span, -1 at the root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory.  A nil recorder records nothing, so the
// untraced replay makes the same calls at the cost of a nil check.
type recorder struct {
	epoch time.Time
	op    int
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// setOp makes the operation the owner of the spans that follow.
func (r *recorder) setOp(op int) {
	if r != nil {
		r.op = op
	}
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent, Start: int64(time.Since(r.epoch))})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	return i
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// layerTimes sums, per span name, the spans' whole duration and their self
// time: the duration less the part their child spans cover.
func layerTimes(spans []span) (total, self map[string]time.Duration) {
	total = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		total[s.Name] += d
		self[s.Name] += d
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= d
		}
	}
	return total, self
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
