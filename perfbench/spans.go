package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call recorded by the traced run, in nanoseconds since
// the recorder's epoch. Parent is the index of the enclosing span (-1 at
// the top); the spans of one round all point at that round's span.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for the whole traced run; write dumps
// them at the end. It is safe for concurrent use: the timing wrappers
// record from the engine's worker goroutines. parent is the span that
// concurrent children attach to (the round being stepped).
type recorder struct {
	epoch  time.Time
	mu     sync.Mutex
	spans  []span
	parent atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.parent.Store(-1)
	return r
}

// now reads the wall clock. The timing wrappers call it from inside the
// program's deterministic training and formation paths; the reading only
// lands in the span record and never feeds back into a result.
func (r *recorder) now() int64 {
	//lint:ignore wallclock span timestamps are measurement only and never reach the program
	return int64(time.Since(r.epoch))
}

// begin opens a span under the current parent and returns its index.
func (r *recorder) begin(name string) int {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: int(r.parent.Load()), Start: t, End: -1})
	return len(r.spans) - 1
}

// end closes span i and returns its duration.
func (r *recorder) end(i int) time.Duration {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = t
	return time.Duration(t - r.spans[i].Start)
}

// add records a span that was timed elsewhere, under the current parent.
// It is a no-op on a nil recorder, so untraced runs can share the code.
func (r *recorder) add(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: int(r.parent.Load()),
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
}

// enter makes span i the parent of spans opened until leave.
func (r *recorder) enter(i int) { r.parent.Store(int64(i)) }
func (r *recorder) leave()      { r.parent.Store(-1) }

// children returns the closed spans named name whose parent is i.
func (r *recorder) children(i int, name string) [][2]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out [][2]int64
	for _, s := range r.spans {
		if s.Parent == i && s.Name == name && s.End >= 0 {
			out = append(out, [2]int64{s.Start, s.End})
		}
	}
	return out
}

// busy is the summed duration of intervals, counting overlaps once per
// interval (goroutine time).
func busy(iv [][2]int64) int64 {
	var t int64
	for _, x := range iv {
		t += x[1] - x[0]
	}
	return t
}

// coverage is the length of the union of intervals (wall time during which
// at least one of them was open).
func coverage(iv [][2]int64) int64 {
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(a, b int) bool { return s[a][0] < s[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range s {
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write dumps the spans as JSON into path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
