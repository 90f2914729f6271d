package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call. Spans of one pass or request share Op.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one pointer test per call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now is the recorder's clock in microseconds (0 on a nil recorder).
func (r *recorder) now() float64 {
	if r == nil {
		return 0
	}
	return float64(time.Since(r.t0).Nanoseconds()) / 1e3
}

// record adds a span whose start and end are already known.
func (r *recorder) record(name string, parent, op int, start, end float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start, End: end})
	r.mu.Unlock()
}

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// all returns a copy of the spans recorded so far.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the finished spans as one JSON array.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.all())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes totals, per span name, each span's duration minus the part
// of it that its child spans cover, in milliseconds.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start - covered(s, children[s.ID])) / 1e3
	}
	return out
}

// covered is the length of the union of the child intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd float64
	open := false
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b <= a {
			continue
		}
		if open && a <= curEnd {
			curEnd = max(curEnd, b)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = a, b, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}
