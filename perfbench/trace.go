package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is -1 for
// a root span. Start and End are offsets from the recorder's start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans in memory. Calls nest on one goroutine, so the
// innermost open span is the parent of the next one. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	runID string
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, t0: time.Now()}
}

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// spanTotals is the summed duration and self time of all spans of one name.
type spanTotals struct {
	Count       int
	Total, Self time.Duration
}

// totals sums spans by name. Self time is a span's duration minus the
// union of its children's intervals clipped to the span, so overlapping
// children are not subtracted twice.
func totals(spans []span) map[string]spanTotals {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanTotals)
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Total += s.End - s.Start
		t.Self += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = t
	}
	return out
}

// covered returns the length of the union of the children's intervals
// inside the parent's interval.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return sum + curHi - curLo
}

// write saves the spans as JSON lines, one span per line, each carrying
// the run id.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			Run string `json:"run"`
			span
		}{t.runID, s}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
