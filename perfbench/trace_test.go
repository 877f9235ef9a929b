package main

import (
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 50): 40 ms, not 50 ms.
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 20 * ms, End: 50 * ms},
		// A disjoint child covers [60, 70), and one spilling past the
		// parent's end counts only up to it: [95, 100).
		{ID: 3, Parent: 0, Name: "a", Start: 60 * ms, End: 70 * ms},
		{ID: 4, Parent: 0, Name: "c", Start: 95 * ms, End: 120 * ms},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 1, Name: "leaf", Start: 15 * ms, End: 25 * ms},
	}
	got := totals(spans)
	want := map[string]spanTotals{
		"root": {Count: 1, Total: 100 * ms, Self: 45 * ms},
		"a":    {Count: 2, Total: 40 * ms, Self: 30 * ms},
		"b":    {Count: 1, Total: 30 * ms, Self: 30 * ms},
		"c":    {Count: 1, Total: 25 * ms, Self: 25 * ms},
		"leaf": {Count: 1, Total: 10 * ms, Self: 10 * ms},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestRecorderNestsAndNilIsNoop(t *testing.T) {
	tr := newTracer("run")
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tot := totals(tr.spans); tot["outer"].Self > tot["outer"].Total {
		t.Errorf("self %v exceeds total %v", tot["outer"].Self, tot["outer"].Total)
	}
	var off *tracer
	off.end(off.begin("x"))
}
