package main

import "testing"

// The reference load must not allocate: a collection started by it would
// bill the simulator's garbage to the host-speed measurement.
func TestReferenceLoadAllocatesNothing(t *testing.T) {
	r := newRefLoad()
	if n := testing.AllocsPerRun(2, func() { r.time() }); n != 0 {
		t.Errorf("reference load allocates %v times per run", n)
	}
}
