package radio

import "testing"

func newTestChannel(t *testing.T, seed uint64) *ShardChannel {
	t.Helper()
	c, err := NewShardChannel(seed, DefaultParams(), 20)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShardChannelPure checks the reception verdict is a pure function of
// (seed, tick, from, to, dist, density): two independent channel
// instances agree on every decision.
func TestShardChannelPure(t *testing.T) {
	a := newTestChannel(t, 77)
	b := newTestChannel(t, 77)
	for tick := uint64(0); tick < 300; tick++ {
		from, to := NodeID(tick%17), NodeID(tick%23+17)
		dist := float64(tick%350) + 0.5
		if a.Receive(tick, from, to, dist, int(tick%40)) != b.Receive(tick, from, to, dist, int(tick%40)) {
			t.Fatalf("verdict diverged at tick %d", tick)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	c := newTestChannel(t, 78)
	diff := 0
	for tick := uint64(0); tick < 300; tick++ {
		dist := 200.0
		if a.Receive(tick, 1, 2, dist, 10) != c.Receive(tick, 1, 2, dist, 10) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seed change did not affect any verdict")
	}
}

// TestShardChannelDistanceCutoff checks the two hard distance regimes:
// certain inside RangeReliable at zero load, impossible beyond RangeMax.
func TestShardChannelDistanceCutoff(t *testing.T) {
	c := newTestChannel(t, 5)
	p := c.Params()
	for tick := uint64(0); tick < 200; tick++ {
		if !c.Receive(tick, 1, 2, p.RangeReliable-1, 0) {
			t.Fatalf("reliable-range beacon lost at tick %d under zero load", tick)
		}
		if c.Receive(tick, 1, 2, p.RangeMax+1, 0) {
			t.Fatalf("out-of-range beacon delivered at tick %d", tick)
		}
	}
	s := c.Stats()
	if s.Delivered != 200 || s.LostRange != 200 || s.LostLoad != 0 {
		t.Fatalf("stats = %+v, want 200 delivered / 200 range-lost", s)
	}
}

// TestShardChannelLoadLoss checks collision loss grows with sender
// density and stays under the configured cap.
func TestShardChannelLoadLoss(t *testing.T) {
	c := newTestChannel(t, 6)
	if c.CollisionProb(0) != 0 {
		t.Fatalf("CollisionProb(0) = %v", c.CollisionProb(0))
	}
	if got, cap := c.CollisionProb(20), maxCollisionLoss/2; got != cap {
		t.Fatalf("CollisionProb(densityHalf) = %v, want %v", got, cap)
	}
	lossAt := func(density int) int {
		ch := newTestChannel(t, 6)
		for tick := uint64(0); tick < 2000; tick++ {
			ch.Receive(tick, 1, 2, 50, density)
		}
		return int(ch.Stats().LostLoad)
	}
	low, high := lossAt(2), lossAt(200)
	if low >= high {
		t.Fatalf("collision loss not increasing with density: %d at d=2 vs %d at d=200", low, high)
	}
	if frac := float64(high) / 2000; frac > maxCollisionLoss {
		t.Fatalf("loss fraction %v exceeds cap %v", frac, maxCollisionLoss)
	}
}

// TestShardStatsAdd checks per-shard counter merging.
func TestShardStatsAdd(t *testing.T) {
	a := Stats{Sent: 1, Delivered: 2, LostRange: 3, LostLoad: 4, BytesOnAir: 5}
	b := Stats{Sent: 10, Delivered: 20, LostRange: 30, LostLoad: 40, BytesOnAir: 50}
	want := Stats{Sent: 11, Delivered: 22, LostRange: 33, LostLoad: 44, BytesOnAir: 55}
	if got := a.Add(b); got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
	if got := b.Add(a); got != want {
		t.Fatalf("Add not commutative: %+v", got)
	}
}
