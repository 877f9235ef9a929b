package main

import (
	"crypto/ed25519"
	"time"
)

// The reference load is a fixed amount of work that calls no simulator
// code, so no change to the simulator can make it faster or slower. Timed
// between operations, it measures how fast the host is at that moment. On
// a shared machine a busy neighbour can slow every thread of this one by
// up to 2× for minutes, which no median over one run can average away;
// an operation's host times divided by the reference load's time around
// it do not move with the host (see METRICS.md).
//
// It has two halves of about equal time, matching the two kinds of work
// the workloads do: a binary-heap event queue with a hash-table lookup and
// scattered reads and writes per event over a few MiB (kernel-bound), and
// Ed25519 signing and verification (crypto-bound).

// refNominal is the reference load's time on the nominal host. Host times
// are reported as they would be on a host where the reference load takes
// refNominal.
const refNominal = 100 * time.Millisecond

const (
	refQueueDepth = 1 << 12
	refTableSize  = 1 << 15
	refSlots      = 1 << 19 // 4 MiB of uint64
	refQueueSteps = 200_000
	refCryptoOps  = 600
)

type refEvent struct {
	at uint64
	id uint32
}

// refLoad holds the reference load's state, allocated once, so that
// timing it never allocates and never waits on the collector.
type refLoad struct {
	queue []refEvent
	table map[uint32]uint32
	slots []uint64
	key   ed25519.PrivateKey
	pub   ed25519.PublicKey
	msg   []byte
	sig   []byte
	sink  uint64
}

func newRefLoad() *refLoad {
	r := &refLoad{
		queue: make([]refEvent, 0, refQueueDepth),
		table: make(map[uint32]uint32, refTableSize),
		slots: make([]uint64, refSlots),
		key:   ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize)),
		msg:   make([]byte, 128),
		sig:   make([]byte, ed25519.SignatureSize),
	}
	for i := uint32(0); i < refTableSize; i++ {
		r.table[i] = i
	}
	r.pub = r.key.Public().(ed25519.PublicKey)
	return r
}

// time runs the reference load once and returns its host time.
func (r *refLoad) time() time.Duration {
	start := time.Now()
	r.runQueue()
	r.runCrypto()
	return time.Since(start)
}

func (r *refLoad) runQueue() {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	q := r.queue[:0]
	for i := 0; i < refQueueDepth; i++ {
		q = refPush(q, refEvent{at: next() % 1_000_000, id: uint32(i)})
	}
	var sum uint64
	for n := 0; n < refQueueSteps; n++ {
		var e refEvent
		q, e = refPop(q)
		v := r.table[e.id%refTableSize]
		r.table[uint32(next()%refTableSize)] = v + 1
		r.slots[(uint64(v)*0x9e3779b97f4a7c15+e.at)%refSlots] += e.at
		sum += r.slots[next()%refSlots]
		q = refPush(q, refEvent{at: e.at + next()%10_000, id: uint32(next())})
	}
	r.queue = q
	r.sink += sum
}

func (r *refLoad) runCrypto() {
	for i := 0; i < refCryptoOps; i++ {
		r.msg[i%len(r.msg)]++
		copy(r.sig, ed25519.Sign(r.key, r.msg))
		if ed25519.Verify(r.pub, r.msg, r.sig) {
			r.sink++
		}
	}
}

func refPush(q []refEvent, e refEvent) []refEvent {
	q = append(q, e)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].at <= q[i].at {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	return q
}

func refPop(q []refEvent) ([]refEvent, refEvent) {
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && q[l].at < q[m].at {
			m = l
		}
		if l+1 < n && q[l+1].at < q[m].at {
			m = l + 1
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return q, top
}
