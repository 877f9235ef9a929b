package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"time"

	"vcloud/internal/cryptoprim"
	"vcloud/internal/faults"
	"vcloud/internal/geo"
	"vcloud/internal/mobility"
	"vcloud/internal/radio"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
	"vcloud/internal/store"
	"vcloud/internal/vcloud"
	"vcloud/internal/vnet"
)

// Probe timing: a probe makes probeRounds rounds of calls, in batches;
// each round makes at least probeMinCalls calls and lasts at least
// probeRound. Its time per call is the median round's, so a short stall
// of a shared machine moves it less than it would move a mean.
const (
	probeRounds   = 5
	probeBatch    = 16
	probeMinCalls = 16
	probeRound    = 10 * time.Millisecond
)

// probeStat is one probe's outcome: calls made, host time busy, the
// median round's time per call, and heap allocations per call.
type probeStat struct {
	calls  int
	busy   time.Duration
	ns     float64
	allocs float64
}

// timeProbe calls fn(i) for i = 0, 1, ... after one untimed warm-up call
// with i = -1.
func timeProbe(fn func(i int)) probeStat {
	fn(-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var p probeStat
	perCall := make([]float64, probeRounds)
	for r := range perCall {
		start := time.Now()
		n := 0
		for n < probeMinCalls || time.Since(start) < probeRound {
			for j := 0; j < probeBatch; j++ {
				fn(p.calls)
				p.calls++
				n++
			}
		}
		d := time.Since(start)
		p.busy += d
		perCall[r] = float64(d.Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&after)
	p.ns = median(perCall)
	p.allocs = float64(after.Mallocs-before.Mallocs) / float64(p.calls)
	return p
}

// Defaults for layers a workload does not drive, taken from the workload
// that does: beacon-route's fleet, auth-handshake's revoked population.
// There is no default queue depth: the scheduler probe runs only at a
// depth the workload measured, and reads 0 on `sharded`. No workload
// drives the cloud controller and its store, so their probes take the
// storage soak's shape: chaos.Soak's 50 rotating keys of 64 KiB objects
// under a (4, 2) erasure code, on a 40-member parked fleet.
const (
	defaultVehicles = 240
	defaultRevoked  = 1000
	soakFleet       = 40
	soakKeys        = 50
	soakValueBytes  = 64 << 10
)

// uniformPoints draws n points uniformly over the w × h rectangle at the
// origin.
func uniformPoints(seed int64, n int, w, h float64) []geo.Point {
	r := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: r.Float64() * w, Y: r.Float64() * h}
	}
	return pts
}

// withDefaults fills the fields the workload left zero but pending.
// Default positions are spread uniformly over beacon-route's 3 km two-way
// corridor.
func (in probeInput) withDefaults() probeInput {
	if len(in.positions) == 0 {
		in.positions = uniformPoints(1, defaultVehicles, 3000, 20)
	}
	if in.roadVehicles == 0 {
		in.roadVehicles = defaultVehicles
	}
	if in.revoked == 0 {
		in.revoked = defaultRevoked
	}
	return in
}

// probeSet collects the probes' metrics and logs each probe's calls, busy
// time and allocations.
type probeSet struct {
	out map[string]float64
	log io.Writer
}

// report records p under the metric names given; an empty name skips it.
func (ps *probeSet) report(name string, p probeStat, ns, allocs string) {
	fmt.Fprintf(ps.log, "probe %-34s calls=%-8d busy_ns=%-12d allocs_per_call=%.3f\n", name, p.calls, p.busy.Nanoseconds(), p.allocs)
	if ns != "" {
		ps.out[ns] = p.ns
	}
	if allocs != "" {
		ps.out[allocs] = p.allocs
	}
}

// probeFn is one layer probe: it times the layer's hot public function on
// the inputs, checks what the calls returned, and reports its metrics.
type probeFn func(in probeInput, seed int64, ps *probeSet) error

var probes = []struct {
	name string
	fn   probeFn
}{
	{"sim", probeSched},
	{"geo", probeRange},
	{"mobility", probeMobility},
	{"radio", probeRadioSend},
	{"radio.gcc", probeGCC},
	{"vnet", probeVnet},
	{"vcloud", probeCheckpoint},
	{"store", probeStore},
	{"faults", probeCut},
	{"cryptoprim", probeCrypto},
}

// runProbes runs every probe and returns their metrics and any failed
// checks.
func runProbes(in probeInput, seed int64, log io.Writer) (map[string]float64, []string) {
	ps := &probeSet{out: make(map[string]float64), log: log}
	var failures []string
	for _, p := range probes {
		if err := p.fn(in, seed, ps); err != nil {
			failures = append(failures, fmt.Sprintf("probe %s: %v", p.name, err))
		}
	}
	return ps.out, failures
}

// probeSched schedules and dispatches one event per call on a kernel
// holding the workload's peak queue depth.
func probeSched(in probeInput, seed int64, ps *probeSet) error {
	if in.pending == 0 {
		return nil
	}
	k := sim.NewKernel(seed)
	r := rand.New(rand.NewSource(seed))
	const horizon = int64(time.Minute)
	fired := 0
	fire := func() { fired++ }
	for i := 0; i < in.pending; i++ {
		k.At(sim.Time(1+r.Int63n(horizon)), fire)
	}
	offsets := make([]sim.Time, 1024)
	for i := range offsets {
		offsets[i] = sim.Time(1 + r.Int63n(horizon))
	}
	p := timeProbe(func(i int) {
		k.At(k.Now()+offsets[(i+1)%len(offsets)], fire)
		k.Step()
	})
	ps.report("sim.Kernel.At+Step", p, "sim.sched_pop_ns", "sim.sched_pop_allocs")
	if fired != p.calls+1 || k.Pending() != in.pending {
		return fmt.Errorf("%d calls fired %d events and left %d pending, want %d", p.calls+1, fired, k.Pending(), in.pending)
	}
	return nil
}

// bruteRange lists the points within r of pts[i], excluding i, by id.
func bruteRange(pts []geo.Point, i int, r float64) []int32 {
	var ids []int32
	for j, q := range pts {
		if j != i && pts[i].Dist(q) <= r {
			ids = append(ids, int32(j))
		}
	}
	return ids
}

func sortedCopy(ids []int32) []int32 {
	s := append([]int32(nil), ids...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s
}

func boundsOf(pts []geo.Point, margin float64) geo.Rect {
	lo, hi := pts[0], pts[0]
	for _, p := range pts {
		lo.X, lo.Y = min(lo.X, p.X), min(lo.Y, p.Y)
		hi.X, hi.Y = max(hi.X, p.X), max(hi.Y, p.Y)
	}
	return geo.NewRect(geo.Point{X: lo.X - margin, Y: lo.Y - margin}, geo.Point{X: hi.X + margin, Y: hi.Y + margin})
}

// probeRange queries every final position at radio range, on the grid
// index and on one shard's index, against a brute-force scan.
func probeRange(in probeInput, _ int64, ps *probeSet) error {
	pts := in.positions
	rng := radio.DefaultParams().RangeMax
	bounds := boundsOf(pts, rng)
	g, err := geo.NewGridIndex(bounds, rng)
	if err != nil {
		return err
	}
	sh, err := geo.NewShardedIndex(bounds, rng)
	if err != nil {
		return err
	}
	for i, p := range pts {
		g.Update(int32(i), p)
		sh.UpdateLocal(int32(i), p)
	}
	indexes := []struct {
		name, ns, allocs string
		query            func(ids []int32, pos []geo.Point, p geo.Point, r float64, exclude int32) ([]int32, []geo.Point)
	}{
		{"geo.GridIndex.WithinRangePos", "geo.range_ns", "geo.range_allocs", g.WithinRangePos},
		{"geo.ShardedIndex.WithinRangePos", "geo.sharded_range_ns", "", sh.WithinRangePos},
	}
	want := make([]int, len(pts))
	total := 0
	var ids []int32
	var pos []geo.Point
	for i, p := range pts {
		exp := bruteRange(pts, i, rng)
		want[i] = len(exp)
		total += len(exp)
		for _, idx := range indexes {
			ids, pos = idx.query(ids[:0], pos[:0], p, rng, int32(i))
			if !reflect.DeepEqual(sortedCopy(ids), exp) {
				return fmt.Errorf("%s query %d returned %d ids, brute force %d", idx.name, i, len(ids), len(exp))
			}
			for j, id := range ids {
				if pos[j] != pts[id] {
					return fmt.Errorf("%s query %d: id %d at %v, indexed at %v", idx.name, i, id, pos[j], pts[id])
				}
			}
		}
	}
	ps.out["geo.range_hits"] = float64(total)
	for _, idx := range indexes {
		hits, expHits := 0, 0
		p := timeProbe(func(i int) {
			q := (i + len(pts)) % len(pts)
			ids, pos = idx.query(ids[:0], pos[:0], pts[q], rng, int32(q))
			hits += len(ids)
			expHits += want[q]
		})
		ps.report(idx.name, p, idx.ns, idx.allocs)
		if hits != expHits {
			return fmt.Errorf("%s found %d neighbours over the timed calls, brute force %d", idx.name, hits, expHits)
		}
	}
	return nil
}

// probeMobility steps beacon-route's highway fleet one 100 ms tick per
// call.
func probeMobility(in probeInput, seed int64, ps *probeSet) error {
	net, err := roadnet.Highway(roadnet.HighwaySpec{LengthM: 3000, Segments: 3, SpeedLimit: 27, Lanes: 2})
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed))
	m, err := mobility.NewManager(net, radio.DefaultParams().RangeMax, r.Intn)
	if err != nil {
		return err
	}
	for i := 0; i < in.roadVehicles; i++ {
		e := roadnet.EdgeID(r.Intn(net.NumEdges()))
		if _, err := m.AddVehicle(e, r.Float64()*net.Edge(e).Length, mobility.DefaultProfile()); err != nil {
			return err
		}
	}
	vehicleSteps := 0
	p := timeProbe(func(int) {
		vehicleSteps += m.NumVehicles()
		m.Step(mobilityTick.Seconds())
	})
	ps.report("mobility.Manager.Step", p, "", "mobility.step_allocs")
	ps.out["mobility.step_ns_per_vehicle"] = p.ns * float64(p.calls+1) / float64(vehicleSteps)
	moving := 0
	for _, id := range m.IDs(nil) {
		if st, ok := m.State(id); ok && st.Speed > 0 {
			moving++
		}
	}
	if moving == 0 {
		return fmt.Errorf("no vehicle is moving after %d steps", p.calls+1)
	}
	return nil
}

// probeRadioSend broadcasts one frame per call from each final position
// in turn and dispatches its deliveries, 5 ms of simulated time apart.
func probeRadioSend(in probeInput, seed int64, ps *probeSet) error {
	pts := in.positions
	params := radio.DefaultParams()
	k := sim.NewKernel(seed)
	m, err := radio.NewMedium(k, boundsOf(pts, params.RangeMax), params)
	if err != nil {
		return err
	}
	for i, p := range pts {
		m.Register(radio.NodeID(i), func(radio.Frame) {})
		m.UpdatePosition(radio.NodeID(i), p)
	}
	inRange := make([]uint64, len(pts))
	for i := range pts {
		inRange[i] = uint64(len(bruteRange(pts, i, params.RangeMax)))
	}
	const gap = 5 * time.Millisecond
	var want uint64
	p := timeProbe(func(i int) {
		from := (i + len(pts)) % len(pts)
		m.Send(radio.NodeID(from), radio.Broadcast, vnet.BeaconSize, nil)
		want += inRange[from]
		t := k.Now() + gap
		k.At(t, func() {})
		_ = k.Run(t) // a kernel without Stop never errs
	})
	ps.report("radio.Medium.Send", p, "radio.send_ns", "radio.send_allocs")
	st := m.Stats()
	if st.Sent != uint64(p.calls+1) || st.Delivered+st.LostRange+st.LostLoad != want {
		return fmt.Errorf("%d broadcasts: sent %d, %d receptions accounted, %d receivers in range",
			p.calls+1, st.Sent, st.Delivered+st.LostRange+st.LostLoad, want)
	}
	return nil
}

// probeGCC feeds the bandwidth estimator one sent-and-acked message per
// call, with a one-way delay that ramps up and down.
func probeGCC(_ probeInput, _ int64, ps *probeSet) error {
	cfg := radio.BWEConfig{MinBps: 1e5, MaxBps: 2e7, StartBps: 2e6}
	e := radio.NewBWEstimator(cfg)
	const size = 1200
	p := timeProbe(func(i int) {
		sent := sim.Time(i+1) * 5 * time.Millisecond
		owd := 20*time.Millisecond + sim.Time((i+1)%200)*100*time.Microsecond
		e.OnSent(sent, size)
		e.OnAck(sent, sent+owd, size)
	})
	ps.report("radio.BWEstimator.OnAck", p, "radio.gcc_ack_ns", "")
	_, acked, _ := e.Counters()
	if acked != uint64(p.calls+1) || e.TargetBps() < cfg.MinBps || e.TargetBps() > cfg.MaxBps {
		return fmt.Errorf("%d acks counted %d, target %.0f bps outside [%.0f, %.0f]", p.calls+1, acked, e.TargetBps(), cfg.MinBps, cfg.MaxBps)
	}
	return nil
}

// probeVnet builds a node per final position, lets them beacon until each
// knows its neighbours, then lists neighbours and checks dedup.
func probeVnet(in probeInput, seed int64, ps *probeSet) error {
	pts := in.positions
	params := radio.DefaultParams()
	k := sim.NewKernel(seed)
	m, err := radio.NewMedium(k, boundsOf(pts, params.RangeMax), params)
	if err != nil {
		return err
	}
	nodes := make([]*vnet.Node, len(pts))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, p := range pts {
		if nodes[i], err = vnet.NewNode(k, m, vnet.Addr(i), vnet.Config{BeaconPeriod: beaconPeriod}, func() (geo.Point, float64, float64) {
			return p, 0, 0
		}); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	ps.out["vnet.node_new_bytes"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(pts))
	for i, p := range pts {
		m.UpdatePosition(vnet.Addr(i), p)
		if err := nodes[i].Start(); err != nil {
			return err
		}
	}
	if err := k.Run(3 * beaconPeriod); err != nil {
		return err
	}
	var buf []vnet.Neighbor
	heard, mismatched := 0, 0
	p := timeProbe(func(i int) {
		n := nodes[(i+len(nodes))%len(nodes)]
		buf = n.Neighbors(buf[:0])
		if len(buf) != n.NumNeighbors() {
			mismatched++
		}
		heard += len(buf)
	})
	ps.report("vnet.Node.Neighbors", p, "vnet.neighbors_ns", "vnet.neighbors_allocs")
	if heard == 0 || mismatched > 0 {
		return fmt.Errorf("%d neighbour lists heard nobody or disagreed with NumNeighbors %d times", p.calls+1, mismatched)
	}
	// Each distinct message is new exactly once; later copies are
	// duplicates, as when a flood reaches a node along several paths.
	src := nodes[0]
	msgs := make([]vnet.Message, 256)
	for i := range msgs {
		msgs[i] = src.NewMessage(vnet.BroadcastAddr, "probe", 100, 4, nil)
	}
	dst := nodes[len(nodes)-1]
	fresh := 0
	p = timeProbe(func(i int) {
		if !dst.Seen(msgs[(i+1)%len(msgs)]) {
			fresh++
		}
	})
	ps.report("vnet.Node.Seen", p, "vnet.seen_ns", "")
	if fresh != len(msgs) {
		return fmt.Errorf("%d of %d distinct messages were new", fresh, len(msgs))
	}
	return nil
}

// probeCheckpoint encodes and decodes a controller checkpoint holding one
// member and one in-flight task per fleet vehicle and a full applied
// ledger.
func probeCheckpoint(_ probeInput, _ int64, ps *probeSet) error {
	pol := &vcloud.DependabilityPolicy{Replicas: 3, MaxRetries: 3, RetryBackoff: time.Second}
	ck := vcloud.Checkpoint{
		Controller: vnet.Addr(soakFleet), Standby: 1, Seq: 300, NextID: 4000,
		FailoverTTL: 4 * time.Second,
		Cfg:         vcloud.ControllerConfig{AdvPeriod: time.Second, MemberTTL: 3 * time.Second, Failover: true, Fencing: true, Depend: pol},
		Epoch:       vcloud.NextEpoch(0, vnet.Addr(soakFleet)),
		Armed:       []vnet.Addr{1, 2},
	}
	for i := 0; i < soakFleet; i++ {
		ck.Members = append(ck.Members, vcloud.MemberSnapshot{Addr: vnet.Addr(i), Res: vcloud.Resources{CPU: 1000 + float64(i), Storage: 2048, Sensors: []string{"camera"}}})
		ck.Tasks = append(ck.Tasks, vcloud.TaskCheckpoint{
			Task:   vcloud.Task{ID: vcloud.TaskID(3000 + i), Ops: 1500, InputBytes: 2048, OutputBytes: 256, Depend: pol},
			Client: vnet.Addr(soakFleet), RemainingOps: 700.5, Retries: i % 3, Submitted: sim.Time(i) * time.Second,
		})
	}
	// A long soak fills the replicated ledger to its 2048-entry cap.
	for i := 0; i < 2048; i++ {
		ck.Applied = append(ck.Applied, vcloud.AppliedRecord{ID: vcloud.TaskID(i), Epoch: ck.Epoch.Counter})
	}
	var data []byte
	p := timeProbe(func(int) { data = vcloud.EncodeCheckpoint(ck) })
	ps.report("vcloud.EncodeCheckpoint", p, "vcloud.ckpt_encode_ns", "")
	var got vcloud.Checkpoint
	var decErr error
	p = timeProbe(func(int) { got, decErr = vcloud.DecodeCheckpoint(data) })
	ps.report("vcloud.DecodeCheckpoint", p, "vcloud.ckpt_decode_ns", "")
	if decErr != nil {
		return decErr
	}
	if !reflect.DeepEqual(got, ck) {
		return fmt.Errorf("DecodeCheckpoint(EncodeCheckpoint(c)) differs from c")
	}
	return nil
}

// probeStore erasure-codes one object, reconstructs it with M fragments
// missing, and repairs the key space after one member at a time drops
// out.
func probeStore(_ probeInput, seed int64, ps *probeSet) error {
	const k, m = 4, 2
	data := make([]byte, soakValueBytes)
	rand.New(rand.NewSource(seed)).Read(data)
	var shards [][]byte
	var encErr error
	p := timeProbe(func(int) { shards, encErr = store.Encode(k, m, data) })
	ps.report("store.Encode", p, "store.ec_encode_ns", "")
	if encErr != nil {
		return encErr
	}
	work := make([][]byte, k+m)
	bad := 0
	p = timeProbe(func(i int) {
		for j := range shards {
			work[j] = shards[j]
		}
		// Lose M fragments, data and parity in turn.
		for j := 0; j < m; j++ {
			work[(i+1+j*2)%(k+m)] = nil
		}
		if store.Decode(k, m, work) != nil {
			bad++
			return
		}
		for j := range shards {
			if !bytes.Equal(work[j], shards[j]) {
				bad++
				return
			}
		}
	})
	ps.report("store.Decode", p, "store.ec_decode_ns", "")
	if bad > 0 {
		return fmt.Errorf("Decode failed to restore the encoded fragments %d times", bad)
	}
	joined, err := store.Join(k, shards, len(data))
	if err != nil || !bytes.Equal(joined, data) {
		return fmt.Errorf("Join(Encode(data)) differs from data: %v", err)
	}

	members := make([]vnet.Addr, soakFleet)
	for i := range members {
		members[i] = vnet.Addr(i)
	}
	offline := vnet.Addr(-1)
	view := store.FuncView{
		MembersFn: func() []vnet.Addr { return members },
		OnlineFn:  func(a vnet.Addr) bool { return a != offline },
		DwellFn:   func(a vnet.Addr) float64 { return 600 + float64(a) },
		EpochFn:   func() uint64 { return 0 },
	}
	ec, err := store.NewErasureCoded(store.Config{K: k, M: m}, view, &store.Stats{})
	if err != nil {
		return err
	}
	keys := make([]store.Key, soakKeys)
	for i := range keys {
		keys[i] = store.Key(fmt.Sprintf("obj-%02d", i))
		if !store.PutSized(ec, "probe", keys[i], soakValueBytes).Acked {
			return fmt.Errorf("write of %s not acked", keys[i])
		}
	}
	created := 0
	p = timeProbe(func(i int) {
		offline = members[(i+1)%len(members)]
		created += ec.Repair(store.RepairReq{})
	})
	ps.report("store.ErasureCoded.Repair", p, "store.repair_ns", "")
	if created < p.calls {
		return fmt.Errorf("%d repairs after single-member losses created only %d fragments", p.calls+1, created)
	}
	for _, key := range keys {
		live := 0
		for _, h := range ec.Holders(key) {
			if h != offline {
				live++
			}
		}
		if _, ok := ec.Durable(key); !ok || live < k+m {
			return fmt.Errorf("after repair %s has %d live holders, want %d", key, live, k+m)
		}
	}
	return nil
}

// probeCut asks the fault injector whether frames between fleet pairs are
// cut while two partitions are active, against the partition geometry.
func probeCut(_ probeInput, seed int64, ps *probeSet) error {
	net, err := roadnet.ParkingLot(roadnet.ParkingLotSpec{Aisles: 4, AisleLenM: 200, AisleGapM: 40})
	if err != nil {
		return err
	}
	s, err := scenario.New(scenario.Spec{Seed: seed, Network: net, NumVehicles: soakFleet, Parked: true})
	if err != nil {
		return err
	}
	inj, err := faults.NewInjector(s)
	if err != nil {
		return err
	}
	defer inj.Close()
	type region struct {
		c geo.Point
		r float64
	}
	b := net.Bounds()
	regions := []region{
		{geo.Point{X: b.Min.X + (b.Max.X-b.Min.X)/3, Y: b.Min.Y + (b.Max.Y-b.Min.Y)/2}, 80},
		{geo.Point{X: b.Min.X + 2*(b.Max.X-b.Min.X)/3, Y: b.Min.Y + (b.Max.Y-b.Min.Y)/3}, 60},
	}
	for _, rg := range regions {
		inj.StartPartition(rg.c, rg.r)
	}
	ids := s.VehicleIDs()
	n := len(ids)
	want := make([]bool, n*n)
	cuts := 0
	for a := range ids {
		pa, _ := s.Medium.Position(radio.NodeID(ids[a]))
		for c := range ids {
			pc, _ := s.Medium.Position(radio.NodeID(ids[c]))
			for _, rg := range regions {
				if (pa.Dist(rg.c) <= rg.r) != (pc.Dist(rg.c) <= rg.r) {
					want[a*n+c] = true
				}
			}
			if want[a*n+c] {
				cuts++
			}
		}
	}
	if cuts == 0 {
		return fmt.Errorf("the partitions cut no pair of %d vehicles", n)
	}
	wrong := 0
	p := timeProbe(func(i int) {
		q := (i + 1) % (n * n)
		if inj.Cut(radio.NodeID(ids[q/n]), radio.NodeID(ids[q%n])) != want[q] {
			wrong++
		}
	})
	ps.report("faults.Injector.Cut", p, "faults.cut_ns", "")
	if wrong > 0 {
		return fmt.Errorf("Cut disagreed with the partition geometry %d times", wrong)
	}
	return nil
}

// probeCrypto times pseudonym issuance, signature and group-signature
// verification, and CRL lookups at the workload's revoked population.
func probeCrypto(in probeInput, seed int64, ps *probeSet) error {
	r := rand.New(rand.NewSource(seed))
	ca, err := cryptoprim.NewCA("probe-ca", r)
	if err != nil {
		return err
	}
	var pool *cryptoprim.PseudonymPool
	var serials []cryptoprim.Serial
	var issueErr error
	p := timeProbe(func(int) {
		pool, serials, issueErr = cryptoprim.IssuePseudonyms(ca, poolSize, 24*time.Hour, r)
	})
	ps.report("cryptoprim.IssuePseudonyms", p, "", "")
	ps.out["cryptoprim.issue_ns_per_pseudonym"] = p.ns / float64(poolSize)
	if issueErr != nil {
		return issueErr
	}
	if pool.Size() != poolSize || len(serials) != poolSize {
		return fmt.Errorf("issued %d pseudonyms and %d serials, want %d", pool.Size(), len(serials), poolSize)
	}
	for i := 0; i < pool.Size(); i++ {
		if err := cryptoprim.CheckCert(&pool.Current().Cert, ca.PublicKey(), 0); err != nil {
			return fmt.Errorf("issued certificate %d: %w", i, err)
		}
		pool.Rotate()
	}

	msg := []byte("beacon payload signed by a vehicle")
	key, err := cryptoprim.GenerateKey(r)
	if err != nil {
		return err
	}
	sig := key.Sign(msg)
	flipped := append([]byte(nil), sig...)
	flipped[len(flipped)/2] ^= 1
	if cryptoprim.Verify(key.Public, msg, flipped) {
		return fmt.Errorf("Verify accepted a signature with a flipped bit")
	}
	accepted := 0
	p = timeProbe(func(int) {
		if cryptoprim.Verify(key.Public, msg, sig) {
			accepted++
		}
	})
	ps.report("cryptoprim.Verify", p, "cryptoprim.verify_ns", "")
	if accepted != p.calls+1 {
		return fmt.Errorf("Verify accepted %d of %d valid signatures", accepted, p.calls+1)
	}

	gm, err := cryptoprim.NewGroupManager("probe-group", r)
	if err != nil {
		return err
	}
	cred, err := gm.Enroll("member", r)
	if err != nil {
		return err
	}
	gsig := cred.Sign(msg, 7)
	gbad := gsig
	gbad.Sig = append([]byte(nil), gsig.Sig...)
	gbad.Sig[0] ^= 1
	if cryptoprim.VerifyGroupSig(gm.PublicKey(), msg, gbad) {
		return fmt.Errorf("VerifyGroupSig accepted a signature with a flipped bit")
	}
	accepted = 0
	p = timeProbe(func(int) {
		if cryptoprim.VerifyGroupSig(gm.PublicKey(), msg, gsig) {
			accepted++
		}
	})
	ps.report("cryptoprim.VerifyGroupSig", p, "cryptoprim.group_verify_ns", "")
	if accepted != p.calls+1 {
		return fmt.Errorf("VerifyGroupSig accepted %d of %d valid signatures", accepted, p.calls+1)
	}

	// The CRL holds every pseudonym of the revoked population; lookups
	// are for serials that are not on it, the common case, which the
	// linear mode must scan in full.
	entries := in.revoked * poolSize
	crl := cryptoprim.NewCRL(entries)
	var s cryptoprim.Serial
	for i := 0; i < entries; i++ {
		r.Read(s[:])
		crl.Add(s)
	}
	revokedSerial := s
	absent := make([]cryptoprim.Serial, 64)
	for i := range absent {
		r.Read(absent[i][:])
	}
	for _, c := range []struct {
		name, metric string
		lookup       func(cryptoprim.Serial) (bool, int)
	}{
		{"cryptoprim.CRL.ContainsLinear", "cryptoprim.crl_linear_ns", crl.ContainsLinear},
		{"cryptoprim.CRL.ContainsBloom", "cryptoprim.crl_bloom_ns", crl.ContainsBloom},
	} {
		if hit, _ := c.lookup(revokedSerial); !hit {
			return fmt.Errorf("%s missed a revoked serial", c.name)
		}
		falseHits, scanned := 0, 0
		p = timeProbe(func(i int) {
			hit, n := c.lookup(absent[(i+1)%len(absent)])
			if hit {
				falseHits++
			}
			scanned += n
		})
		ps.report(c.name, p, c.metric, "")
		if falseHits > 0 {
			return fmt.Errorf("%s reported %d absent serials as revoked", c.name, falseHits)
		}
		if c.metric == "cryptoprim.crl_linear_ns" && scanned != (p.calls+1)*crl.Len() {
			return fmt.Errorf("%s scanned %d entries over %d lookups of a %d-entry CRL", c.name, scanned, p.calls+1, crl.Len())
		}
	}
	return nil
}
