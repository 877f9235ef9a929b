package main

import (
	"fmt"
	"sort"
	"time"

	"vcloud/internal/cluster"
	"vcloud/internal/geo"
	"vcloud/internal/mobility"
	"vcloud/internal/radio"
	"vcloud/internal/roadnet"
	"vcloud/internal/routing"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

const (
	beaconPeriod = 500 * time.Millisecond
	mobilityTick = 100 * time.Millisecond
	// runSlice is the simulated length of one traced Kernel.Run call.
	runSlice  = time.Second
	warmUp    = 10 * time.Second
	routeTail = 20 * time.Second // longer than the 15 s carry timeout
)

// beaconWorld is beacon-route's world as built before its first event.
type beaconWorld struct {
	k       *sim.Kernel
	medium  *radio.Medium
	mob     *mobility.Manager
	nodes   map[mobility.VehicleID]*vnet.Node
	ids     []mobility.VehicleID // in address order
	stats   *routing.Stats
	tracker *cluster.Tracker
	routers []*routing.Greedy
}

// buildBeacon composes the kernel, radio, mobility, vnet, clustering and
// MoZo routing, as scenario.New does.
func buildBeacon(size sizeCfg, seed int64) (*beaconWorld, error) {
	net, err := roadnet.Highway(roadnet.HighwaySpec{LengthM: 3000, Segments: 3, SpeedLimit: 27, Lanes: 2})
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel(seed)
	params := radio.DefaultParams()
	medium, err := radio.NewMedium(k, net.Bounds(), params)
	if err != nil {
		return nil, err
	}
	mob, err := mobility.NewManager(net, params.RangeMax, k.NewStream("mobility").Intn)
	if err != nil {
		return nil, err
	}
	// Vehicle i goes at a seeded point of the i-th of equal slots along
	// all edges, the 30 m U-turn ramps included, so every seed gives the
	// fleet the same density and no seed crowds a ramp.
	total := 0.0
	for e := 0; e < net.NumEdges(); e++ {
		total += net.Edge(roadnet.EdgeID(e)).Length
	}
	place := k.NewStream("placement")
	nodes := make(map[mobility.VehicleID]*vnet.Node, size.vehicles)
	for i := 0; i < size.vehicles; i++ {
		at := (float64(i) + place.Float64()) / float64(size.vehicles) * total
		e := roadnet.EdgeID(0)
		for int(e) < net.NumEdges()-1 && at >= net.Edge(e).Length {
			at -= net.Edge(e).Length
			e++
		}
		id, err := mob.AddVehicle(e, min(at, net.Edge(e).Length), mobility.DefaultProfile())
		if err != nil {
			return nil, err
		}
		node, err := vnet.NewNode(k, medium, vnet.Addr(id), vnet.Config{BeaconPeriod: beaconPeriod}, func() (geo.Point, float64, float64) {
			st, ok := mob.State(id)
			if !ok {
				return geo.Point{}, 0, 0
			}
			return st.Pos, st.Speed, st.Heading
		})
		if err != nil {
			return nil, err
		}
		nodes[id] = node
		st, _ := mob.State(id)
		medium.UpdatePosition(vnet.Addr(id), st.Pos)
	}
	mob.OnDeparture(func(id mobility.VehicleID) {
		if n, ok := nodes[id]; ok {
			n.Stop()
			delete(nodes, id)
		}
	})
	// Creation order decides event order at equal timestamps, so agents
	// are made in address order, never in map order.
	w := &beaconWorld{k: k, medium: medium, mob: mob, nodes: nodes, ids: sortedIDs(mob.IDs(nil)),
		stats: &routing.Stats{}, tracker: cluster.NewTracker()}
	loc := routing.NewStaleLoc(routing.OracleLoc{Positions: medium}, k.Now, 20*time.Second)
	for _, id := range w.ids {
		r, err := cluster.NewRunner(nodes[id], cluster.MobilitySimilarity{}, time.Second, w.tracker)
		if err != nil {
			return nil, err
		}
		rt, err := routing.NewMoZo(nodes[id], w.stats, routing.GeoConfig{Loc: loc, ZoneLoc: routing.OracleLoc{Positions: medium}}, r.State, nil)
		if err != nil {
			return nil, err
		}
		w.routers = append(w.routers, rt)
	}
	return w, nil
}

// buildBeaconOnly builds beacon-route's world and drops it.
func buildBeaconOnly(size sizeCfg, seed int64) error {
	_, err := buildBeacon(size, seed)
	return err
}

// beaconRoute builds the world itself, so that the mobility tick and
// Router.Send are calls the benchmark makes and can time. After a
// warm-up, unicast packets between random vehicles are injected
// open-loop in simulated time.
func beaconRoute(size sizeCfg, seed int64, tr *tracer) (*opResult, error) {
	t0 := time.Now()
	w, err := buildBeacon(size, seed)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	k, medium, mob, nodes, ids, stats, tracker, routers := w.k, w.medium, w.mob, w.nodes, w.ids, w.stats, w.tracker, w.routers

	start := time.Now()
	var steps, pendingMax int
	var live []mobility.VehicleID
	if _, err := k.Every(mobilityTick, func() {
		sp := tr.begin("mobility.Manager.Step")
		mob.Step(mobilityTick.Seconds())
		tr.end(sp)
		steps++
		live = mob.IDs(live[:0])
		sp = tr.begin("radio.Medium.UpdatePosition")
		for _, id := range live {
			if st, ok := mob.State(id); ok {
				medium.UpdatePosition(vnet.Addr(id), st.Pos)
			}
		}
		tr.end(sp)
		pendingMax = max(pendingMax, k.Pending())
	}); err != nil {
		return nil, err
	}
	for _, id := range ids {
		if err := nodes[id].Start(); err != nil {
			return nil, err
		}
	}
	if err := runSliced(k, warmUp, tr); err != nil {
		return nil, err
	}
	traffic := k.NewStream("traffic")
	window := sim.Time(size.simSeconds) * time.Second
	gap := window / sim.Time(size.packets+1)
	sent := 0
	for i := 0; i < size.packets; i++ {
		k.After(sim.Time(i)*gap, func() {
			src := routers[traffic.Intn(len(routers))]
			dsts := sortedIDs(mob.IDs(nil))
			dst := vnet.Addr(dsts[traffic.Intn(len(dsts))])
			sp := tr.begin("routing.Router.Send")
			err := src.Send(dst, 500, nil)
			tr.end(sp)
			if err == nil {
				sent++
			}
		})
	}
	if err := runSliced(k, window+routeTail, tr); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	tracker.Finish(k.Now())

	rs := medium.Stats()
	orig, deliv, dropped := stats.Originated.Value(), stats.Delivered.Value(), stats.Dropped.Value()
	res := &opResult{
		setup:  setup,
		wall:   wall,
		events: k.Processed(),
		counts: map[string]float64{
			"sim.events":             float64(k.Processed()),
			"sim.pending_max":        float64(pendingMax),
			"mobility.steps":         float64(steps),
			"radio.sent":             float64(rs.Sent),
			"radio.delivered":        float64(rs.Delivered),
			"radio.lost_range":       float64(rs.LostRange),
			"radio.lost_load":        float64(rs.LostLoad),
			"radio.delivery_ratio":   ratio(rs.Delivered, rs.Delivered+rs.LostRange+rs.LostLoad),
			"cluster.head_changes":   float64(tracker.HeadChanges()),
			"cluster.role_changes":   float64(tracker.RoleChanges()),
			"routing.originated":     float64(orig),
			"routing.delivered":      float64(deliv),
			"routing.transmissions":  float64(stats.Transmissions.Value()),
			"routing.delivery_ratio": stats.DeliveryRatio(),
		},
	}
	if orig != uint64(sent) {
		res.failures = append(res.failures, fmt.Sprintf("beacon-route: routing originated %d packets, the benchmark sent %d", orig, sent))
	}
	if deliv+dropped > orig || deliv == 0 || rs.Delivered == 0 {
		res.failures = append(res.failures, fmt.Sprintf("beacon-route: %d delivered + %d dropped of %d originated, %d frames received", deliv, dropped, orig, rs.Delivered))
	}
	live = sortedIDs(mob.IDs(live[:0]))
	for _, id := range live {
		if st, ok := mob.State(id); ok {
			res.probe.positions = append(res.probe.positions, st.Pos)
		}
	}
	res.probe.pending = pendingMax
	res.probe.roadVehicles = size.vehicles
	return res, nil
}

// runSliced advances the kernel by d in runSlice pieces, one span each.
func runSliced(k *sim.Kernel, d sim.Time, tr *tracer) error {
	end := k.Now() + d
	for t := k.Now() + runSlice; ; t += runSlice {
		t = min(t, end)
		sp := tr.begin("sim.Kernel.Run")
		err := k.Run(t)
		tr.end(sp)
		if err != nil || t == end {
			return err
		}
	}
}

func sortedIDs(ids []mobility.VehicleID) []mobility.VehicleID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func ratio[T ~int | ~uint64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
