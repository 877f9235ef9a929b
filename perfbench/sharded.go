package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/shardworld"
)

// shardDensity keeps the fleet as dense as the vcloudbench shard sweep:
// 600 vehicles in a 6 km square.
const shardDensity = 600.0 / (6000 * 6000)

// shardCount is the parallel arm's shard count: two, or fewer on a
// one-core machine.
func shardCount() int { return min(2, runtime.NumCPU()) }

func shardConfig(size sizeCfg, seed int64, shards int) shardworld.Config {
	c := shardworld.DefaultConfig(seed, shards)
	c.Vehicles = size.vehicles
	c.Ticks = size.ticks
	c.SampleEvery = max(1, size.ticks/8)
	c.WorldSize = float64(int(math.Sqrt(float64(size.vehicles) / shardDensity)))
	c.ChurnFrac = 0.2
	// The middle third of the run loses beacons from the world's centre.
	w := c.WorldSize
	c.Outage = &shardworld.Outage{
		Rect:     geo.NewRect(geo.Point{X: w / 4, Y: w / 4}, geo.Point{X: 3 * w / 4, Y: 3 * w / 4}),
		FromTick: c.Ticks / 3,
		ToTick:   2 * c.Ticks / 3,
	}
	return c
}

// sharded runs the geo-sharded world with churn and a regional outage at
// one shard and at shardCount shards on the same seed; the two model
// outputs must be identical.
func sharded(size sizeCfg, seed int64, tr *tracer) (*opResult, error) {
	run := func(shards int) (*shardworld.Result, time.Duration, error) {
		start := time.Now()
		sp := tr.begin("shardworld.Run")
		r, err := shardworld.Run(shardConfig(size, seed, shards))
		tr.end(sp)
		return r, time.Since(start), err
	}
	serial, d1, err := run(1)
	if err != nil {
		return nil, err
	}
	n := shardCount()
	par, dn, err := run(n)
	if err != nil {
		return nil, err
	}
	res := &opResult{
		setup:   d1 - serial.Wall + dn - par.Wall,
		wall:    serial.Wall + par.Wall,
		events:  serial.Processed + par.Processed,
		speedup: par.CritPathSpeedup(),
		counts: map[string]float64{
			"sim.events":             float64(serial.Processed + par.Processed),
			"sim.shard_windows":      float64(par.Windows),
			"sim.shard_cross_events": float64(par.CrossEvents),
			"radio.sent":             float64(serial.Radio.Sent),
			"radio.delivered":        float64(serial.Radio.Delivered),
			"radio.lost_range":       float64(serial.Radio.LostRange),
			"radio.lost_load":        float64(serial.Radio.LostLoad),
			"radio.delivery_ratio":   ratio(serial.Radio.Delivered, serial.Radio.Delivered+serial.Radio.LostRange+serial.Radio.LostLoad),
			"shard.checksum_hi":      float64(serial.Checksum >> 32),
			"shard.checksum_lo":      float64(serial.Checksum & 0xffffffff),
		},
		timers: map[string]float64{
			"sim.shard_busy_s":     par.BusyWall.Seconds(),
			"sim.shard_critpath_s": par.CritPath.Seconds(),
			"sim.shard_wait_s":     float64(n)*par.Wall.Seconds() - par.BusyWall.Seconds(),
		},
	}
	if serial.Comparable() != par.Comparable() {
		res.failures = append(res.failures, fmt.Sprintf("sharded: model output at %d shards differs from one shard (checksums %016x, %016x)", n, par.Checksum, serial.Checksum))
	}
	// The final positions are not exposed. The fleet spawns and moves
	// uniformly over the world square, so the probes query as many points
	// drawn uniformly over it.
	w := shardConfig(size, seed, 1).WorldSize
	res.probe.positions = uniformPoints(seed, serial.Vehicles, w, w)
	return res, nil
}
