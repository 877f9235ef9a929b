package main

import (
	"time"

	"vcloud/internal/geo"
)

// sizeCfg sizes one workload's world; each workload reads its own fields.
type sizeCfg struct {
	vehicles   int
	simSeconds int // simulated length of the measured phase
	packets    int // beacon-route: unicast packets injected
	revoked    int // auth-handshake: revoked population
	handshakes int // auth-handshake: handshakes initiated
	ticks      int // sharded: world ticks
}

// workload is one named benchmark input. op builds a world from the seed
// and runs its measured phase once. build, where set, builds the world
// alone; a world that builds in milliseconds has its set-up timed over
// setupBuilds calls of it rather than over op's one build. Only a
// parallel workload runs on more than one core.
type workload struct {
	name        string
	full, small sizeCfg
	op          func(size sizeCfg, seed int64, tr *tracer) (*opResult, error)
	build       func(size sizeCfg, seed int64) error
	parallel    bool
}

// opResult is one operation's outcome. counts are exact and must repeat
// for the same seed; timers are host times a layer reports about itself.
type opResult struct {
	setup, wall time.Duration
	events      uint64
	speedup     float64 // critical-path speed-up; 0 for a serial operation
	counts      map[string]float64
	timers      map[string]float64
	failures    []string
	probe       probeInput
}

// probeInput is the final state the layer probes take their inputs from.
// Zero fields but pending are filled by withDefaults from the workload that
// owns that layer, so those probes run on every workload.
type probeInput struct {
	positions    []geo.Point // final vehicle positions
	roadVehicles int         // vehicles driving on the road network
	pending      int         // kernel queue depth at its peak; 0 skips the sim probe
	revoked      int         // revoked vehicles
}

var workloads = map[string]*workload{
	"beacon-route": {
		name:  "beacon-route",
		full:  sizeCfg{vehicles: 240, simSeconds: 40, packets: 120},
		small: sizeCfg{vehicles: 30, simSeconds: 5, packets: 10},
		op:    beaconRoute,
		build: buildBeaconOnly,
	},
	"auth-handshake": {
		name:  "auth-handshake",
		full:  sizeCfg{vehicles: 48, revoked: 1000, handshakes: 1200},
		small: sizeCfg{vehicles: 16, revoked: 20, handshakes: 32},
		op:    authHandshake,
	},
	"sharded": {
		name:     "sharded",
		full:     sizeCfg{vehicles: 2400, ticks: 120},
		small:    sizeCfg{vehicles: 120, ticks: 8},
		op:       sharded,
		parallel: true,
	},
}
