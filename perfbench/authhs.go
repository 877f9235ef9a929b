package main

import (
	"fmt"
	"math/rand"
	"time"

	"vcloud/internal/auth"
	"vcloud/internal/cryptoprim"
	"vcloud/internal/geo"
	"vcloud/internal/pki"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

const (
	poolSize = 20 // pseudonyms per vehicle, as in E5
	// authCols and authSpacing lay the fleet out on a grid dense enough
	// that every vehicle has same-scheme peers within reliable range.
	authCols      = 8
	authSpacing   = 40.0
	handshakeGap  = 25 * time.Millisecond
	handshakeTail = 10 * time.Second // longer than the handshake timeout
)

// authArms are the E5 schemes; vehicle i runs arm i%4 and only
// handshakes with peers of its own arm.
var authArms = []struct {
	scheme auth.Scheme
	crl    auth.CRLMode
}{
	{auth.Pseudonym, auth.CRLLinear},
	{auth.Pseudonym, auth.CRLBloom},
	{auth.Group, auth.CRLLinear},
	{auth.Hybrid, auth.CRLLinear},
}

// authRevokedFleet reports whether fleet vehicle i is revoked after
// enrolment: it keeps its credentials, so every arm sees revoked peers.
func authRevokedFleet(i int) bool { return i%7 == 3 }

// authHandshake builds a TA with a revoked population, enrols a parked
// fleet (issuing its pseudonym pools), then runs a seeded schedule of
// mutual handshakes between neighbouring vehicles.
func authHandshake(size sizeCfg, seed int64, tr *tracer) (*opResult, error) {
	n := size.vehicles
	// The schedule is drawn first: who initiates toward whom, in order.
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: 50 + float64(i%authCols)*authSpacing, Y: 50 + float64(i/authCols)*authSpacing}
	}
	peers := make([][]int, n)
	for i := range pos {
		for j := range pos {
			if j != i && j%len(authArms) == i%len(authArms) && pos[i].Dist(pos[j]) <= radio.DefaultParams().RangeReliable {
				peers[i] = append(peers[i], j)
			}
		}
		if len(peers[i]) == 0 {
			return nil, fmt.Errorf("auth-handshake: vehicle %d has no peer in range", i)
		}
	}
	// Every vehicle initiates once per round, in a seeded order, so each
	// scheme carries the same share of handshakes on every seed.
	draw := rand.New(rand.NewSource(seed))
	plan := make([][2]int, 0, size.handshakes)
	uses := make([]int, n)
	for len(plan) < size.handshakes {
		for _, i := range draw.Perm(n) {
			if len(plan) == size.handshakes {
				break
			}
			j := peers[i][draw.Intn(len(peers[i]))]
			plan = append(plan, [2]int{i, j})
			uses[i]++
			uses[j]++
		}
	}
	// A vehicle makes at most one proof per handshake it takes part in,
	// so its one-time chain never passes this index.
	horizon := uint64(0)
	for _, u := range uses {
		horizon = max(horizon, uint64(u))
	}

	t0 := time.Now()
	k := sim.NewKernel(seed)
	bounds := geo.NewRect(geo.Point{}, geo.Point{X: 100 + authCols*authSpacing, Y: 100 + float64(n/authCols+1)*authSpacing})
	medium, err := radio.NewMedium(k, bounds, radio.DefaultParams())
	if err != nil {
		return nil, err
	}
	ta, err := pki.New("TA", rand.New(rand.NewSource(seed)), pki.Config{PoolSize: poolSize})
	if err != nil {
		return nil, err
	}
	enrollments := 0
	enroll := func(id pki.VehicleIdentity) (*pki.Enrollment, error) {
		sp := tr.begin("pki.TA.Enroll")
		e, err := ta.Enroll(id)
		tr.end(sp)
		enrollments++
		return e, err
	}
	for i := 0; i < size.revoked; i++ {
		id := pki.VehicleIdentity(fmt.Sprintf("rev-%d", i))
		if _, err := enroll(id); err != nil {
			return nil, err
		}
		if err := ta.RevokeVehicle(id); err != nil {
			return nil, err
		}
	}
	nodes := make([]*vnet.Node, n)
	enr := make([]*pki.Enrollment, n)
	revoked := make([]bool, n)
	for i := range nodes {
		p := pos[i]
		medium.UpdatePosition(vnet.Addr(i), p)
		if nodes[i], err = vnet.NewNode(k, medium, vnet.Addr(i), vnet.Config{}, func() (geo.Point, float64, float64) {
			return p, 0, 0
		}); err != nil {
			return nil, err
		}
		if enr[i], err = enroll(pki.VehicleIdentity(fmt.Sprintf("veh-%d", i))); err != nil {
			return nil, err
		}
	}
	for i := range nodes {
		if revoked[i] = authRevokedFleet(i); revoked[i] {
			if err := ta.RevokeVehicle(enr[i].Identity); err != nil {
				return nil, err
			}
		}
	}
	gm := ta.GroupManager()
	revokedCount := size.revoked
	for _, r := range revoked {
		if r {
			revokedCount++
		}
	}
	tags := ta.HybridRevocationTags(horizon)
	met := &auth.Metrics{}
	auths := make([]*auth.Authenticator, n)
	for i := range nodes {
		arm := authArms[i%len(authArms)]
		anchors := auth.Anchors{
			RootKey:  ta.RootKey(),
			GroupKey: ta.GroupKey(),
			CRL:      ta.CRL(),
			CRLMode:  arm.crl,
			// Verifier-local revocation tokens: one per revoked member.
			GroupRevoked: func(sig cryptoprim.GroupSig) (bool, int) {
				return !gm.CheckNotRevoked(sig), revokedCount
			},
			HybridRevoked: func(id [32]byte) bool {
				_, ok := tags[id]
				return ok
			},
		}
		if auths[i], err = auth.New(nodes[i], enr[i], anchors, arm.scheme, auth.CostModel{}, met); err != nil {
			return nil, err
		}
	}
	setup := time.Since(t0)

	start := time.Now()
	var results []auth.Result
	var wrongAccept []string
	pendingMax := 0
	for h, p := range plan {
		i, j := p[0], p[1]
		k.At(sim.Time(h)*handshakeGap, func() {
			pendingMax = max(pendingMax, k.Pending())
			sp := tr.begin("auth.Authenticator.Authenticate")
			err := auths[i].Authenticate(vnet.Addr(j), func(r auth.Result) {
				results = append(results, r)
				if r.OK && (revoked[i] || revoked[j]) {
					wrongAccept = append(wrongAccept, fmt.Sprintf("%d<->%d", i, j))
				}
			})
			tr.end(sp)
			if err != nil {
				wrongAccept = append(wrongAccept, err.Error())
			}
		})
	}
	if err := runSliced(k, sim.Time(len(plan))*handshakeGap+handshakeTail, tr); err != nil {
		return nil, err
	}
	wall := time.Since(start)

	var ok, rejected, timeouts uint64
	for _, r := range results {
		switch {
		case r.OK:
			ok++
		case r.Reason == "timeout":
			timeouts++
		default:
			rejected++
		}
	}
	attempts := met.Attempts.Value()
	rs := medium.Stats()
	res := &opResult{
		setup:  setup,
		wall:   wall,
		events: k.Processed(),
		counts: map[string]float64{
			"sim.events":           float64(k.Processed()),
			"sim.pending_max":      float64(pendingMax),
			"pki.enrollments":      float64(enrollments),
			"auth.attempts":        float64(attempts),
			"auth.successes":       float64(met.Successes.Value()),
			"auth.failures":        float64(met.Failures.Value()),
			"auth.timeouts":        float64(met.Timeouts.Value()),
			"auth.verify_ops":      float64(met.VerifyOps.Value()),
			"auth.crl_scanned":     float64(met.CRLScanned.Value()),
			"auth.bytes_sent":      float64(met.BytesSent.Value()),
			"auth.success_ratio":   ratio(met.Successes.Value(), attempts),
			"radio.sent":           float64(rs.Sent),
			"radio.delivered":      float64(rs.Delivered),
			"radio.lost_range":     float64(rs.LostRange),
			"radio.lost_load":      float64(rs.LostLoad),
			"radio.delivery_ratio": ratio(rs.Delivered, rs.Delivered+rs.LostRange+rs.LostLoad),
		},
	}
	// Every attempt ends in exactly one callback; the initiator's view of
	// each outcome must match the shared counters. Failures also counts
	// responders rejecting a revoked initiator, which the initiator then
	// sees as a timeout, so it is bounded below, not equal.
	if attempts != uint64(len(plan)) || attempts != ok+rejected+timeouts ||
		met.Successes.Value() != ok || met.Timeouts.Value() != timeouts || met.Failures.Value() < rejected {
		res.failures = append(res.failures, fmt.Sprintf(
			"auth-handshake: %d planned, %d attempts, callbacks %d ok + %d rejected + %d timeouts; counters %d ok, %d failures, %d timeouts",
			len(plan), attempts, ok, rejected, timeouts, met.Successes.Value(), met.Failures.Value(), met.Timeouts.Value()))
	}
	if len(wrongAccept) > 0 {
		res.failures = append(res.failures, fmt.Sprintf("auth-handshake: handshakes succeeded with a revoked vehicle or failed to start: %v", wrongAccept))
	}
	if ok == 0 {
		res.failures = append(res.failures, "auth-handshake: no handshake succeeded")
	}
	res.probe = probeInput{positions: pos, pending: pendingMax, revoked: revokedCount}
	return res, nil
}
