package store

import (
	"fmt"
	"slices"

	"vcloud/internal/vnet"
)

// frag is one erasure-code fragment held by a member: shard index plus
// the version it belongs to.
type frag struct {
	version Version
	index   int
	data    []byte
}

// ecobj is the coordinator's record of one erasure-coded object.
type ecobj struct {
	size    int // modeled object bytes
	length  int // exact payload length for Join (when Data was given)
	version Version
	acked   Version // highest version that reached FragAck members
	epoch   uint64
	// frags maps member -> fragments held (normally one; more when the
	// fleet is smaller than K+M).
	frags map[vnet.Addr][]frag
}

// ErasureCoded is the (K, M) Reed–Solomon backend: each object becomes
// K data + M parity fragments spread over distinct members,
// dwell-weighted so long-staying vehicles attract fragments first. Any
// K distinct fragment indices reconstruct, so reads parallelize (the
// latency is one member RTT at fragment size) and an
// acked write survives up to M member losses at (K+M)/K overhead.
type ErasureCoded struct {
	cfg   Config
	view  View
	stats *Stats

	objects   map[Key]*ecobj
	sess      sessions
	highWater uint64
	load      map[vnet.Addr]int

	rankScratch   []rankEntry
	keyScratch    []Key
	holderScratch []vnet.Addr
}

// NewErasureCoded creates the erasure-coded backend over the view.
func NewErasureCoded(cfg Config, view View, stats *Stats) (*ErasureCoded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if view == nil {
		return nil, fmt.Errorf("store: view must not be nil")
	}
	if stats == nil {
		return nil, fmt.Errorf("store: stats must not be nil")
	}
	return &ErasureCoded{
		cfg:     cfg,
		view:    view,
		stats:   stats,
		objects: make(map[Key]*ecobj),
		sess:    make(sessions),
		load:    make(map[vnet.Addr]int),
	}, nil
}

// View implements Backend.
func (e *ErasureCoded) View() View { return e.view }

// Stats implements Backend.
func (e *ErasureCoded) Stats() *Stats { return e.stats }

// fragSize is the modeled byte size of one fragment of the object.
func (e *ErasureCoded) fragSize(o *ecobj) int {
	return (o.size + e.cfg.K - 1) / e.cfg.K
}

// accept fences against the global high-water, like Replicated.Accept.
func (e *ErasureCoded) accept(epoch uint64) bool {
	if epoch == 0 {
		return true
	}
	if epoch < e.highWater {
		e.stats.StaleWrites.Inc()
		return false
	}
	e.highWater = epoch
	return true
}

func (e *ErasureCoded) acceptKey(o *ecobj, epoch uint64, read bool) bool {
	if e.cfg.Consistency != Linearizable || epoch == 0 {
		return true
	}
	if epoch < o.epoch {
		if read {
			e.stats.StaleReads.Inc()
		} else {
			e.stats.StaleWrites.Inc()
		}
		return false
	}
	o.epoch = epoch
	return true
}

// Write implements Backend: encode into K+M fragments, assign fragment
// i to the i%len(ranked)'th dwell-ranked online member (so with enough
// members each holds at most one fragment and short-dwell vehicles
// hold none), ack at FragAck placements.
func (e *ErasureCoded) Write(req WriteReq) WriteAck {
	e.stats.Writes.Inc()
	if !e.accept(req.Epoch) {
		return WriteAck{}
	}
	o := e.objects[req.Key]
	if o == nil {
		o = &ecobj{frags: make(map[vnet.Addr][]frag)}
		e.objects[req.Key] = o
	}
	if !e.acceptKey(o, req.Epoch, false) {
		return WriteAck{}
	}
	size := req.Size
	if size == 0 {
		size = len(req.Data)
	}
	o.size = size
	o.length = len(req.Data)
	o.version++
	var shards [][]byte
	if req.Data != nil {
		var err error
		shards, err = Encode(e.cfg.K, e.cfg.M, req.Data)
		if err != nil {
			// cfg.Validate bounds K and M; unreachable in practice.
			return WriteAck{}
		}
	}
	ranked := rankOnline(&e.rankScratch, e.view, e.cfg.Placement, e.load, nil)
	if len(ranked) == 0 {
		return WriteAck{Version: o.version}
	}
	total := e.cfg.K + e.cfg.M
	fsz := e.fragSize(o)
	assigned := make(map[vnet.Addr][]frag, min(total, len(ranked)))
	for i := 0; i < total; i++ {
		// Round-robin over the dwell ranking: distinct members hold
		// disjoint index sets, and with enough members each holds one.
		a := ranked[i%len(ranked)].addr
		f := frag{version: o.version, index: i}
		if shards != nil {
			f.data = shards[i]
		}
		assigned[a] = append(assigned[a], f)
		e.stats.BytesMoved.Add(fsz)
	}
	placed := make([]vnet.Addr, 0, len(assigned))
	for a := range assigned {
		placed = append(placed, a)
	}
	slices.Sort(placed)
	for _, a := range placed {
		if _, had := o.frags[a]; !had {
			e.load[a]++
		}
		// Replace the member's stale fragments, but keep its fragments of
		// the last acked version: until the new write reaches its own
		// quorum, destroying them could drop the acked version below K
		// surviving fragments — an acknowledged write must never lose
		// durability to an unacknowledged overwrite.
		kept := assigned[a]
		for _, f := range o.frags[a] {
			if f.version == o.acked {
				kept = append(kept, f)
			}
		}
		o.frags[a] = kept
	}
	ack := WriteAck{Version: o.version, Placed: placed, Acked: len(placed) >= e.cfg.FragAck}
	if ack.Acked {
		o.acked = o.version
		e.stats.WriteAcks.Inc()
		e.sess.advance(req.Client, req.Key, o.version)
	}
	return ack
}

// Read implements Backend: the best version with at least K distinct
// fragment indices on online members is served; latency is one RTT at
// fragment size (fragments transfer in parallel — the erasure-coding
// read advantage).
func (e *ErasureCoded) Read(req ReadReq) (ReadResult, bool) {
	e.stats.Reads.Inc()
	o := e.objects[req.Key]
	if o == nil {
		return ReadResult{}, false
	}
	if !e.acceptKey(o, req.Epoch, true) {
		return ReadResult{}, false
	}
	best, contributors := e.bestVersion(o, true)
	if best == 0 {
		return ReadResult{}, false
	}
	if !e.cfg.Sloppy && best < o.acked {
		// The reachable fragments only reconstruct a version older than
		// the last acked write: refuse rather than regress.
		e.stats.QuorumStale.Inc()
		return ReadResult{}, false
	}
	if e.cfg.Consistency >= Session && best < e.sess.watermark(req.Client, req.Key) {
		e.stats.SessionStale.Inc()
		return ReadResult{}, false
	}
	var data []byte
	if best == o.version && o.length > 0 {
		shards := make([][]byte, e.cfg.K+e.cfg.M)
		for _, a := range contributors {
			for _, f := range o.frags[a] {
				if f.version == best && f.data != nil {
					shards[f.index] = f.data
				}
			}
		}
		if err := Decode(e.cfg.K, e.cfg.M, shards); err == nil {
			data, _ = Join(e.cfg.K, shards, o.length)
		}
	}
	e.stats.ReadsOK.Inc()
	e.sess.advance(req.Client, req.Key, best)
	return ReadResult{
		Data:    data,
		Version: best,
		Latency: DefaultRTT(e.fragSize(o)),
		Replies: len(contributors),
	}, true
}

// hasData reports whether any fragment of version v carries payload.
func (e *ErasureCoded) hasData(o *ecobj, v Version) bool {
	for _, a := range e.holdersOf(o) {
		for _, f := range o.frags[a] {
			if f.version == v && f.data != nil {
				return true
			}
		}
	}
	return false
}

// bestVersion finds the highest version with >= K distinct fragment
// indices among holders (liveOnly restricts to online members) and the
// ascending member list contributing to it.
func (e *ErasureCoded) bestVersion(o *ecobj, liveOnly bool) (Version, []vnet.Addr) {
	byVersion := make(map[Version]map[int]bool)
	for _, a := range e.holdersOf(o) {
		if liveOnly && !e.view.Online(a) {
			continue
		}
		for _, f := range o.frags[a] {
			m := byVersion[f.version]
			if m == nil {
				m = make(map[int]bool)
				byVersion[f.version] = m
			}
			m[f.index] = true
		}
	}
	best := Version(0)
	for v, idx := range byVersion {
		if len(idx) >= e.cfg.K && v > best {
			best = v
		}
	}
	if best == 0 {
		return 0, nil
	}
	var contributors []vnet.Addr
	for _, a := range e.holdersOf(o) {
		if liveOnly && !e.view.Online(a) {
			continue
		}
		for _, f := range o.frags[a] {
			if f.version == best {
				contributors = append(contributors, a)
				break
			}
		}
	}
	return best, contributors
}

// Repair implements Backend: for each key (sorted), when the best live
// version is reconstructible but some of its K+M fragment indices have
// no live holder, regenerate the missing fragments and place them on
// ranked live members that hold none of the key.
func (e *ErasureCoded) Repair(req RepairReq) int {
	if !e.accept(req.Epoch) {
		return 0
	}
	created := 0
	for _, k := range e.sortedKeys() {
		o := e.objects[k]
		if !e.cfg.RetainOffline {
			for _, a := range e.holdersOf(o) {
				if !e.view.Online(a) {
					e.dropFrags(o, a)
				}
			}
		}
		best, _ := e.bestVersion(o, true)
		if best == 0 {
			continue // not reconstructible from live members
		}
		liveIdx := make(map[int]bool)
		for _, a := range e.holdersOf(o) {
			if !e.view.Online(a) {
				continue
			}
			for _, f := range o.frags[a] {
				if f.version == best {
					liveIdx[f.index] = true
				}
			}
		}
		total := e.cfg.K + e.cfg.M
		if len(liveIdx) >= total {
			continue
		}
		// Regenerate payload shards when the object carries data.
		var shards [][]byte
		if e.hasData(o, best) {
			shards = make([][]byte, total)
			for _, a := range e.holdersOf(o) {
				if !e.view.Online(a) {
					continue
				}
				for _, f := range o.frags[a] {
					if f.version == best && f.data != nil {
						shards[f.index] = f.data
					}
				}
			}
			if err := Decode(e.cfg.K, e.cfg.M, shards); err != nil {
				shards = nil
			}
		}
		holdsKey := func(a vnet.Addr) bool {
			for _, f := range o.frags[a] {
				if f.version == best {
					return true
				}
			}
			return false
		}
		ranked := rankOnline(&e.rankScratch, e.view, e.cfg.Placement, e.load, holdsKey)
		fsz := e.fragSize(o)
		next := 0
		for i := 0; i < total; i++ {
			if liveIdx[i] {
				continue
			}
			if next >= len(ranked) {
				break // every eligible member already holds the key
			}
			a := ranked[next].addr
			next++
			f := frag{version: best, index: i}
			if shards != nil {
				f.data = shards[i]
			}
			if _, had := o.frags[a]; !had {
				e.load[a]++
			}
			o.frags[a] = append(o.frags[a], f)
			created++
			e.stats.ReReplicas.Inc()
			e.stats.BytesMoved.Add(fsz)
		}
	}
	return created
}

// Forget implements Backend.
func (e *ErasureCoded) Forget(a vnet.Addr) int {
	dropped := 0
	for _, k := range e.sortedKeys() {
		o := e.objects[k]
		if fs, has := o.frags[a]; has {
			dropped += len(fs)
			e.dropFrags(o, a)
		}
	}
	return dropped
}

// Holders implements Backend.
func (e *ErasureCoded) Holders(k Key) []vnet.Addr {
	o := e.objects[k]
	if o == nil {
		return nil
	}
	return slices.Clone(e.holdersOf(o))
}

// Durable implements Backend: the best version reconstructible from
// all surviving fragments, reachable or not.
func (e *ErasureCoded) Durable(k Key) (Version, bool) {
	o := e.objects[k]
	if o == nil {
		return 0, false
	}
	best, _ := e.bestVersion(o, false)
	return best, best != 0
}

func (e *ErasureCoded) dropFrags(o *ecobj, a vnet.Addr) {
	delete(o.frags, a)
	if e.load[a] > 0 {
		e.load[a]--
	}
}

func (e *ErasureCoded) holdersOf(o *ecobj) []vnet.Addr {
	hs := e.holderScratch[:0]
	for a := range o.frags {
		hs = append(hs, a)
	}
	slices.Sort(hs)
	e.holderScratch = hs
	return hs
}

func (e *ErasureCoded) sortedKeys() []Key {
	ks := e.keyScratch[:0]
	for k := range e.objects {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	e.keyScratch = ks
	return ks
}
