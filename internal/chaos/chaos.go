// Package chaos is the scripted-failure durability suite for the self-
// healing cluster: a Schedule pins a seed and a timeline of correlated rack
// kills, link flaps, mid-rebuild joins and leader assassinations, Run plays
// it against a live put/get workload on a core.Platform with the autonomic
// control loop on, and the verdict is judged purely through the telemetry
// registry plus an end-of-run bit-exactness audit — every repair is in the
// repair_duration histogram, availability is the workload's observed error
// rate, and the Result folds it into a repairs-per-hour / data-loss MTTDL
// summary.
package chaos

import (
	"bytes"
	"fmt"
	"time"

	"rain/internal/core"
	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/storage"
	"rain/internal/telemetry"
)

// Flap cycles one node pair's bundled links down and up.
type Flap struct {
	A, B     string
	Down, Up time.Duration
	Cycles   int
}

// Corruption is one scripted disk-corruption action against a stored
// object. Holder selects which copy to damage: it indexes the object's live
// holder set in cluster node order at the moment the event fires (shard
// placement is seed-deterministic, so a schedule stays reproducible without
// naming nodes). Block names the checksum block to flip one bit in; a
// negative Block tears the shard's final block instead — the torn-write
// failure mode, caught by the recorded-length check rather than a CRC
// mismatch.
type Corruption struct {
	Object string
	Holder int
	Block  int
}

// HolderRef names a live holder of an object by index (the same index space
// as Corruption.Holder) — how a schedule pauses "a third holder" without
// naming seed-dependent placement.
type HolderRef struct {
	Object string
	Holder int
}

// Event is one instant of scripted failure (all actions fire together).
type Event struct {
	At     time.Duration
	Pause  []string          // freeze these nodes (Platform.Pause)
	Resume []string          // thaw these paused nodes
	Join   map[string]string // power up standby node -> via seed
	Flaps  []Flap            // start link flapping from here

	Corrupt      []Corruption // silently damage shard bytes at rest
	StallDisk    []string     // reads on these nodes hang (hedge territory)
	EIODisk      []string     // reads on these nodes fail loudly
	ClearFaults  []string     // clear stall/EIO faults on these nodes
	PauseHolders []HolderRef  // pause live holders of an object by index
	Get          []string     // force bit-audited reads of these objects now
}

// Schedule is one deterministic chaos scenario.
type Schedule struct {
	Name    string
	Seed    int64
	Nodes   []string
	Standby []string
	Domains map[string]string
	Weights map[string]float64
	Code    ecc.Code

	LinkDelay time.Duration
	LinkLoss  float64
	Debounce  time.Duration // self-heal rebalance debounce

	Preload    int           // objects stored before the clock starts
	ObjectSize int           // bytes per object
	PutEvery   time.Duration // live-traffic put cadence (0 = no puts)
	GetEvery   time.Duration // live-traffic get cadence (0 = no gets)

	ScrubEvery time.Duration // background scrub cadence (0 = core default, <0 off)
	ScrubRate  int64         // scrub bandwidth budget, bytes/sec (0 = default)

	Events   []Event
	Duration time.Duration // live-traffic phase length
	Settle   time.Duration // quiet tail for repairs to finish
}

// Result is a schedule's registry-judged outcome.
type Result struct {
	Name string

	Puts, PutFails int // live-phase put attempts / failures
	Gets, GetFails int // live-phase get attempts / failures

	Repairs       uint64 // rebalance.repair_duration_ns samples
	ShardsRebuilt uint64 // rebalance.shards_rebuilt
	ShardsMoved   uint64 // rebalance.shards_copied
	Passes        uint64 // rebalance.passes across all clients

	CorruptionsInjected int    // scripted Corrupt actions that landed
	CorruptionsFound    uint64 // storage.backend.corruptions (quarantines)
	ScrubFound          uint64 // scrub.corruptions_found (scrub's share)
	CorruptNaks         uint64 // dstore.client.corrupt_naks (read path's share)
	UnhealedCorruptions int    // injected (object, holder) pairs whose holder ends without that shard, verified

	Audited          int // objects whose put succeeded, all re-read at end
	LostObjects      int // unreadable or bit-inexact at end of run
	UnderReplicated  int // readable but short of n live shard holders
	DomainViolations int // objects with a failure domain over its cap

	Window time.Duration // virtual observation window
	MTTDL  string        // repairs-per-hour / data-loss summary
}

// Err distils the hard failure conditions: any unreadable object, or a
// registry that disagrees with itself about repairs.
func (r Result) Err() error {
	if r.LostObjects > 0 {
		return fmt.Errorf("chaos %s: %d of %d objects unreadable or corrupt", r.Name, r.LostObjects, r.Audited)
	}
	if r.Repairs != r.ShardsRebuilt {
		return fmt.Errorf("chaos %s: %d repair durations for %d rebuilt shards", r.Name, r.Repairs, r.ShardsRebuilt)
	}
	if uint64(r.CorruptionsInjected) > r.CorruptionsFound {
		return fmt.Errorf("chaos %s: %d corruptions injected but only %d detected", r.Name, r.CorruptionsInjected, r.CorruptionsFound)
	}
	return nil
}

func (r Result) String() string {
	return fmt.Sprintf("%s: puts %d (%d failed), gets %d (%d failed), repairs %d, passes %d, corruptions %d/%d found (%d scrub, %d read), %d unhealed, lost %d/%d, under-replicated %d, domain violations %d; %s",
		r.Name, r.Puts, r.PutFails, r.Gets, r.GetFails, r.Repairs, r.Passes,
		r.CorruptionsFound, r.CorruptionsInjected, r.ScrubFound, r.CorruptNaks,
		r.UnhealedCorruptions,
		r.LostObjects, r.Audited, r.UnderReplicated, r.DomainViolations, r.MTTDL)
}

// object is one workload object's recorded ground truth.
type object struct {
	id      string
	payload []byte
	ok      bool // put completed successfully
}

// Run plays a schedule to completion and audits the aftermath. The entire
// run is virtual time on the platform's seeded simulator: the same schedule
// always produces the same result.
func Run(sch Schedule) (Result, error) {
	// Every node's backend goes behind a FaultyStore so corruption events
	// can damage shards (and arm EIO/stall faults) under the live daemon.
	faults := make(map[string]*FaultyStore)
	p, err := core.New(sch.Nodes, core.Options{
		Seed:              sch.Seed,
		Code:              sch.Code,
		LinkDelay:         sch.LinkDelay,
		LinkLoss:          sch.LinkLoss,
		Domains:           sch.Domains,
		Weights:           sch.Weights,
		Standby:           sch.Standby,
		RebalanceDebounce: sch.Debounce,
		ScrubInterval:     sch.ScrubEvery,
		ScrubRate:         sch.ScrubRate,
		WrapStore: func(node string, b *storage.Backend) dstore.Store {
			f := NewFaultyStore(b)
			faults[node] = f
			return f
		},
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Name: sch.Name}
	payload := func(i int) []byte {
		b := make([]byte, sch.ObjectSize)
		for j := range b {
			b[j] = byte(i*131 + j*7 + int(sch.Seed))
		}
		return b
	}

	// Ground truth store. Preloads block (the clock only advances as far as
	// the puts need); the live workload below is fully event-driven.
	var objects []*object
	byID := make(map[string]*object)
	for i := 0; i < sch.Preload; i++ {
		o := &object{id: fmt.Sprintf("pre-%04d", i), payload: payload(i)}
		if err := p.Put(o.id, o.payload); err != nil {
			return res, fmt.Errorf("chaos %s: preload %d: %v", sch.Name, i, err)
		}
		o.ok = true
		objects = append(objects, o)
		byID[o.id] = o
	}

	// liveClient picks the first powered-on node's client, like the
	// operator-facing core helpers do.
	liveClient := func() (string, bool) {
		for _, n := range p.Nodes {
			if !p.Mesh.Stopped(n) {
				return n, true
			}
		}
		return "", false
	}

	s := p.Scheduler
	rng := s.Rand()
	start := s.Now()
	elapsed := func() time.Duration { return time.Duration(s.Now() - start) }

	if sch.PutEvery > 0 {
		seq := sch.Preload
		var putLoop func()
		putLoop = func() {
			if elapsed() >= sch.Duration {
				return
			}
			s.After(sch.PutEvery, putLoop)
			n, ok := liveClient()
			if !ok {
				return
			}
			o := &object{id: fmt.Sprintf("live-%04d", seq), payload: payload(seq)}
			seq++
			objects = append(objects, o)
			byID[o.id] = o
			res.Puts++
			p.Clients[n].PutAsync(o.id, o.payload, func(stored int, err error) {
				if err != nil {
					res.PutFails++
				} else {
					o.ok = true
				}
			})
		}
		s.After(sch.PutEvery, putLoop)
	}
	if sch.GetEvery > 0 {
		var getLoop func()
		getLoop = func() {
			if elapsed() >= sch.Duration {
				return
			}
			s.After(sch.GetEvery, getLoop)
			n, ok := liveClient()
			if !ok {
				return
			}
			// Read a random object already known to be stored.
			var stored []*object
			for _, o := range objects {
				if o.ok {
					stored = append(stored, o)
				}
			}
			if len(stored) == 0 {
				return
			}
			o := stored[rng.Intn(len(stored))]
			res.Gets++
			p.Clients[n].GetAsync(o.id, func(data []byte, err error) {
				if err != nil || !bytes.Equal(data, o.payload) {
					res.GetFails++
				}
			})
		}
		s.After(sch.GetEvery, getLoop)
	}

	// holdersOf lists the live nodes holding a shard of id, in cluster node
	// order — the deterministic index space Corruption.Holder addresses.
	holdersOf := func(id string) []string {
		var hs []string
		for _, n := range p.Nodes {
			if p.Mesh.Stopped(n) {
				continue
			}
			if _, err := p.Backends[n].Info(id); err == nil {
				hs = append(hs, n)
			}
		}
		return hs
	}

	// Script the failures. Injection mistakes (a Holder index past the
	// object's spread, an offset past the shard) are schedule bugs, not
	// cluster faults: they surface as a Run error, after the clock drains.
	var injectErrs []error
	// injected records each landed corruption: the object, its holder and
	// the shard index the holder held, for the end-of-run audit.
	type injection struct {
		id, node string
		shard    int
	}
	var injected []injection
	for _, ev := range sch.Events {
		ev := ev
		s.After(ev.At, func() {
			for _, c := range ev.Corrupt {
				hs := holdersOf(c.Object)
				if c.Holder < 0 || c.Holder >= len(hs) {
					injectErrs = append(injectErrs, fmt.Errorf("corrupt %s: holder %d of %d live holders", c.Object, c.Holder, len(hs)))
					continue
				}
				f := faults[hs[c.Holder]]
				var err error
				if c.Block < 0 {
					err = f.TearFinal(c.Object)
				} else {
					err = f.FlipBit(c.Object, int64(c.Block)*storage.ChecksumBlock)
				}
				if err != nil {
					injectErrs = append(injectErrs, fmt.Errorf("corrupt %s on %s: %v", c.Object, hs[c.Holder], err))
					continue
				}
				res.CorruptionsInjected++
				info, _ := f.Info(c.Object) // damaged, not yet quarantined
				injected = append(injected, injection{c.Object, hs[c.Holder], info.Shard})
			}
			for _, n := range ev.StallDisk {
				faults[n].SetStall(true)
			}
			for _, n := range ev.EIODisk {
				faults[n].SetEIO(true)
			}
			for _, n := range ev.ClearFaults {
				faults[n].SetStall(false)
				faults[n].SetEIO(false)
			}
			for _, h := range ev.PauseHolders {
				hs := holdersOf(h.Object)
				if h.Holder < 0 || h.Holder >= len(hs) {
					injectErrs = append(injectErrs, fmt.Errorf("pause holder of %s: index %d of %d live holders", h.Object, h.Holder, len(hs)))
					continue
				}
				p.Pause(hs[h.Holder])
			}
			for _, n := range ev.Pause {
				p.Pause(n)
			}
			for _, n := range ev.Resume {
				p.Resume(n)
			}
			for n, seed := range ev.Join {
				p.Join(n, seed)
			}
			for _, id := range ev.Get {
				o := byID[id]
				n, ok := liveClient()
				if o == nil || !o.ok || !ok {
					injectErrs = append(injectErrs, fmt.Errorf("forced get %s: no such stored object or no live client", id))
					continue
				}
				res.Gets++
				p.Clients[n].GetAsync(id, func(data []byte, err error) {
					if err != nil || !bytes.Equal(data, o.payload) {
						res.GetFails++
					}
				})
			}
			for _, f := range ev.Flaps {
				f := f
				cycle := 0
				var flap func()
				flap = func() {
					if cycle >= f.Cycles {
						return
					}
					cycle++
					for path := 0; path < 2; path++ {
						p.CutPath(f.A, f.B, path)
					}
					s.After(f.Down, func() {
						for path := 0; path < 2; path++ {
							p.HealPath(f.A, f.B, path)
						}
						s.After(f.Up, flap)
					})
				}
				flap()
			}
		})
	}

	p.Run(sch.Duration)
	p.Run(sch.Settle)
	if len(injectErrs) > 0 {
		return res, fmt.Errorf("chaos %s: fault injection: %v", sch.Name, injectErrs[0])
	}

	// Judge through the registry.
	snap := p.Telemetry.Snapshot()
	res.Repairs = histCount(snap, "rebalance.repair_duration_ns")
	res.ShardsRebuilt = counterTotal(snap, "rebalance.shards_rebuilt")
	res.ShardsMoved = counterTotal(snap, "rebalance.shards_copied")
	res.Passes = counterTotal(snap, "rebalance.passes")
	res.CorruptionsFound = counterTotal(snap, "storage.backend.corruptions")
	res.ScrubFound = counterTotal(snap, "scrub.corruptions_found")
	res.CorruptNaks = counterTotal(snap, "dstore.client.corrupt_naks")
	// Every damaged shard must be back on its holder, under the same
	// index, and verify clean.
	for _, in := range injected {
		info, err := p.Backends[in.node].Info(in.id)
		if _, _, verr := p.Backends[in.node].Verify(in.id); err != nil || verr != nil || info.Shard != in.shard {
			res.UnhealedCorruptions++
		}
	}

	// End-of-run audit: every successfully stored object must read back
	// bit-exact, hold full redundancy on live nodes, and respect the
	// failure-domain cap of the final universe.
	holders := make(map[string]map[string]bool)
	live := 0
	liveDomains := make(map[string]bool)
	for _, n := range p.Nodes {
		if p.Mesh.Stopped(n) {
			continue
		}
		live++
		if sch.Domains != nil {
			liveDomains[domainOf(sch.Domains, n)] = true
		}
		for _, info := range p.Backends[n].List() {
			if holders[info.ID] == nil {
				holders[info.ID] = make(map[string]bool)
			}
			holders[info.ID][n] = true
		}
	}
	n := sch.Code.N()
	domainCap := 0
	if len(liveDomains) > 0 {
		domainCap = (n + len(liveDomains) - 1) / len(liveDomains)
	}
	for _, o := range objects {
		if !o.ok {
			continue
		}
		res.Audited++
		got, err := p.Get(o.id)
		if err != nil || !bytes.Equal(got, o.payload) {
			res.LostObjects++
			continue
		}
		if len(holders[o.id]) < n {
			res.UnderReplicated++
		}
		if domainCap > 0 {
			perDomain := make(map[string]int)
			for node := range holders[o.id] {
				perDomain[domainOf(sch.Domains, node)]++
			}
			for _, c := range perDomain {
				if c > domainCap {
					res.DomainViolations++
					break
				}
			}
		}
	}

	res.Window = elapsed()
	hours := res.Window.Hours()
	rate := 0.0
	if hours > 0 {
		rate = float64(res.Repairs) / hours
	}
	if res.LostObjects == 0 {
		res.MTTDL = fmt.Sprintf("%.0f repairs/hour, 0 data-loss events in %v: MTTDL >= observation window", rate, res.Window)
	} else {
		res.MTTDL = fmt.Sprintf("%.0f repairs/hour, %d data-loss events in %v: MTTDL ~ %v", rate, res.LostObjects, res.Window, res.Window/time.Duration(res.LostObjects))
	}
	return res, nil
}

func domainOf(domains map[string]string, node string) string {
	if d := domains[node]; d != "" {
		return d
	}
	return node
}

func counterTotal(snap telemetry.Snapshot, name string) uint64 {
	var total uint64
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			total += s.Counter
		}
	}
	return total
}

func histCount(snap telemetry.Snapshot, name string) uint64 {
	var total uint64
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if s.Histogram != nil {
				total += s.Histogram.Count
			}
		}
	}
	return total
}
