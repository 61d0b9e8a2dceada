package core

import (
	"fmt"
	"time"

	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/membership"
	"rain/internal/sim"
	"rain/internal/storage"
)

// Background cadences every node runs.
const (
	// SweepInterval is how often a daemon's orphan sweep runs: transfer
	// state (put assemblies, get sessions) abandoned by crashed clients.
	SweepInterval = 30 * time.Second
	// OrphanAge is how long a transfer may sit idle before the sweep
	// reclaims it — comfortably past every client stall/op deadline.
	OrphanAge = 2 * time.Minute
	// ScrubInterval is the default cadence of each node's background
	// integrity scrub step.
	ScrubInterval = 5 * time.Second
	// ScrubRate is the default scrub read-bandwidth budget per node.
	ScrubRate = int64(32 << 20) // bytes/sec
)

// serviceHeal is the mesh service on which a node that quarantined a corrupt
// shard pokes the other nodes' self-heal controllers; the datagram is empty.
const serviceHeal = "heal"

// stackSpec is what one node's build needs beyond its transport and control
// engines. Zero durations and rates take the package defaults.
type stackSpec struct {
	name string
	// storageDir roots this node's file backend; empty keeps shards in
	// memory.
	storageDir string
	// wrapStore is the disk-fault seam: it may interpose on the backend
	// before the daemon sees it. nil, or a nil return, keeps the bare
	// backend.
	wrapStore func(*storage.Backend) dstore.Store
	// store configures the client: code, placement universe, policy, block
	// size, telemetry. The build supplies Alive.
	store dstore.Config
	// rebalanceDebounce is how long the view must hold still before the
	// controller's pass fires.
	rebalanceDebounce time.Duration
	// scrubInterval < 0 disables the background scrub.
	scrubInterval time.Duration
	scrubRate     int64
}

// stack is the software every RAIN node runs above its mesh endpoint and its
// membership engine: the shard backend, the storage daemon,
// the store client whose liveness filter is the membership view, the
// self-heal controller and the sweep/scrub pacer. A simulated Platform is N
// of these on one scheduler and one rudp.Mesh; a deployed RealNode is one on
// its rt.Loop and RealMesh.
type stack struct {
	backend *storage.Backend
	daemon  *dstore.Daemon
	client  *dstore.Client
	healer  *selfHealer
}

// newStack builds one node on scheduler s. stopped, when non-nil, reports
// the node powered off (a simulated crash or an unjoined standby): the scrub
// skips it and the controller's gate refuses to drive from it. Everything
// built here is owned by s's goroutine.
func newStack(s *sim.Scheduler, mesh dstore.Mesh, mbr *membership.Node,
	stopped func() bool, spec stackSpec) (*stack, error) {

	if spec.rebalanceDebounce == 0 {
		spec.rebalanceDebounce = time.Second
	}
	if spec.scrubInterval == 0 {
		spec.scrubInterval = ScrubInterval
	}
	if spec.scrubRate == 0 {
		spec.scrubRate = ScrubRate
	}
	reg := spec.store.Telemetry
	st := &stack{}
	if spec.storageDir != "" {
		var err error
		if st.backend, err = storage.NewFileBackend(spec.storageDir, reg.Node(spec.name)); err != nil {
			return nil, err
		}
	} else {
		st.backend = storage.NewBackend(reg.Node(spec.name))
	}
	// The daemon reads the backend through the Store seam so the chaos
	// suite can interpose disk faults.
	store := dstore.Store(st.backend)
	if spec.wrapStore != nil {
		if w := spec.wrapStore(st.backend); w != nil {
			store = w
		}
	}
	// The daemon's clock is the scheduler's (virtual time in the simulator,
	// ns since start on a loop): orphan ages are relative, so any monotonic
	// clock serves.
	clock := func() time.Time { return time.Unix(0, int64(s.Now())) }
	st.daemon = dstore.NewDaemon(mesh, spec.name, 0, store, 0,
		dstore.WithDaemonClock(clock), dstore.WithDaemonTelemetry(reg))

	// Liveness is the membership protocol's view from this node (self is
	// always alive); the client's hedging covers the detection gap after a
	// crash.
	spec.store.Alive = func(peer string) bool {
		return peer == spec.name || mbr.InView(peer)
	}
	cl, err := dstore.NewClient(s, mesh, spec.name, spec.store)
	if err != nil {
		return nil, err
	}
	st.client = cl
	// The controller: the one driver of every reconciliation pass, which
	// also repairs every shard a daemon quarantines.
	st.healer = newSelfHealer(s, cl, mbr, stopped, spec.rebalanceDebounce, reg.Node(spec.name))
	// A shard the daemon quarantines pokes this node's controller and, with
	// one empty datagram each, every other one in the view. Only the
	// leader's gate turns its poke into a pass, so nobody needs to know who
	// leads.
	mesh.Handle(spec.name, serviceHeal, func(string, []byte) { st.healer.poke() })
	st.daemon.OnCorrupt(func() {
		st.healer.poke()
		for _, peer := range mbr.View() {
			if peer != spec.name {
				mesh.SendService(spec.name, peer, serviceHeal, nil)
			}
		}
	})

	// The pacer. Orphan sweep: the garbage-collection half of the put/get
	// session protocol.
	var sweep func()
	sweep = func() {
		st.daemon.SweepOrphans(OrphanAge)
		s.After(SweepInterval, sweep)
	}
	s.After(SweepInterval, sweep)
	// Integrity scrub: the node walks its own shard set verifying checksums
	// under the read-bandwidth budget; what it finds is quarantined by the
	// backend and reported through OnCorrupt above. The same step, under the
	// same budget, compacts a file backend's log.
	if spec.scrubInterval > 0 {
		budget := spec.scrubRate * int64(spec.scrubInterval) / int64(time.Second)
		if budget < 1 {
			budget = 1
		}
		var scrub func()
		scrub = func() {
			if stopped == nil || !stopped() {
				st.daemon.ScrubStep(budget)
				st.backend.Compact(budget)
			}
			s.After(spec.scrubInterval, scrub)
		}
		s.After(spec.scrubInterval, scrub)
	}
	return st, nil
}

// defaultCode is the one rule for a cluster that names no code: the paper's
// B-Code when n is valid for it, otherwise Reed-Solomon (n, n-2) — two
// erasures tolerated, like every §4.1 array code — and a plain mirror for
// the two-node cluster, where n-2 leaves no data shard.
func defaultCode(n int) (ecc.Code, error) {
	if c, err := ecc.NewBCode(n); err == nil {
		return c, nil
	}
	k := n - 2
	if k < 1 {
		k = 1
	}
	c, err := ecc.NewReedSolomon(n, k)
	if err != nil {
		return nil, fmt.Errorf("core: no default code for %d nodes: %w", n, err)
	}
	return c, nil
}
