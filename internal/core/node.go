// One real cluster process. Where Platform assembles a whole simulated
// cluster in one address space, RealNode assembles exactly one node of a
// deployed cluster: the dial-by-address UDP mesh, a storage daemon, a store
// client, the membership and election engines and the self-heal control
// loop, all running on a single rt.Loop so every engine keeps the
// simulator's one-goroutine ownership discipline over real sockets.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/election"
	"rain/internal/membership"
	"rain/internal/rt"
	"rain/internal/rudp"
	"rain/internal/sim"
	"rain/internal/storage"
	"rain/internal/telemetry"
)

// NodeConfig configures one RealNode process.
type NodeConfig struct {
	// Name is this node's cluster identity; it must appear in Ring.
	Name string
	// Ring is the full static cluster roster in a fixed order shared by
	// every process. Ring[0] seeds the membership token; everyone else
	// joins through it.
	Ring []string
	// Locals are the local UDP bind addresses, one per bundled path.
	Locals []string
	// Advertise overrides the addresses told to peers (defaults to the
	// resolved bind addresses).
	Advertise []string
	// Peers maps peer name to its address bundle, one address per path.
	// It only has to cover whoever this node dials first — the seed at
	// minimum; the rest is learned from inbound hellos.
	Peers map[string][]string
	// Code is the erasure code; defaults like Options.Code, sized to Ring.
	Code ecc.Code
	// Policy selects the retrieve node-selection policy.
	Policy storage.Policy
	// BlockSize is the streaming block-codeword size (0 = dstore default).
	BlockSize int
	// StorageDir, when set, backs the shard store with files under it;
	// empty keeps shards in memory.
	StorageDir string
	// RebalanceDebounce is the self-heal debounce (default 1s).
	RebalanceDebounce time.Duration
	// ScrubInterval / ScrubRate pace the background integrity scrub
	// (defaults ScrubInterval / ScrubRate; a negative interval disables).
	ScrubInterval time.Duration
	ScrubRate     int64
	// WrapStore, when set, wraps the shard backend before the daemon sees
	// it — the disk-fault injection seam. Returning nil keeps the bare
	// backend.
	WrapStore func(b *storage.Backend) dstore.Store
	// Conn parameterises the per-peer RUDP connections.
	Conn rudp.Config
	// Telemetry and Tracer default to the process-wide instances.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
	// Seed seeds the loop scheduler's RNG (hedging, placement jitter).
	Seed int64
}

// RealNode is one running cluster process: every engine lives on Loop and
// must only be touched from loop callbacks. The ctx-taking methods are the
// goroutine-safe facade; they bridge request contexts onto the loop by
// posting the operation and cancelling its Handle when the context dies.
type RealNode struct {
	Loop       *rt.Loop
	Mesh       *rudp.RealMesh
	Backend    *storage.Backend
	Daemon     *dstore.Daemon
	Client     *dstore.Client
	Membership *membership.MeshNode
	Election   *election.MeshNode
	Telemetry  *telemetry.Registry
	Tracer     *telemetry.Tracer

	cfg  NodeConfig
	code ecc.Code

	// self-heal controller state, loop-owned (same shape as selfHealer).
	healTimer sim.Timer
	healing   bool
	rearm     bool
}

// StartRealNode builds and starts one cluster process. The loop, mesh and
// control engines begin running immediately; storage operations are served
// as soon as enough of the ring is reachable.
func StartRealNode(cfg NodeConfig) (*RealNode, error) {
	self := -1
	for i, n := range cfg.Ring {
		if n == cfg.Name {
			self = i
		}
	}
	if self < 0 {
		return nil, fmt.Errorf("core: node %q not in ring %v", cfg.Name, cfg.Ring)
	}
	if cfg.Code == nil {
		if c, err := ecc.NewBCode(len(cfg.Ring)); err == nil {
			cfg.Code = c
		} else if c, err := ecc.NewReedSolomon(len(cfg.Ring), len(cfg.Ring)-1); err == nil {
			cfg.Code = c
		} else {
			return nil, fmt.Errorf("core: no default code for %d nodes: %w", len(cfg.Ring), err)
		}
	}
	if cfg.Code.N() > len(cfg.Ring) {
		return nil, fmt.Errorf("core: code n=%d but ring has %d nodes", cfg.Code.N(), len(cfg.Ring))
	}
	if cfg.RebalanceDebounce == 0 {
		cfg.RebalanceDebounce = time.Second
	}
	if cfg.ScrubInterval == 0 {
		cfg.ScrubInterval = ScrubInterval
	}
	if cfg.ScrubRate == 0 {
		cfg.ScrubRate = ScrubRate
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.Default()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.DefaultTracer()
	}
	cfg.Conn.Telemetry = cfg.Telemetry

	n := &RealNode{cfg: cfg, code: cfg.Code, Telemetry: cfg.Telemetry, Tracer: cfg.Tracer}
	n.Loop = rt.New(cfg.Seed)
	n.Loop.Start()

	var err error
	n.Loop.Call(func() { err = n.buildLocked(self) })
	if err != nil {
		n.Loop.Stop()
		return nil, err
	}
	return n, nil
}

// buildLocked wires every engine; runs on the loop.
func (n *RealNode) buildLocked(self int) error {
	cfg := n.cfg
	s := n.Loop.Scheduler()
	mesh, err := rudp.NewRealMesh(n.Loop, rudp.RealConfig{
		Name:      cfg.Name,
		Locals:    cfg.Locals,
		Advertise: cfg.Advertise,
		Peers:     cfg.Peers,
		Conn:      cfg.Conn,
	})
	if err != nil {
		return err
	}
	n.Mesh = mesh

	scope := cfg.Telemetry.Node(cfg.Name)
	if cfg.StorageDir != "" {
		n.Backend, err = storage.NewFileBackend(cfg.StorageDir, scope)
		if err != nil {
			mesh.Close()
			return err
		}
	} else {
		n.Backend = storage.NewBackend(scope)
	}
	// The daemon's clock is the loop's virtual clock (ns since start):
	// orphan ages are relative, so any monotonic clock serves.
	clock := func() time.Time { return time.Unix(0, int64(s.Now())) }
	dstoreBackend := dstore.Store(n.Backend)
	if cfg.WrapStore != nil {
		if w := cfg.WrapStore(n.Backend); w != nil {
			dstoreBackend = w
		}
	}
	n.Daemon = dstore.NewDaemon(mesh, cfg.Name, self, dstoreBackend, 0,
		dstore.WithDaemonClock(clock), dstore.WithDaemonTelemetry(cfg.Telemetry))

	// Membership and election over the real mesh. The engines are the same
	// state machines the simulated cluster runs; liveness shortcuts come
	// from the mesh's handshake state.
	mcfg := membership.MeshConfig{AckTimeout: ackTimeout(cfg.Conn, 0)}
	n.Membership = membership.NewMeshNode(s, mesh, cfg.Name, []string{cfg.Name}, mcfg, mesh.PeerUp)
	peers := make([]string, 0, len(cfg.Ring)-1)
	for _, p := range cfg.Ring {
		if p != cfg.Name {
			peers = append(peers, p)
		}
	}
	n.Election = election.NewMeshNode(s, mesh, cfg.Name, peers, election.Config{}, mesh.Backlog)

	cl, err := dstore.NewClient(s, mesh, cfg.Name, dstore.Config{
		Code:      cfg.Code,
		Nodes:     cfg.Ring,
		Policy:    cfg.Policy,
		BlockSize: cfg.BlockSize,
		Telemetry: cfg.Telemetry,
		Tracer:    cfg.Tracer,
		// Liveness is the membership view; self is always alive.
		Alive: func(peer string) bool {
			if peer == cfg.Name {
				return true
			}
			for _, v := range n.Membership.Node().View() {
				if v == peer {
					return true
				}
			}
			return false
		},
	})
	if err != nil {
		mesh.Close()
		return err
	}
	n.Client = cl

	// The self-heal control loop, per-process edition: the view reshapes
	// the placement universe, the leader drives debounced rebalances, a
	// deposed leader's pass yields through the gate.
	n.Membership.Node().OnMembershipChange(func(view []string) {
		if len(view) >= n.code.N() {
			cl.SetNodes(view)
		}
		n.armHeal()
	})
	n.Election.Node().OnLeaderChange(func(leader string, epoch uint64) {
		if leader == cfg.Name {
			n.armHeal()
		}
	})
	cl.SetRebalanceGate(func() bool {
		return n.Election.Node().IsLeader() &&
			len(n.Membership.Node().View()) >= n.code.N()
	})

	// Seed or join the ring.
	if cfg.Ring[0] == cfg.Name {
		n.Membership.StartWithToken()
	} else {
		n.Membership.Join(cfg.Ring[0])
	}

	// Corruption the local scrub finds is repaired in place by this
	// node's own client (same loop goroutine, so queueing is direct).
	n.Daemon.OnCorrupt(func(id string, shardIdx int) {
		cl.QueueRepair(id, shardIdx, cfg.Name)
	})

	// Orphaned transfer state left by crashed clients is reclaimed here
	// like on the simulated platform.
	var sweep func()
	sweep = func() {
		n.Daemon.SweepOrphans(OrphanAge)
		s.After(SweepInterval, sweep)
	}
	s.After(SweepInterval, sweep)
	// Background integrity scrub over the local shard set, paced by the
	// read-bandwidth budget.
	if cfg.ScrubInterval > 0 {
		budget := cfg.ScrubRate * int64(cfg.ScrubInterval) / int64(time.Second)
		if budget < 1 {
			budget = 1
		}
		var scrub func()
		scrub = func() {
			n.Daemon.ScrubStep(budget)
			s.After(cfg.ScrubInterval, scrub)
		}
		s.After(cfg.ScrubInterval, scrub)
	}
	return nil
}

// armHeal (re)starts the rebalance debounce; loop-owned.
func (n *RealNode) armHeal() {
	if n.healing {
		n.rearm = true
		return
	}
	n.healTimer.Stop()
	n.healTimer = n.Loop.Scheduler().After(n.cfg.RebalanceDebounce, n.fireHeal)
}

func (n *RealNode) fireHeal() {
	if n.healing || !n.Election.Node().IsLeader() ||
		len(n.Membership.Node().View()) < n.code.N() {
		return
	}
	n.healing = true
	n.rearm = false
	n.Client.RebalanceAsync(nil, func(stats dstore.RebalanceStats, err error) {
		n.healing = false
		if n.rearm || (err != nil && !errors.Is(err, dstore.ErrYielded)) {
			n.armHeal()
		}
		n.rearm = false
	})
}

// Stop tears the process down: mesh sockets close, the loop halts. Pending
// operations resolve as cancelled where their callers still wait.
func (n *RealNode) Stop() {
	if n.Mesh != nil {
		n.Mesh.Close()
	}
	n.Loop.Stop()
}

// Call runs fn on the node's event loop and reports whether it ran — the
// bridge request-scoped callers (the gateway) use to touch loop-owned
// engines. Never call from a loop callback.
func (n *RealNode) Call(fn func()) bool { return n.Loop.Call(fn) }

// View returns the membership ring as this node currently sees it.
func (n *RealNode) View() []string {
	var v []string
	n.Loop.Call(func() { v = n.Membership.Node().View() })
	return v
}

// Leader returns the cluster leader as this node currently sees it.
func (n *RealNode) Leader() string {
	var l string
	n.Loop.Call(func() { l = n.Election.Node().Leader() })
	return l
}

// WaitReady blocks until this node's membership view spans the code width
// (the cluster can host full placements) or ctx is cancelled.
func (n *RealNode) WaitReady(ctx context.Context) error {
	for {
		ready := false
		if !n.Loop.Call(func() {
			ready = len(n.Membership.Node().View()) >= n.code.N()
		}) {
			return dstore.ErrCanceled
		}
		if ready {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// Put stores an object across the cluster, aborting the shard fan-out when
// ctx is cancelled. Goroutine-safe.
func (n *RealNode) Put(ctx context.Context, id string, data []byte) error {
	ch := make(chan error, 1)
	var h *dstore.Handle
	if !n.Loop.Call(func() {
		h = n.Client.PutAsync(id, data, func(_ int, e error) { ch <- e })
	}) {
		return dstore.ErrCanceled
	}
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		if !n.Loop.Call(func() { h.Cancel() }) {
			return ctx.Err()
		}
		return <-ch
	}
}

// PutStream stores an object from a reader; the reader is consumed on the
// calling goroutine so the loop never blocks on it. Goroutine-safe.
func (n *RealNode) PutStream(ctx context.Context, id string, r io.Reader, size int64) error {
	f, err := n.NewPutFeed(id, size)
	if err != nil {
		return err
	}
	buf := make([]byte, 64<<10)
	for {
		m, rerr := r.Read(buf)
		if m > 0 {
			if err := f.Offer(ctx, buf[:m]); err != nil {
				f.Abort()
				return err
			}
		}
		if rerr == io.EOF {
			return f.Close(ctx)
		}
		if rerr != nil {
			f.Abort()
			return rerr
		}
	}
}

// Get retrieves a whole object into memory. Goroutine-safe.
func (n *RealNode) Get(ctx context.Context, id string) ([]byte, error) {
	type result struct {
		data []byte
		err  error
	}
	ch := make(chan result, 1)
	var h *dstore.Handle
	if !n.Loop.Call(func() {
		h = n.Client.GetAsync(id, func(d []byte, e error) { ch <- result{d, e} })
	}) {
		return nil, dstore.ErrCanceled
	}
	select {
	case r := <-ch:
		return r.data, r.err
	case <-ctx.Done():
		if !n.Loop.Call(func() { h.Cancel() }) {
			return nil, ctx.Err()
		}
		r := <-ch
		return r.data, r.err
	}
}

// Delete removes an object's shards cluster-wide. Deletes are idempotent,
// so cancellation just stops the wait. Goroutine-safe.
func (n *RealNode) Delete(ctx context.Context, id string) error {
	ch := make(chan error, 1)
	if !n.Loop.Call(func() {
		n.Client.DeleteAsync(id, func(e error) { ch <- e })
	}) {
		return dstore.ErrCanceled
	}
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// List walks the cluster inventory. Goroutine-safe.
func (n *RealNode) List(ctx context.Context) ([]dstore.ObjectStat, error) {
	type result struct {
		objs []dstore.ObjectStat
		err  error
	}
	ch := make(chan result, 1)
	if !n.Loop.Call(func() {
		n.Client.ListAsync(func(o []dstore.ObjectStat, e error) { ch <- result{o, e} })
	}) {
		return nil, dstore.ErrCanceled
	}
	select {
	case r := <-ch:
		return r.objs, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Stat looks one object up in the merged inventory. Goroutine-safe.
func (n *RealNode) Stat(ctx context.Context, id string) (dstore.ObjectStat, error) {
	type result struct {
		st  dstore.ObjectStat
		err error
	}
	ch := make(chan result, 1)
	if !n.Loop.Call(func() {
		n.Client.StatAsync(id, func(st dstore.ObjectStat, e error) { ch <- result{st, e} })
	}) {
		return dstore.ObjectStat{}, dstore.ErrCanceled
	}
	select {
	case r := <-ch:
		return r.st, r.err
	case <-ctx.Done():
		return dstore.ObjectStat{}, ctx.Err()
	}
}

// Feed is the goroutine-safe push-mode streaming put: dstore.PutFeed bound
// to the node's loop, with Offer blocking the producer (not the loop) while
// the credit windows are full. The gateway's PUT path feeds request bodies
// through it.
type Feed struct {
	n      *RealNode
	f      *dstore.PutFeed
	room   chan struct{}
	done   chan struct{}
	stored int
	err    error
}

// NewPutFeed opens a push-mode streaming put of exactly size bytes.
func (n *RealNode) NewPutFeed(id string, size int64) (*Feed, error) {
	fd := &Feed{n: n, room: make(chan struct{}, 1), done: make(chan struct{})}
	var err error
	if !n.Loop.Call(func() {
		fd.f, err = n.Client.NewPutFeed(id, size, func(s int, e error) {
			fd.stored, fd.err = s, e
			close(fd.done)
		})
		if err == nil {
			fd.f.OnRoom(func() {
				select {
				case fd.room <- struct{}{}:
				default:
				}
			})
		}
	}) {
		return nil, dstore.ErrCanceled
	}
	if err != nil {
		return nil, err
	}
	return fd, nil
}

// Offer delivers the next bytes, blocking while the pipeline is full until
// the windows drain, the put resolves (the outcome surfaces at Close), or
// ctx is cancelled.
func (fd *Feed) Offer(ctx context.Context, p []byte) error {
	room := false
	if !fd.n.Loop.Call(func() { room = fd.f.Offer(p) }) {
		return dstore.ErrCanceled
	}
	if room {
		return nil
	}
	select {
	case <-fd.room:
		return nil
	case <-fd.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close completes the stream and waits for the put to resolve; a cancelled
// ctx aborts the put instead (the daemons' staged writes are poisoned).
func (fd *Feed) Close(ctx context.Context) error {
	if !fd.n.Loop.Call(fd.f.Close) {
		return dstore.ErrCanceled
	}
	select {
	case <-fd.done:
		return fd.err
	case <-ctx.Done():
		if !fd.n.Loop.Call(fd.f.Cancel) {
			return ctx.Err()
		}
		<-fd.done
		return fd.err
	}
}

// Abort cancels the put; done state settles on the loop asynchronously.
func (fd *Feed) Abort() { fd.n.Loop.Post(fd.f.Cancel) }
