// One real cluster process. Where Platform runs N node stacks on one
// simulated mesh, RealNode runs exactly one — the same newStack build — over
// the dial-by-address UDP mesh, with its membership driver, all on a single
// rt.Loop so every engine keeps the simulator's one-goroutine ownership
// discipline over real sockets.
package core

import (
	"context"
	"fmt"
	"time"

	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/membership"
	"rain/internal/rt"
	"rain/internal/rudp"
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
	// Code is the erasure code; defaults like Options.Code (defaultCode),
	// sized to Ring.
	Code ecc.Code
	// BlockSize is the streaming block-codeword size (0 = dstore default).
	BlockSize int
	// StorageDir, when set, backs the shard store with files under it;
	// empty keeps shards in memory.
	StorageDir string
	// RebalanceDebounce is the self-heal debounce (default 1s).
	RebalanceDebounce time.Duration
	// Telemetry and Tracer default to the process-wide instances.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
	// Seed seeds the loop scheduler's RNG (hedging, placement jitter).
	Seed int64
}

// RealNode is one running cluster process: every engine lives on Loop and
// must only be touched from loop callbacks. The embedded dstore.Bridge is the
// goroutine-safe facade — Put, Get, PutStream, Stat, List and Delete take a
// request context, post the operation onto the loop and cancel its Handle
// when the context dies.
type RealNode struct {
	*dstore.Bridge

	Loop       *rt.Loop
	Mesh       *rudp.RealMesh
	Backend    *storage.Backend
	Daemon     *dstore.Daemon
	Client     *dstore.Client
	Membership *membership.MeshNode
	Telemetry  *telemetry.Registry
	Tracer     *telemetry.Tracer

	code   ecc.Code
	healer *selfHealer
}

// StartRealNode builds and starts one cluster process. The loop, mesh and
// control engines begin running immediately; storage operations are served
// as soon as enough of the ring is reachable.
func StartRealNode(cfg NodeConfig) (*RealNode, error) {
	inRing := false
	for _, n := range cfg.Ring {
		inRing = inRing || n == cfg.Name
	}
	if !inRing {
		return nil, fmt.Errorf("core: node %q not in ring %v", cfg.Name, cfg.Ring)
	}
	if cfg.Code == nil {
		c, err := defaultCode(len(cfg.Ring))
		if err != nil {
			return nil, err
		}
		cfg.Code = c
	}
	if cfg.Code.N() > len(cfg.Ring) {
		return nil, fmt.Errorf("core: code n=%d but ring has %d nodes", cfg.Code.N(), len(cfg.Ring))
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.Default()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.DefaultTracer()
	}
	n := &RealNode{code: cfg.Code, Telemetry: cfg.Telemetry, Tracer: cfg.Tracer}
	n.Loop = rt.New(cfg.Seed)
	n.Loop.Start()

	var err error
	n.Loop.Call(func() { err = n.build(cfg) })
	if err != nil {
		// Torn down from here, not from build: Mesh.Close waits on the loop
		// and would deadlock on the loop's own goroutine.
		n.Stop()
		return nil, err
	}
	n.Bridge = dstore.NewBridge(n.Call, n.Client)
	return n, nil
}

// build wires every engine; runs on the loop.
func (n *RealNode) build(cfg NodeConfig) error {
	s := n.Loop.Scheduler()
	mesh, err := rudp.NewRealMesh(n.Loop, rudp.RealConfig{
		Name:      cfg.Name,
		Locals:    cfg.Locals,
		Advertise: cfg.Advertise,
		Peers:     cfg.Peers,
		Conn:      rudp.Config{Telemetry: cfg.Telemetry},
	})
	if err != nil {
		return err
	}
	n.Mesh = mesh

	// Membership over the real mesh. The engine and its driver are the
	// same the simulated cluster runs.
	n.Membership = membership.NewMeshNode(s, mesh, cfg.Name, []string{cfg.Name}, membership.Config{})

	// The process is the node: nothing powers it off under its own loop, so
	// the stack gets no stopped hook.
	st, err := newStack(s, mesh, n.Membership.Node(), nil, stackSpec{
		name:       cfg.Name,
		storageDir: cfg.StorageDir,
		store: dstore.Config{
			Code:      cfg.Code,
			Nodes:     cfg.Ring,
			BlockSize: cfg.BlockSize,
			Telemetry: cfg.Telemetry,
			Tracer:    cfg.Tracer,
		},
		rebalanceDebounce: cfg.RebalanceDebounce,
	})
	if err != nil {
		return err
	}
	n.Backend, n.Daemon, n.Client, n.healer = st.backend, st.daemon, st.client, st.healer

	// Seed or join the ring.
	if cfg.Ring[0] == cfg.Name {
		n.Membership.StartWithToken()
	} else {
		n.Membership.Join(cfg.Ring[0])
	}
	return nil
}

// Stop tears the process down: mesh sockets close, the loop halts, and the
// shard backend releases its files. Pending operations resolve as cancelled
// where their callers still wait.
func (n *RealNode) Stop() {
	if n.Mesh != nil {
		n.Mesh.Close()
	}
	n.Loop.Stop()
	if n.Backend != nil {
		n.Backend.Close()
	}
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

// Leader returns the cluster leader as this node currently sees it: the
// smallest name in its membership view.
func (n *RealNode) Leader() string {
	var l string
	n.Loop.Call(func() { l = n.Membership.Node().Leader() })
	return l
}

// SelfHealStats reports this node's self-heal controller counters, like
// Platform.SelfHealStats does for a simulated node.
func (n *RealNode) SelfHealStats() SelfHealStats {
	var st SelfHealStats
	n.Loop.Call(func() { st = n.healer.stats })
	return st
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
