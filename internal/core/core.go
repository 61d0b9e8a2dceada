// Package core assembles the RAIN building blocks — fault-tolerant
// communication (RUDP over bundled interfaces), token-based group
// membership (whose view also names the leader: its smallest name), and
// erasure-coded distributed storage — into one Platform, the "collection of
// software modules running in conjunction with operating system services and
// standard network protocols" of Fig 2.
//
// That set of modules is assembled once, per node (stack.go): shard backend,
// storage daemon, store client, self-heal controller and sweep/scrub pacer
// over the node's mesh endpoint and its membership engine. A Platform is N
// of those nodes on one simulated network and one scheduler — two network
// interfaces each, the membership ring running across them, distributed
// store/retrieve operations backed by any of the §4 array codes — with fault
// injection (node crashes, link cuts, interface failures) part of the API
// because exercising failures is the point of the system. A RealNode
// (node.go) is exactly one of those nodes, on UDP sockets and a wall-clock
// loop.
//
// Every node runs the self-heal controller (selfheal.go), and the leader's
// controller is the only driver of a reconciliation pass: view changes,
// detected corruption and a caller's Rebalance or ReplaceNode all reach the
// cluster as requests to it.
package core

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/membership"
	"rain/internal/rudp"
	"rain/internal/sim"
	"rain/internal/storage"
	"rain/internal/telemetry"
)

// Options configures a Platform.
type Options struct {
	// Seed makes the whole simulated cluster deterministic.
	Seed int64
	// Paths is the number of bundled network interfaces per node pair
	// (default 2, the testbed layout).
	Paths int
	// Code is the erasure code for distributed storage; its N must not
	// exceed the number of nodes. With N below the node count, each
	// object's n shard holders are chosen by per-object rendezvous
	// placement over the whole cluster (internal/placement). Default:
	// B-Code when len(nodes) is valid for it, otherwise Reed-Solomon
	// (n, n-2) over all nodes (see defaultCode).
	Code ecc.Code
	// Policy selects the retrieve node-selection policy.
	Policy storage.Policy
	// Detection selects the membership failure-detection protocol.
	Detection membership.Detection
	// LinkDelay and LinkLoss configure every simulated link.
	LinkDelay time.Duration
	LinkLoss  float64
	// BlockSize is the block-codeword size every put writes (Put and
	// PutStream alike); 0 takes the dstore default.
	BlockSize int
	// StorageDir, when set, gives every node a file-backed shard store
	// under StorageDir/<node> instead of the in-memory backend, so stored
	// objects do not occupy heap (the bounded-memory deployments).
	StorageDir string
	// RebuildBudget bounds concurrent rebuild/rebalance memory per client
	// in bytes (block × n per in-flight object); 0 takes the dstore
	// default.
	RebuildBudget int64
	// Domains maps node -> failure-domain label (a rack): placement then
	// keeps an object's shards in distinct domains when enough domains
	// exist, so a correlated rack loss costs at most one shard per object.
	Domains map[string]string
	// Weights maps node -> relative capacity weight for placement (missing
	// means 1): bigger nodes hold proportionally more shards.
	Weights map[string]float64
	// Standby names nodes (each must appear in the node list) provisioned
	// powered-off: mesh endpoint stopped, no membership ring entry, absent
	// from every client's placement universe. Platform.Join powers one up
	// and admits it through the 911 mechanism.
	Standby []string
	// RebalanceDebounce is how long the membership view must stay
	// unchanged before the leader's self-heal pass fires (default 1s).
	RebalanceDebounce time.Duration
	// ScrubInterval is how often each live node's background integrity
	// scrub runs one budgeted step over its local shard set (default
	// ScrubInterval; negative disables scrubbing). What it quarantines, the
	// leader's next pass re-creates.
	ScrubInterval time.Duration
	// ScrubRate bounds the scrub's read bandwidth per node in bytes/sec
	// (default ScrubRate). Each step verifies at most
	// ScrubRate × ScrubInterval bytes.
	ScrubRate int64
	// WrapStore, when set, wraps each node's shard backend before the
	// daemon sees it — the disk-fault injection seam the chaos suite uses
	// to flip bits, tear writes and stall reads underneath a live daemon.
	// Returning nil keeps the bare backend.
	WrapStore func(node string, b *storage.Backend) dstore.Store
}

func (o Options) withDefaults(nodes int) (Options, error) {
	if o.Paths == 0 {
		o.Paths = 2
	}
	if o.LinkDelay == 0 {
		o.LinkDelay = 200 * time.Microsecond
	}
	if o.Code == nil {
		c, err := defaultCode(nodes)
		if err != nil {
			return o, err
		}
		o.Code = c
	}
	if o.Code.N() > nodes {
		return o, fmt.Errorf("core: code n=%d but cluster has only %d nodes", o.Code.N(), nodes)
	}
	return o, nil
}

// Platform is a running RAIN cluster. Every node runs a storage daemon on
// the mesh, a client session and the self-heal controller; Put/Get are mesh
// operations over per-object rendezvous placements, and ReplaceNode and
// Rebalance are requests to the leader's controller.
type Platform struct {
	Scheduler *sim.Scheduler
	Network   *sim.Network
	Nodes     []string

	Mesh       *rudp.Mesh
	Membership *membership.MeshCluster
	Backends   map[string]*storage.Backend
	Daemons    map[string]*dstore.Daemon
	Clients    map[string]*dstore.Client

	// Telemetry is the platform's private metric registry: every layer
	// (rudp, storage backends, daemons, clients) reports into it, labeled by
	// node, so a scenario can snapshot cluster-wide state mid-run without
	// cross-test pollution through the process default. Tracer records
	// per-operation span traces on the same platform scope.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer

	healers map[string]*selfHealer
	opts    Options
}

// New builds and starts a platform over the named nodes. The membership
// ring and RUDP mesh begin running immediately (in virtual time; call Run to
// advance it).
func New(nodes []string, opts Options) (*Platform, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("core: need at least 2 nodes, got %d", len(nodes))
	}
	standby := make(map[string]bool, len(opts.Standby))
	for _, sb := range opts.Standby {
		known := false
		for _, n := range nodes {
			known = known || n == sb
		}
		if !known {
			return nil, fmt.Errorf("core: standby node %q not in the node list", sb)
		}
		standby[sb] = true
	}
	active := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if !standby[n] {
			active = append(active, n)
		}
	}
	if len(active) < 2 {
		return nil, fmt.Errorf("core: need at least 2 active nodes, got %d", len(active))
	}
	// Code width and placement universes are sized to the nodes that start
	// powered on; standbys enter the universe only when admitted.
	opts, err := opts.withDefaults(len(active))
	if err != nil {
		return nil, err
	}
	s := sim.New(opts.Seed)
	net := sim.NewNetwork(s)
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			for p := 0; p < opts.Paths; p++ {
				net.SetLink(sim.NodeAddr(a, p), sim.NodeAddr(b, p), sim.LinkConfig{
					Delay:  opts.LinkDelay,
					Jitter: opts.LinkDelay / 4,
					Loss:   opts.LinkLoss,
				})
			}
		}
	}
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	// The default RUDP timers assume LAN latency. On slower links the ping
	// round-trip alone would exceed PingTimeout and declare every path
	// dead, stalling all traffic — scale the monitors and RTO with the
	// configured delay (RTT plus jitter headroom). Membership's failure
	// budget derives from this RTO inside RUDP (Endpoint.SendNotify), so
	// a scaled RTO stretches it too.
	rcfg := rudp.Config{Paths: opts.Paths, Telemetry: reg}
	if rtt := 3 * opts.LinkDelay; rtt > 35*time.Millisecond {
		rcfg.RTO = 2 * rtt
		rcfg.PingInterval = rtt
		rcfg.PingTimeout = 2 * rtt
	}
	mesh, err := rudp.NewMesh(s, net, nodes, rcfg)
	if err != nil {
		return nil, err
	}
	// Membership runs as a live service on the data mesh, not on a private
	// NIC.
	mcfg := membership.Config{Detection: opts.Detection}
	if opts.LinkDelay > 5*time.Millisecond {
		// Slow links: pace the token with the latency so its rotation
		// outruns the starve clock.
		mcfg.HoldInterval = 2 * opts.LinkDelay
		mcfg.StarveTimeout = 2 * time.Second
	}
	mbr := membership.NewMeshCluster(s, mesh, active, mcfg)
	for _, sb := range opts.Standby {
		mbr.AddStandby(sb)
	}
	p := &Platform{
		Scheduler:  s,
		Network:    net,
		Nodes:      append([]string(nil), nodes...),
		Mesh:       mesh,
		Membership: mbr,
		Backends:   make(map[string]*storage.Backend),
		Daemons:    make(map[string]*dstore.Daemon),
		Clients:    make(map[string]*dstore.Client),
		Telemetry:  reg,
		Tracer:     tracer,
		healers:    make(map[string]*selfHealer),
		opts:       opts,
	}
	for _, n := range nodes {
		n := n
		spec := stackSpec{
			name: n,
			store: dstore.Config{
				Code: opts.Code,
				// Placement mode: every object's n shard holders are chosen by
				// rendezvous hashing over the powered-on cluster, capacity-
				// weighted and domain-spread when the options say so.
				Nodes:         active,
				Weights:       opts.Weights,
				Domains:       opts.Domains,
				Policy:        opts.Policy,
				BlockSize:     opts.BlockSize,
				RebuildBudget: opts.RebuildBudget,
				Telemetry:     reg,
				Tracer:        tracer,
			},
			rebalanceDebounce: opts.RebalanceDebounce,
			scrubInterval:     opts.ScrubInterval,
			scrubRate:         opts.ScrubRate,
		}
		if opts.StorageDir != "" {
			spec.storageDir = filepath.Join(opts.StorageDir, n)
		}
		if opts.WrapStore != nil {
			spec.wrapStore = func(b *storage.Backend) dstore.Store { return opts.WrapStore(n, b) }
		}
		// Powered off is the mesh endpoint frozen: a crash, or a standby
		// not yet joined.
		stopped := func() bool { return mesh.Stopped(n) }
		st, err := newStack(s, mesh, mbr.Members[n], stopped, spec)
		if err != nil {
			return nil, err
		}
		p.Backends[n], p.Daemons[n], p.Clients[n] = st.backend, st.daemon, st.client
		p.healers[n] = st.healer
	}
	// Standbys are provisioned dark; Platform.Join powers one up.
	for _, sb := range opts.Standby {
		mesh.StopNode(sb)
	}
	return p, nil
}

// Run advances the cluster by d of virtual time.
func (p *Platform) Run(d time.Duration) { p.Scheduler.RunFor(d) }

// client returns the store client of the first live node.
func (p *Platform) client() (*dstore.Client, error) {
	for _, n := range p.Nodes {
		if !p.Mesh.Stopped(n) {
			return p.Clients[n], nil
		}
	}
	return nil, fmt.Errorf("core: no live node to run a store client")
}

// leader returns the controller of the cluster's leader as the first live
// node whose view is confirmed sees it: a revived node starves, its ring
// stale, until the token reaches it again.
func (p *Platform) leader() (*selfHealer, error) {
	for _, n := range p.Nodes {
		if m := p.Membership.Members[n]; !p.Mesh.Stopped(n) && !m.Starving() {
			return p.healers[m.Leader()], nil
		}
	}
	return nil, fmt.Errorf("core: no live node to name a leader")
}

// Put stores an object across the cluster with a distributed store
// operation (§4.2): the shards travel to the storage daemons over the RUDP
// mesh. Blocks in virtual time; call from outside scheduler callbacks.
func (p *Platform) Put(id string, data []byte) error {
	cl, err := p.client()
	if err != nil {
		return err
	}
	_, err = cl.Put(id, data)
	return err
}

// Get retrieves an object from any k reachable nodes over the mesh (§4.2).
func (p *Platform) Get(id string) ([]byte, error) {
	cl, err := p.client()
	if err != nil {
		return nil, err
	}
	return cl.Get(id)
}

// PutStream stores an object from a reader through the block-codeword
// streaming layout: the object is encoded one block at a time and the n
// shard streams travel to the daemons as windowed chunk streams, so client
// memory stays bounded by O(BlockSize × n) however large the object. size
// must be the exact number of bytes r will deliver. Blocks in virtual time;
// call from outside scheduler callbacks.
func (p *Platform) PutStream(id string, r io.Reader, size int64) error {
	cl, err := p.client()
	if err != nil {
		return err
	}
	_, err = cl.PutStream(id, r, size)
	return err
}

// GetStream retrieves an object from any k reachable nodes over the mesh,
// decoding block by block into w as the shard streams arrive — the
// bounded-memory read path that serves objects far larger than RAM. It
// returns the number of bytes written.
func (p *Platform) GetStream(id string, w io.Writer) (int64, error) {
	cl, err := p.client()
	if err != nil {
		return 0, err
	}
	return cl.GetStream(id, w)
}

// ReplaceNode hot-swaps a blank node in at the given name (dynamic
// reconfiguration, §4.2): the node's shards are wiped, the node is revived
// across every subsystem, and once the leader's membership view holds it
// again (waiting at most dstore.DefaultOpTimeout), the leader's controller
// runs one reconciliation pass that re-creates its shards over the mesh —
// several objects pipelined under the rebuild memory budget, each reading a
// survivor k-subset chosen to spread load. A hot swap is the reconciliation
// delta of one node losing everything, so it is a Rebalance request. Returns
// the number of shards moved or rebuilt.
func (p *Platform) ReplaceNode(node string) (int, error) {
	if err := p.known(node); err != nil {
		return 0, err
	}
	p.Backends[node].Wipe()
	if err := p.Resume(node); err != nil {
		return 0, err
	}
	deadline := p.Scheduler.Now().Add(dstore.DefaultOpTimeout)
	for {
		h, err := p.leader()
		if err != nil {
			return 0, err
		}
		up := !p.Mesh.Stopped(h.client.Node()) && !h.mbr.Starving()
		if up && h.mbr.InView(node) || p.Scheduler.Now() >= deadline || !p.Scheduler.Step() {
			break
		}
	}
	stats, err := p.Rebalance()
	return stats.Moved + stats.Rebuilt, err
}

// Rebalance asks the leader's controller for a reconciliation pass and
// blocks in virtual time until it ends: missing or misplaced shards are
// copied or reconstructed onto their target holders and stale copies
// dropped — a cluster scrub. The pass runs at once, or right after the
// controller's running pass; with fewer than k nodes in the leader's view it
// fails with dstore.ErrQuorum. Call from outside scheduler callbacks.
func (p *Platform) Rebalance() (stats dstore.RebalanceStats, err error) {
	finished := false
	if err := p.RebalanceAsync(func(s dstore.RebalanceStats, e error) { stats, err, finished = s, e, true }); err != nil {
		return stats, err
	}
	for !finished && p.Scheduler.Step() {
	}
	return stats, err
}

// RebalanceAsync is Rebalance that returns at once; done fires in virtual
// time when the pass ends. Mid-pass progress is visible through the
// rebalance.objects_total / rebalance.objects_done gauges on the leader's
// telemetry scope.
func (p *Platform) RebalanceAsync(done func(dstore.RebalanceStats, error)) error {
	h, err := p.leader()
	if err != nil {
		return err
	}
	h.request(done)
	return nil
}

// Join powers up a standby node and admits it to the running cluster through
// seed's 911 mechanism (§3.3.2): the mesh endpoint thaws over its empty
// backend and the membership engine requests a ring slot. The resulting view
// change pulls the node into every placement universe, and the leader's next
// debounced pass moves shards onto it.
func (p *Platform) Join(node, seed string) error {
	if err := p.known(node); err != nil {
		return err
	}
	p.Mesh.StartNode(node)
	p.Membership.Join(node, seed)
	return nil
}

// SelfHealStats reports a cluster node's self-heal controller counters.
func (p *Platform) SelfHealStats(node string) SelfHealStats { return p.healers[node].stats }

// Send queues a reliable datagram between two nodes over the bundled
// RUDP paths.
func (p *Platform) Send(from, to string, payload []byte) { p.Mesh.Send(from, to, payload) }

// OnMessage registers a node's datagram handler.
func (p *Platform) OnMessage(node string, fn func(from string, payload []byte)) {
	p.Mesh.OnMessage(node, fn)
}

// known rejects a node name outside the cluster.
func (p *Platform) known(node string) error {
	if p.Backends[node] == nil {
		return fmt.Errorf("core: unknown node %q", node)
	}
	return nil
}

// Pause freezes a node across every subsystem: its membership engine
// stops, its RUDP endpoints freeze (which also silences its daemon, client
// and controller), and all of its links are cut. The node keeps its memory,
// as a VM or process pause does; it is not a crash.
func (p *Platform) Pause(node string) error {
	if err := p.known(node); err != nil {
		return err
	}
	p.Membership.Stop(node)
	p.Mesh.StopNode(node)
	// StopNode/Stop each cut links; heal-order on resumption is handled in
	// Resume.
	return nil
}

// Resume thaws a paused node; membership readmits it via the 911
// mechanism.
func (p *Platform) Resume(node string) error {
	if err := p.known(node); err != nil {
		return err
	}
	p.Membership.Restart(node)
	p.Mesh.StartNode(node)
	// A revived node may see no view change (its frozen ring can match the
	// post-rejoin reality), so nudge its controller explicitly; the gate
	// decides at fire time whether it really leads.
	p.healers[node].arm()
	return nil
}

// CutPath severs one bundled interface pair between two nodes (pulling one
// cable of the two).
func (p *Platform) CutPath(a, b string, path int) { p.Mesh.CutPath(a, b, path) }

// HealPath restores a previously cut interface pair.
func (p *Platform) HealPath(a, b string, path int) { p.Mesh.HealPath(a, b, path) }

// Leader returns the cluster leader as seen by the given node: the smallest
// name in its membership view.
func (p *Platform) Leader(node string) string { return p.Membership.Members[node].Leader() }

// MembershipView returns the membership ring as seen by the given node.
func (p *Platform) MembershipView(node string) []string {
	return p.Membership.Members[node].View()
}

// Consensus reports whether all live nodes agree on the membership, and
// the agreed view.
func (p *Platform) Consensus() ([]string, bool) { return p.Membership.ConsensusView() }

// Code returns the storage code in use.
func (p *Platform) Code() ecc.Code { return p.opts.Code }
