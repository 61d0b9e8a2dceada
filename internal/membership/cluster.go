package membership

import (
	"sort"
	"time"

	"rain/internal/sim"
)

// MeshCluster is a whole membership ring in one address space: N MeshNodes
// on a shared transport and scheduler, plus the cluster-wide queries tests
// and core.Platform ask. Stop and Restart only freeze the engines; cutting
// the node's links is the transport owner's business (core.Platform crashes
// a node by stopping the whole mesh endpoint).
type MeshCluster struct {
	S *sim.Scheduler

	// Members are the driven engines by node name.
	Members map[string]*Node

	mesh  MeshTransport
	cfg   MeshConfig
	nodes map[string]*MeshNode
}

// NewMeshCluster builds a node for every name (in initial ring order) on
// the mesh and hands the initial token to names[0].
func NewMeshCluster(s *sim.Scheduler, mesh MeshTransport, names []string, cfg MeshConfig) *MeshCluster {
	c := &MeshCluster{
		S:       s,
		Members: make(map[string]*Node),
		mesh:    mesh,
		cfg:     cfg,
		nodes:   make(map[string]*MeshNode),
	}
	for _, name := range names {
		c.addNode(name, names)
	}
	c.nodes[names[0]].StartWithToken()
	return c
}

func (c *MeshCluster) addNode(name string, ring []string) *MeshNode {
	m := NewMeshNode(c.S, c.mesh, name, ring, c.cfg, nil)
	c.nodes[name] = m
	c.Members[name] = m.Node()
	return m
}

// AddStandby provisions a powered-off node: its engine and mesh handler
// exist (ring of one, no token, frozen) so it can later Join a running
// cluster without rebuilding the mesh.
func (c *MeshCluster) AddStandby(name string) *Node {
	m := c.addNode(name, []string{name})
	m.Stop()
	return m.Node()
}

// Join powers a node up (a standby, or a brand-new one) and requests
// membership through seed, retrying while not yet admitted.
func (c *MeshCluster) Join(name, seed string) *Node {
	m := c.nodes[name]
	if m == nil {
		m = c.addNode(name, []string{name})
	}
	m.Restart()
	m.Join(seed)
	return m.Node()
}

// Stop freezes a node's engine: no ticks, no reception.
func (c *MeshCluster) Stop(name string) { c.nodes[name].Stop() }

// Restart unfreezes a stopped node; its stale protocol state is reconciled
// by the 911 rejoin path.
func (c *MeshCluster) Restart(name string) { c.nodes[name].Restart() }

// Alive lists nodes not currently stopped, sorted.
func (c *MeshCluster) Alive() []string {
	var out []string
	for name, m := range c.nodes {
		if !m.Stopped() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// ConsensusView returns the membership set every live node agrees on, or
// ok=false if live nodes disagree.
func (c *MeshCluster) ConsensusView() (view []string, ok bool) {
	var ref []string
	for _, name := range c.Alive() {
		v := c.Members[name].View()
		sort.Strings(v)
		if ref == nil {
			ref = v
			continue
		}
		if len(v) != len(ref) {
			return nil, false
		}
		for i := range v {
			if v[i] != ref[i] {
				return nil, false
			}
		}
	}
	return ref, true
}

// TokenHolders returns the live nodes currently holding a token (at most
// one in a connected cluster).
func (c *MeshCluster) TokenHolders() []string {
	var out []string
	for _, name := range c.Alive() {
		if c.Members[name].HasToken() {
			out = append(out, name)
		}
	}
	return out
}

// mbrNIC is the interface index reserved for membership traffic on the bare
// simulated network, so the protocol coexists with RUDP data paths
// (0..paths-1) on the same nodes.
const mbrNIC = 90

// Cluster is a MeshCluster over a dedicated NIC of the simulated network —
// the substrate for Fig 9 and the 911 scenarios, where tests cut individual
// membership links. The NIC neither retransmits nor orders, so the driver's
// attempt deadline only has to cover a round trip.
type Cluster struct {
	*MeshCluster
	Net *sim.Network
}

// NewCluster builds nodes for every name (in initial ring order) on net
// and hands the initial token to names[0].
func NewCluster(s *sim.Scheduler, net *sim.Network, names []string, cfg Config) *Cluster {
	mcfg := MeshConfig{Config: cfg, AckTimeout: 25 * time.Millisecond, Retries: 2}
	return &Cluster{
		MeshCluster: NewMeshCluster(s, sim.NIC{Net: net, Index: mbrNIC}, names, mcfg),
		Net:         net,
	}
}

// Stop freezes a node and severs its links: a crash.
func (c *Cluster) Stop(name string) {
	c.MeshCluster.Stop(name)
	c.Net.CutNode(name)
}

// Restart revives a stopped node (process resume).
func (c *Cluster) Restart(name string) {
	c.MeshCluster.Restart(name)
	c.Net.HealNode(name)
}

// CutLink severs the (single) membership link between two nodes.
func (c *Cluster) CutLink(a, b string) {
	c.Net.Cut(sim.NodeAddr(a, mbrNIC), sim.NodeAddr(b, mbrNIC))
}

// HealLink restores the link between two nodes.
func (c *Cluster) HealLink(a, b string) {
	c.Net.Heal(sim.NodeAddr(a, mbrNIC), sim.NodeAddr(b, mbrNIC))
}
