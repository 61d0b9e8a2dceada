package membership

import (
	"sort"

	"rain/internal/sim"
)

// MeshCluster is a whole membership ring in one address space: N MeshNodes
// on a shared mesh (a rudp.Mesh) and scheduler, plus the cluster-wide
// queries tests, the applications and core.Platform ask. Stop and Restart
// only freeze the engines; cutting the node's links is the mesh owner's
// business (a crash also stops the node's mesh endpoint).
type MeshCluster struct {
	S *sim.Scheduler

	// Members are the driven engines by node name.
	Members map[string]*Node

	mesh  MeshTransport
	cfg   Config
	nodes map[string]*MeshNode
}

// NewMeshCluster builds a node for every name (in initial ring order) on
// the mesh and hands the initial token to names[0].
func NewMeshCluster(s *sim.Scheduler, mesh MeshTransport, names []string, cfg Config) *MeshCluster {
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
	m := NewMeshNode(c.S, c.mesh, name, ring, c.cfg)
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
