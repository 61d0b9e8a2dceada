package election

import (
	"sort"

	"rain/internal/sim"
)

// MeshCluster is a whole election in one address space: N MeshNodes on a
// shared transport and scheduler. Stop and Restart only freeze the engines;
// the transport owner crashes the underlying endpoint separately.
type MeshCluster struct {
	S *sim.Scheduler

	// Members are the driven engines by node name.
	Members map[string]*Node

	nodes map[string]*MeshNode
}

// NewMeshCluster builds one election node per name on the mesh, fully
// connected. backlog (optional) reports the transport's queued datagrams
// from one node toward another; see NewMeshNode.
func NewMeshCluster(s *sim.Scheduler, mesh MeshTransport, names []string, cfg Config, backlog func(from, to string) int) *MeshCluster {
	c := &MeshCluster{S: s, Members: make(map[string]*Node), nodes: make(map[string]*MeshNode)}
	for _, name := range names {
		name := name
		peers := make([]string, 0, len(names)-1)
		for _, p := range names {
			if p != name {
				peers = append(peers, p)
			}
		}
		var nodeBacklog func(to string) int
		if backlog != nil {
			nodeBacklog = func(to string) int { return backlog(name, to) }
		}
		m := NewMeshNode(s, mesh, name, peers, cfg, nodeBacklog)
		c.nodes[name] = m
		c.Members[name] = m.Node()
	}
	return c
}

// Stop freezes a node's engine.
func (c *MeshCluster) Stop(name string) { c.nodes[name].Stop() }

// Restart unfreezes a stopped node.
func (c *MeshCluster) Restart(name string) { c.nodes[name].Restart() }

// Leaders returns the distinct leaders currently claimed by the given live
// nodes, sorted.
func (c *MeshCluster) Leaders(names []string) []string {
	set := map[string]bool{}
	for _, n := range names {
		if !c.nodes[n].Stopped() {
			set[c.Members[n].Leader()] = true
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
