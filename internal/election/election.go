// Package election implements a leader election protocol for asynchronous
// fully-connected networks in the spirit of Franceschetti & Bruck (RAIN
// ref [29]), the protocol the RAINCheck distributed checkpointing system
// (§5.3) runs alongside: it ensures that every connected set of nodes
// eventually designates exactly one node as leader, and re-elects after
// failures.
//
// Each node periodically multicasts a heartbeat carrying its identity and
// its current epoch. A node considers a peer alive while heartbeats keep
// arriving inside the failure timeout; the leader is the smallest identity
// in the alive set. Epochs order leadership generations: a node bumps its
// epoch when its leader choice changes, and reports the largest epoch seen,
// so observers can tell re-elections apart.
//
// The engine is a pure state machine (Tick + OnHeartbeat); MeshNode is the
// one driver, over any datagram mesh — the simulated RUDP mesh
// (MeshCluster) or UDP sockets (core.RealNode).
package election

import (
	"sort"
	"time"
)

// Heartbeat is the periodic protocol message.
type Heartbeat struct {
	From   string
	Epoch  uint64
	Leader string // sender's current leader choice
}

// Config parameterises an election node.
type Config struct {
	// Interval is the heartbeat period.
	Interval time.Duration
	// Timeout is how long without a heartbeat before a peer is suspected.
	Timeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 20 * time.Millisecond
	}
	if c.Timeout == 0 {
		c.Timeout = 100 * time.Millisecond
	}
	return c
}

// Node is one participant's election engine.
type Node struct {
	name  string
	peers []string
	cfg   Config

	lastHeard map[string]int64
	leader    string
	epoch     uint64
	onChange  func(leader string, epoch uint64)
}

// NewNode builds an engine. peers must include every other participant of
// the fully-connected network (not the node itself).
func NewNode(name string, peers []string, cfg Config) *Node {
	n := &Node{
		name:      name,
		peers:     append([]string(nil), peers...),
		cfg:       cfg.withDefaults(),
		lastHeard: make(map[string]int64),
		leader:    name, // until anyone else is heard, we lead
	}
	return n
}

// Name returns this node's identity.
func (n *Node) Name() string { return n.name }

// Leader returns the node currently believed to lead this node's connected
// component.
func (n *Node) Leader() string { return n.leader }

// Epoch returns the current leadership epoch.
func (n *Node) Epoch() uint64 { return n.epoch }

// Timeout returns how long this node waits without a heartbeat before it
// suspects a peer.
func (n *Node) Timeout() time.Duration { return n.cfg.Timeout }

// IsLeader reports whether this node believes itself leader.
func (n *Node) IsLeader() bool { return n.leader == n.name }

// OnLeaderChange registers a hook invoked whenever the leader choice
// changes.
func (n *Node) OnLeaderChange(fn func(leader string, epoch uint64)) { n.onChange = fn }

// Alive returns the set of nodes (including self) currently considered
// alive, sorted.
func (n *Node) Alive(now int64) []string {
	out := []string{n.name}
	for _, p := range n.peers {
		if t, ok := n.lastHeard[p]; ok && now-t <= int64(n.cfg.Timeout) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// electFrom recomputes the leader: the smallest identity in the alive set,
// found by scanning in place because it runs on every heartbeat.
func (n *Node) electFrom(now int64) {
	newLeader := n.name
	for _, p := range n.peers {
		if t, ok := n.lastHeard[p]; ok && now-t <= int64(n.cfg.Timeout) && p < newLeader {
			newLeader = p
		}
	}
	if newLeader != n.leader {
		n.leader = newLeader
		n.epoch++
		if n.onChange != nil {
			n.onChange(n.leader, n.epoch)
		}
	}
}

// Tick advances timers and returns the heartbeat to multicast to every
// peer. Call at least every Interval.
func (n *Node) Tick(now int64) Heartbeat {
	n.electFrom(now)
	return Heartbeat{From: n.name, Epoch: n.epoch, Leader: n.leader}
}

// OnHeartbeat processes a peer's heartbeat.
func (n *Node) OnHeartbeat(hb Heartbeat, now int64) {
	n.lastHeard[hb.From] = now
	if hb.Epoch > n.epoch {
		n.epoch = hb.Epoch
	}
	n.electFrom(now)
}
