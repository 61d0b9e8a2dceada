package election

import (
	"encoding/binary"

	"rain/internal/sim"
)

// Service is the election protocol's name on the mesh service demux.
const Service = "elect"

// MeshTransport is the slice of a datagram mesh the driver needs.
// *rudp.Endpoint (one node's RUDP, on sockets or the simulator), *rudp.Mesh
// (N simulated endpoints) and sim.NIC (a bare simulated interface) all
// satisfy it.
type MeshTransport interface {
	Handle(node, service string, fn func(from string, payload []byte))
	SendService(from, to, service string, payload []byte)
}

// MarshalHeartbeat encodes a heartbeat for the wire.
func MarshalHeartbeat(hb Heartbeat) []byte {
	b := binary.AppendUvarint(nil, hb.Epoch)
	b = binary.AppendUvarint(b, uint64(len(hb.From)))
	b = append(b, hb.From...)
	b = binary.AppendUvarint(b, uint64(len(hb.Leader)))
	return append(b, hb.Leader...)
}

// UnmarshalHeartbeat decodes MarshalHeartbeat's format; ok is false for
// malformed datagrams.
func UnmarshalHeartbeat(p []byte) (hb Heartbeat, ok bool) {
	next := func() (string, bool) {
		n, used := binary.Uvarint(p)
		if used <= 0 || uint64(len(p)-used) < n {
			return "", false
		}
		s := string(p[used : used+int(n)])
		p = p[used+int(n):]
		return s, true
	}
	epoch, used := binary.Uvarint(p)
	if used <= 0 {
		return hb, false
	}
	p = p[used:]
	hb.Epoch = epoch
	if hb.From, ok = next(); !ok {
		return hb, false
	}
	if hb.Leader, ok = next(); !ok {
		return hb, false
	}
	return hb, true
}

// meshHeartbeatBacklog caps the per-peer transport backlog the driver will
// keep heartbeating into. A reliable mesh queues datagrams to a dead peer
// forever awaiting retransmission, so without a cap a long-dead peer would
// accumulate one heartbeat per interval unboundedly, then be flooded with
// stale epochs on revival. Skipped heartbeats cost nothing: a peer whose
// queue is this deep has been unreachable for many intervals and has long
// been voted out of the alive set.
const meshHeartbeatBacklog = 8

// MeshNode drives one election engine over a MeshTransport: the heartbeat
// loop fans out to the static peer set every interval and inbound
// heartbeats feed the engine — here and nowhere else. A deployed process
// runs one (core.RealNode); a simulated cluster is N of them on a shared
// transport (MeshCluster).
type MeshNode struct {
	node    *Node
	stopped bool
}

// NewMeshNode builds the local elector among peers (every other
// participant) and starts its heartbeat loop. backlog (optional) reports
// the transport's queued datagrams toward a peer, see meshHeartbeatBacklog;
// a transport that drops instead of queueing passes nil.
func NewMeshNode(s *sim.Scheduler, mesh MeshTransport, name string, peers []string, cfg Config, backlog func(to string) int) *MeshNode {
	cfg = cfg.withDefaults()
	n := NewNode(name, peers, cfg)
	m := &MeshNode{node: n}
	mesh.Handle(name, Service, func(from string, payload []byte) {
		if m.stopped {
			return
		}
		if hb, ok := UnmarshalHeartbeat(payload); ok {
			n.OnHeartbeat(hb, int64(s.Now()))
		}
	})
	var loop func()
	loop = func() {
		if !m.stopped {
			payload := MarshalHeartbeat(n.Tick(int64(s.Now())))
			for _, p := range n.peers {
				if backlog != nil && backlog(p) >= meshHeartbeatBacklog {
					continue
				}
				mesh.SendService(name, p, Service, payload)
			}
		}
		s.After(cfg.Interval, loop)
	}
	s.After(0, loop)
	return m
}

// Node exposes the driven engine (IsLeader, Leader, OnLeaderChange, ...).
func (m *MeshNode) Node() *Node { return m.node }

// Stop freezes the engine: no heartbeats out, none processed. Restart
// unfreezes it; it rejoins the election as heartbeats flow again.
func (m *MeshNode) Stop()    { m.stopped = true }
func (m *MeshNode) Restart() { m.stopped = false }

// Stopped reports whether the engine is frozen.
func (m *MeshNode) Stopped() bool { return m.stopped }
