package membership

import "rain/internal/sim"

// Service is the membership protocol's name on the mesh service demux:
// tokens, 911s and probes share the nodes' bundled data connections instead
// of a private NIC, which is how a deployed RAIN node runs (§2's "software
// modules running in conjunction" — one transport, many services).
const Service = "mbr"

// MeshTransport is the slice of a datagram mesh the driver needs.
// *rudp.Endpoint (one node's RUDP, on sockets or the simulator) and
// *rudp.Mesh (N simulated endpoints) satisfy it. SendNotify's report is the
// protocol's failure detector: true once the peer's RUDP acknowledged the
// message, false when the transport gave up on it (the peer down, or the
// message unacknowledged past a budget the transport derives from its own
// retransmission timer).
type MeshTransport interface {
	Handle(node, service string, fn func(from string, payload []byte))
	SendNotify(from, to, service string, payload []byte, done func(ok bool))
}

// MeshNode drives one membership engine over a MeshTransport: the tick
// loop, the join retry and the wire codec live here and nowhere else;
// delivery, ordering, dedup and the failure signal are the transport's. A
// deployed process runs one (core.RealNode); a simulated cluster is N of
// them on a shared transport (MeshCluster).
//
// Everything runs on the owning scheduler; drive it from an rt.Loop.
type MeshNode struct {
	s       *sim.Scheduler
	mesh    MeshTransport
	name    string
	cfg     Config
	node    *Node
	stopped bool
}

// NewMeshNode builds the local member and registers its mesh handler.
// ring is this node's initial world view: the seed starts with itself (or
// a known initial ring) and StartWithToken; everyone else starts with
// {name} and Join(seed).
func NewMeshNode(s *sim.Scheduler, mesh MeshTransport, name string, ring []string, cfg Config) *MeshNode {
	m := &MeshNode{s: s, mesh: mesh, name: name, cfg: cfg.withDefaults()}
	m.node = NewNode(name, ring, m.cfg, m)
	mesh.Handle(name, Service, m.onFrame)
	var loop func()
	loop = func() {
		if !m.stopped {
			m.node.Tick(int64(s.Now()))
		}
		s.After(m.cfg.HoldInterval/2, loop)
	}
	s.After(0, loop)
	return m
}

// Node exposes the driven engine (View, HasToken, OnMembershipChange, ...).
func (m *MeshNode) Node() *Node { return m.node }

// StartWithToken seeds the ring: exactly one node per cluster calls it.
func (m *MeshNode) StartWithToken() { m.node.StartWithToken(int64(m.s.Now())) }

// Join requests admission through seed (§3.3.2), re-sending every
// StarveTimeout — the request or the token may get lost — until a token
// confirms membership (LocalSeq > 0).
func (m *MeshNode) Join(seed string) {
	m.node.Join(seed, int64(m.s.Now()))
	var retry func()
	retry = func() {
		if m.node.LocalSeq() > 0 {
			return
		}
		if !m.stopped {
			m.node.Join(seed, int64(m.s.Now()))
		}
		m.s.After(m.cfg.StarveTimeout, retry)
	}
	m.s.After(m.cfg.StarveTimeout, retry)
}

// Stop freezes the engine: no ticks, no reception. Its transport still
// acknowledges what peers send, so peers see a failure only once the
// node's endpoint stops too.
func (m *MeshNode) Stop() { m.stopped = true }

// Restart unfreezes the engine, starving if it was frozen past the starve
// timeout; the 911 rejoin path reconciles its stale protocol state.
func (m *MeshNode) Restart() {
	m.stopped = false
	m.node.resume(int64(m.s.Now()))
}

// Stopped reports whether the engine is frozen.
func (m *MeshNode) Stopped() bool { return m.stopped }

// Send implements Transport: one reliable datagram whose transport
// delivery report is done.
func (m *MeshNode) Send(to string, msg any, done func(ok bool)) {
	m.mesh.SendNotify(m.name, to, Service, encodeMessage(msg), done)
}

func (m *MeshNode) onFrame(from string, payload []byte) {
	if m.stopped {
		return
	}
	if msg, ok := decodeMessage(payload); ok {
		m.node.HandleMessage(from, msg, int64(m.s.Now()))
	}
}
