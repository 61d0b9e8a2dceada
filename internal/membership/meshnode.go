package membership

import (
	"time"

	"rain/internal/rudp"
	"rain/internal/sim"
)

// Service is the membership protocol's name on the mesh service demux:
// tokens, 911s and probes share the nodes' bundled data connections instead
// of a private NIC, which is how a deployed RAIN node runs (§2's "software
// modules running in conjunction" — one transport, many services).
const Service = "mbr"

// MeshTransport is the slice of a datagram mesh the driver needs.
// *rudp.Endpoint (one node's RUDP, on sockets or the simulator) and
// *rudp.Mesh (N simulated endpoints) satisfy it.
type MeshTransport interface {
	Handle(node, service string, fn func(from string, payload []byte))
	SendService(from, to, service string, payload []byte)
}

// MeshConfig parameterises the driver.
type MeshConfig struct {
	Config
	// AckTimeout is the per-attempt deadline of the stop-and-wait ack
	// handshake. Required: it must outlast the transport's own
	// retransmission timer plus a round trip, or every frame the transport
	// recovers reads as a failed attempt — whoever assembles the transport
	// knows that bound, so there is no default (AckTimeout derives it for
	// RUDP). Delivery to a dead or partitioned peer stalls forever on a
	// reliable mesh; this timeout turns the stall into the protocol's
	// failure-detection signal.
	AckTimeout time.Duration
}

// retries is how many times an unacked attempt is re-sent before the
// driver reports failure: three attempts in all.
const retries = 2

// AckTimeout derives MeshConfig.AckTimeout for a driver riding RUDP with
// config conn over links of one-way delay linkDelay, for every assembly:
// 2×RTO + 2×link delay + 10 ms. The deadline must outlast the mesh's own
// retransmission timer, not just the round trip: the transport is reliable,
// so a lost frame costs one RTO of latency, not delivery. An attempt
// deadline shorter than the RTO turns every single loss into a burned
// attempt — and three in a row into a false death vote, which the clients'
// view-based liveness filter then turns into unreadable objects sitting at
// bare quorum.
func AckTimeout(conn rudp.Config, linkDelay time.Duration) time.Duration {
	rto := conn.RTO
	if rto == 0 {
		rto = rudp.DefaultRTO
	}
	return 2*rto + 2*linkDelay + 10*time.Millisecond
}

// dedupWindow is how many of a sender's most recent message ids a receiver
// remembers. A duplicate is a retry of an unacked attempt, so it trails its
// original by at most retries × AckTimeout — a handful of messages.
const dedupWindow = 64

// recentIDs is one sender's dedup window: a ring of the last ids processed.
// Id 0 is never sent, so the zero value is empty.
type recentIDs struct {
	ids  [dedupWindow]uint64
	next int
}

// seen reports whether id is in the window, recording it if not.
func (r *recentIDs) seen(id uint64) bool {
	for _, v := range r.ids {
		if v == id {
			return true
		}
	}
	r.ids[r.next] = id
	r.next = (r.next + 1) % dedupWindow
	return false
}

// MeshNode drives one membership engine over a MeshTransport: the
// stop-and-wait ack handshake that is the protocol's failure detector,
// per-sender dedup, the tick loop and the join retry all live here and
// nowhere else. A deployed process runs one (core.RealNode); a simulated
// cluster is N of them on a shared transport (MeshCluster).
//
// Everything runs on the owning scheduler; drive it from an rt.Loop.
type MeshNode struct {
	s    *sim.Scheduler
	mesh MeshTransport
	name string
	cfg  MeshConfig
	node *Node

	nextID    uint64
	acks      map[uint64]func()
	processed map[string]*recentIDs
	stopped   bool
	peerUp    func(name string) bool
}

// NewMeshNode builds the local member and registers its mesh handler.
// ring is this node's initial world view: the seed starts with itself (or
// a known initial ring) and StartWithToken; everyone else starts with
// {name} and Join(seed). peerUp (optional) reports transport liveness: a
// peer the mesh says is down fails after one attempt instead of burning
// the full retry budget.
func NewMeshNode(s *sim.Scheduler, mesh MeshTransport, name string, ring []string, cfg MeshConfig, peerUp func(string) bool) *MeshNode {
	if cfg.AckTimeout <= 0 {
		panic("membership: MeshConfig.AckTimeout is required")
	}
	cfg.Config = cfg.Config.withDefaults()
	m := &MeshNode{
		s:    s,
		mesh: mesh,
		name: name,
		cfg:  cfg,
		// Message ids must never repeat across this sender's incarnations:
		// peers remember the ids they processed and ack-and-drop a repeat,
		// which would silence a restarted process until its counter overtook
		// its previous life. Counting up from the wall clock keeps lives
		// disjoint (the scheduler's clock and RNG both restart with the
		// process).
		nextID:    uint64(time.Now().UnixNano()),
		acks:      make(map[uint64]func()),
		processed: make(map[string]*recentIDs),
		peerUp:    peerUp,
	}
	m.node = NewNode(name, ring, m.cfg.Config, m)
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

// Stop freezes the engine: no ticks, no reception.
func (m *MeshNode) Stop() { m.stopped = true }

// Restart unfreezes the engine, starving if it was frozen past the starve
// timeout; the 911 rejoin path reconciles its stale protocol state.
func (m *MeshNode) Restart() {
	m.stopped = false
	m.node.resume(int64(m.s.Now()))
}

// Stopped reports whether the engine is frozen.
func (m *MeshNode) Stopped() bool { return m.stopped }

// Send implements Transport: encode, send, and resend until the receiver's
// ack arrives or the retry budget runs out.
func (m *MeshNode) Send(to string, msg any, done func(ok bool)) {
	m.nextID++
	id := m.nextID
	payload := encodeMessage(id, msg)
	attempts := 0
	finished := false
	var attempt func()
	attempt = func() {
		if finished {
			return
		}
		budget := retries
		if m.peerUp != nil && !m.peerUp(to) {
			budget = 0
		}
		if attempts > budget {
			finished = true
			delete(m.acks, id)
			done(false)
			return
		}
		attempts++
		m.mesh.SendService(m.name, to, Service, payload)
		m.s.After(m.cfg.AckTimeout, attempt)
	}
	m.acks[id] = func() {
		if !finished {
			finished = true
			done(true)
		}
	}
	attempt()
}

func (m *MeshNode) onFrame(from string, payload []byte) {
	if m.stopped {
		return
	}
	id, ack, msg, ok := decodeMessage(payload)
	if !ok {
		return
	}
	if ack {
		if fn, ok := m.acks[id]; ok {
			delete(m.acks, id)
			fn()
		}
		return
	}
	// Ack every arrival (the sender may be retrying a lost ack), process
	// each (sender, id) once.
	m.mesh.SendService(m.name, from, Service, encodeAck(id))
	seen := m.processed[from]
	if seen == nil {
		seen = new(recentIDs)
		m.processed[from] = seen
	}
	if seen.seen(id) {
		return
	}
	m.node.HandleMessage(from, msg, int64(m.s.Now()))
}
