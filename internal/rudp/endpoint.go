package rudp

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"rain/internal/netbuf"
	"rain/internal/sim"
	"rain/internal/telemetry"
)

const (
	// probeMin and probeMax bound the hello retry backoff while a peer is
	// unreachable.
	probeMin = 50 * time.Millisecond
	probeMax = 2 * time.Second
	// maxBacklog bounds one peer's queued-plus-unacked datagrams; sends
	// beyond it are dropped like UDP (callers above already tolerate loss
	// via timeouts).
	maxBacklog = 4096
	// notifyPeriods is how many report periods (2×RTO + 10 ms each) a
	// SendNotify datagram may go unacknowledged before it reports false.
	notifyPeriods = 3
)

// peerAddr is a peer address as its driver resolved it. The endpoint only
// hands it back to the driver and keys inbound datagrams by its canonical
// string.
type peerAddr = fmt.Stringer

// packetDriver is what carries an endpoint's datagrams: unreliable,
// unordered delivery between per-path addresses and nothing else — every
// piece of protocol state stays in the endpoint (§2.5). The driver's
// constructor also binds the local addresses, feeds received datagrams to
// Endpoint.onDatagram on the scheduler's goroutine and starts the tick.
type packetDriver interface {
	// resolve parses one peer address of the driver's kind.
	resolve(a string) (peerAddr, error)
	// send transmits one datagram on a path, unreliably. A w.Frame is only
	// borrowed for the call; drivers that hold it longer retain it.
	send(path int, to peerAddr, w Wire)
	// close stops receiving, then runs teardown on the scheduler's
	// goroutine and drops whatever the driver still holds.
	close(teardown func())
}

// peer is one dialled neighbour: its address bundle, the live Conn pair
// epoch (incarnations on both sides), and datagrams waiting for the
// handshake.
type peer struct {
	name  string
	addrs []peerAddr // per path; nil entries are unknown

	conn     *Conn
	peerInc  uint64 // peer's incarnation, 0 until first hello
	ackedInc uint64 // our incarnation the peer last echoed
	up       bool   // handshaken and at least one path Up

	pending    []held // service-framed datagrams awaiting handshake
	probe      sim.Timer
	probeDelay time.Duration
}

// held is a datagram queued for the handshake, with its delivery report.
type held struct {
	f *netbuf.Frame
	n *notify
}

// notify is one SendNotify's delivery report. It fires exactly once: true
// from the conn whose cumulative ack covers the datagram, false from the
// sender's report timer.
type notify struct {
	done func(ok bool)
}

func (n *notify) fire(ok bool) {
	if done := n.done; done != nil {
		n.done = nil
		done(ok)
	}
}

// ready reports whether the Conn pair epoch is agreed on both sides: we
// know the peer's incarnation and the peer has echoed ours. Only then may
// data flow — sequence numbers from a previous incarnation must never reach
// a fresh receiver (or vice versa).
func (p *peer) ready() bool { return p.conn != nil && p.peerInc != 0 }

// Endpoint is one node's end of the RUDP mesh: a lazily dialled Conn per
// peer over one address per bundled path, and a service demux
// (Handle/SendService/SendFrame) on top. Like the original RUDP it keeps
// every piece of protocol state in user space and uses its packet driver
// only for unreliable delivery (§2.5), so the same endpoint runs on UDP
// sockets (NewRealMesh, a deployed node) and on the simulated network
// (NewMesh, N of them on one scheduler). All of it runs on the scheduler's goroutine —
// drivers only parse and post — which is what lets every engine built on
// the mesh (dstore, membership) run unchanged on either.
//
// Restarts are handled by incarnation hellos: each endpoint gets a fresh
// incarnation at start, a hello exchange (re)establishes the Conn pair for
// the current epoch on both sides, and traffic from a dead epoch is
// dropped. While a peer is unreachable, hellos retry with exponential
// backoff and sends beyond maxBacklog are shed.
type Endpoint struct {
	name              string
	cfg               Config
	scope             *telemetry.Scope
	s                 *sim.Scheduler
	drv               packetDriver
	inc               uint64
	locals, advertise []string // per path: bound addresses, and what hellos tell peers

	peers    map[string]*peer
	order    []*peer // insertion order: ticks and probes transmit, so order is part of what a seed reproduces
	byAddr   map[string]*peer
	handlers map[string]func(from string, payload []byte)

	// paused freezes the endpoint like a stopped process that kept its
	// memory: no ticks, no transmission, no reception, no delivery. The
	// simulated mesh's StopNode sets it; a restart is Close plus a new
	// endpoint instead.
	paused    bool
	closed    bool
	closeOnce sync.Once

	hellosSent *telemetry.Counter
	resets     *telemetry.Counter
	shed       *telemetry.Counter
	peersUp    *telemetry.Gauge
}

// RealMesh is an Endpoint on UDP sockets, under the name callers built
// against before the simulated mesh ran the same code.
type RealMesh = Endpoint

// newEndpoint assembles an endpoint over a driver that has bound locals.
// cfg must carry defaults and Paths == len(locals); inc is the driver's
// fresh incarnation. It touches no scheduler state, so socket endpoints may
// be built off the loop.
func newEndpoint(name string, cfg Config, scope *telemetry.Scope, s *sim.Scheduler, drv packetDriver, inc uint64, locals, advertise []string) *Endpoint {
	return &Endpoint{
		name:      name,
		cfg:       cfg,
		scope:     scope,
		s:         s,
		drv:       drv,
		inc:       inc,
		locals:    locals,
		advertise: advertise,
		peers:     make(map[string]*peer),
		byAddr:    make(map[string]*peer),
		handlers:  make(map[string]func(string, []byte)),

		hellosSent: scope.Counter("rudp.mesh.hellos", "dial/probe hellos transmitted"),
		resets:     scope.Counter("rudp.mesh.conn_resets", "per-peer conns reset on a new peer incarnation"),
		shed:       scope.Counter("rudp.mesh.sends_shed", "datagrams dropped at the per-peer backlog cap"),
		peersUp:    scope.Gauge("rudp.mesh.peers_up", "peers with a handshaken conn and a live path"),
	}
}

// LocalAddrs returns the bound local addresses in path order.
func (m *Endpoint) LocalAddrs() []string { return m.locals }

// Close shuts the endpoint down: the driver stops receiving and peer state
// is torn down on the scheduler's goroutine. Idempotent; never call it from
// a callback of a socket endpoint's own loop.
func (m *Endpoint) Close() {
	m.closeOnce.Do(func() {
		m.drv.close(func() {
			m.closed = true
			for _, p := range m.order {
				p.probe.Stop()
				for _, h := range p.pending {
					h.f.Release()
				}
				p.pending = nil
			}
		})
	})
}

// addPeer registers (or re-addresses) a peer's address bundle, one address
// per path.
func (m *Endpoint) addPeer(name string, addrs []string) error {
	if len(addrs) != len(m.locals) {
		return fmt.Errorf("rudp: peer %s has %d addrs for %d paths", name, len(addrs), len(m.locals))
	}
	resolved := make([]peerAddr, len(addrs))
	for i, a := range addrs {
		if a == "" {
			continue
		}
		ra, err := m.drv.resolve(a)
		if err != nil {
			return fmt.Errorf("rudp: resolving peer %s addr %s: %w", name, a, err)
		}
		resolved[i] = ra
	}
	p := m.peers[name]
	if p == nil {
		p = &peer{name: name, probeDelay: probeMin}
		m.peers[name] = p
		m.order = append(m.order, p)
	}
	for _, a := range p.addrs {
		if a != nil {
			delete(m.byAddr, a.String())
		}
	}
	p.addrs = resolved
	for _, a := range resolved {
		if a != nil {
			m.byAddr[a.String()] = p
		}
	}
	return nil
}

// PeerUp reports the current liveness of a peer: handshaken with at least
// one path Up. SendNotify uses it to fail deliveries to dead neighbours
// fast. Loop-callback use only.
func (m *Endpoint) PeerUp(name string) bool {
	p := m.peers[name]
	return p != nil && p.up
}

func (p *peer) backlog() int {
	n := len(p.pending)
	if p.conn != nil {
		n += p.conn.Backlog()
	}
	return n
}

// Handle registers the handler for a service's datagrams (from any peer),
// replacing any previous one. node must be the local name — the signature
// is the one engines use on a whole simulated Mesh. Loop-callback use only
// at runtime; safe before traffic flows.
func (m *Endpoint) Handle(node, service string, fn func(from string, payload []byte)) {
	if node != m.name {
		panic(fmt.Sprintf("rudp: Handle(%q) on mesh node %q", node, m.name))
	}
	m.handlers[service] = fn
}

// SendService sends one service datagram reliably to a peer. from must be
// the local name. A node may send to itself: loopback datagrams skip the
// driver and deliver on a later scheduler event. The payload is copied;
// senders that build datagrams in frames use SendFrame. Loop-callback use
// only.
func (m *Endpoint) SendService(from, to, service string, payload []byte) {
	f := netbuf.NewFrame(len(payload))
	copy(f.Payload(), payload)
	m.SendFrame(from, to, service, f)
}

// SendNotify is SendService with a delivery report: done fires exactly
// once, true when the peer's cumulative ack covers the datagram (a loopback
// datagram: once dispatched), false when it has gone unacknowledged for
// notifyPeriods periods of 2×RTO + 10 ms, or at the end of any period in
// which the peer is not up. A period outlasts a retransmission plus its
// round trip, so one lost datagram costs latency, not a false report. A
// shed datagram, one lost with a conn reset on a new peer incarnation, or
// one sent on a closed endpoint is never acked, so the timer reports it.
// The datagram stays in the reliable stream either way. Loop-callback use
// only.
func (m *Endpoint) SendNotify(from, to, service string, payload []byte, done func(ok bool)) {
	n := &notify{done: done}
	period := 2*m.cfg.RTO + 10*time.Millisecond
	periods := 0
	var check func()
	check = func() {
		if n.done == nil {
			return
		}
		if periods++; periods >= notifyPeriods || !m.PeerUp(to) {
			n.fire(false)
			return
		}
		m.s.After(period, check)
	}
	m.s.After(period, check)
	f := netbuf.NewFrame(len(payload))
	copy(f.Payload(), payload)
	m.send(from, to, service, f, n)
}

// SendFrame sends a frame's datagram reliably to a peer, consuming the
// caller's reference — the zero-copy SendService. The service header is
// pushed into the frame's headroom and the framed bytes travel by reference
// through the connection's retransmit queue and the driver. Unknown peers
// drop, un-handshaken peers queue bounded and dial. Loop-callback use only.
func (m *Endpoint) SendFrame(from, to, service string, f *netbuf.Frame) {
	m.send(from, to, service, f, nil)
}

// send is SendFrame with an optional delivery report n.
func (m *Endpoint) send(from, to, service string, f *netbuf.Frame, n *notify) {
	PushService(f, service)
	if m.closed || from != m.name {
		f.Release()
		return
	}
	if to == m.name {
		// Through the scheduler, never reentrantly.
		m.s.At(m.s.Now(), func() {
			delivered := !m.closed && !m.paused
			m.dispatch(m.name, f.Datagram())
			f.Release()
			if n != nil && delivered {
				n.fire(true)
			}
		})
		return
	}
	p := m.peers[to]
	if p == nil {
		f.Release() // not in the book and never heard from: undialable
		return
	}
	if p.backlog() >= maxBacklog {
		m.shed.Inc()
		f.Release()
		return
	}
	if !p.ready() {
		p.pending = append(p.pending, held{f, n})
		m.dial(p) // lazy dial on first traffic
		return
	}
	p.conn.send(f, n, int64(m.s.Now()))
}

// dispatch strips the service frame and routes one datagram to the
// service's handler. Unknown services are dropped silently, like UDP ports
// nobody listens on.
func (m *Endpoint) dispatch(from string, framed []byte) {
	if m.closed || m.paused {
		return
	}
	if service, payload, ok := SplitService(framed); ok {
		if h := m.handlers[service]; h != nil {
			h(from, payload)
		}
	}
}

// transmit hands one datagram for a peer to the driver.
func (m *Endpoint) transmit(p *peer, path int, w Wire) {
	if m.paused || path >= len(p.addrs) || p.addrs[path] == nil {
		return
	}
	m.drv.send(path, p.addrs[path], w)
}

// dial starts (or continues) the hello handshake toward a peer.
func (m *Endpoint) dial(p *peer) {
	if p.probe.Armed() {
		return
	}
	m.sendHello(p)
	m.reprobe(p)
}

// reprobe restarts a peer's hello backoff from probeMin.
func (m *Endpoint) reprobe(p *peer) {
	p.probeDelay = probeMin
	m.armProbe(p)
}

func (m *Endpoint) armProbe(p *peer) {
	p.probe.Stop()
	p.probe = m.s.After(p.probeDelay, func() {
		if m.closed || (p.ready() && p.up) {
			return
		}
		m.sendHello(p)
		if p.probeDelay *= 2; p.probeDelay > probeMax {
			p.probeDelay = probeMax
		}
		m.armProbe(p)
	})
}

// sendHello transmits one hello on every path with a known peer address,
// outside any Conn. The payload advertises the local identity: name, then
// the comma-joined per-path address bundle.
func (m *Endpoint) sendHello(p *peer) {
	w := Wire{Kind: KindHello, Seq: m.inc, Ack: p.peerInc,
		Payload: FrameService(m.name, []byte(strings.Join(m.advertise, ",")))}
	for path, a := range p.addrs {
		if a != nil {
			m.transmit(p, path, w)
			m.hellosSent.Inc()
		}
	}
}

// onHello processes a handshake datagram: learn/refresh the peer's name and
// addresses, reset the Conn pair when its incarnation changed, and echo
// back until both sides agree on the epoch.
func (m *Endpoint) onHello(path int, src string, w Wire) {
	name, addrsCSV, ok := SplitService(w.Payload)
	if !ok || name == "" || name == m.name {
		return
	}
	p := m.peers[name]
	if p == nil {
		// A peer we did not have in the book dialled us: learn its bundle
		// (a path-count mismatch is not a mesh we can pair with).
		if m.addPeer(name, strings.Split(string(addrsCSV), ",")) != nil {
			return
		}
		p = m.peers[name]
	} else if p.addrs[path] == nil || p.addrs[path].String() != src {
		// Known name, new address (restart with ephemeral ports): re-learn.
		_ = m.addPeer(name, strings.Split(string(addrsCSV), ",")) // a bad bundle keeps the old one
	}

	if w.Seq != p.peerInc {
		// New peer incarnation: its RUDP state is gone, so ours must go
		// too. In-flight data to the dead incarnation is lost — callers
		// see timeouts, exactly as if the datagrams were dropped on the
		// wire.
		if p.conn != nil {
			m.resets.Inc()
		}
		p.peerInc = w.Seq
		p.conn = m.newPeerConn(p)
		m.setUp(p, false)
	}
	if p.conn == nil {
		p.conn = m.newPeerConn(p)
	}
	prevAcked := p.ackedInc
	p.ackedInc = w.Ack
	if w.Ack != m.inc || prevAcked != m.inc {
		// Peer hasn't echoed our incarnation yet (or just did for the
		// first time): answer so both sides converge, then let data flow.
		m.sendHello(p)
	}
	if p.ready() && len(p.pending) > 0 {
		// Datagrams queued during the handshake move into the conn.
		now := int64(m.s.Now())
		for _, h := range p.pending {
			p.conn.send(h.f, h.n, now)
		}
		p.pending = nil
	}
}

func (m *Endpoint) newPeerConn(p *peer) *Conn {
	// All of one endpoint's conns share its telemetry series — per-conn
	// series would be N² cardinality for no insight.
	conn, err := newConn(m.cfg, m.scope,
		func(path int, w Wire) { m.transmit(p, path, w) },
		func(b []byte) { m.dispatch(p.name, b) })
	if err != nil {
		panic(err) // config was validated at mesh construction
	}
	return conn
}

// tick drives every peer conn's timers and liveness at half the ping
// interval.
func (m *Endpoint) tick() {
	if m.closed {
		return
	}
	m.s.After(m.cfg.PingInterval/2, m.tick)
	if m.paused {
		return
	}
	now := int64(m.s.Now())
	for _, p := range m.order {
		if !p.ready() {
			continue
		}
		p.conn.Tick(now)
		up := p.conn.UpPaths() > 0
		if up != p.up {
			m.setUp(p, up)
			if !up {
				// Peer went quiet: could be a partition or a restart.
				// Probe hellos resolve which (a restart answers with a
				// new incarnation and the conn pair resets).
				m.reprobe(p)
			}
		}
	}
}

func (m *Endpoint) setUp(p *peer, up bool) {
	if p.up == up {
		return
	}
	p.up = up
	if up {
		m.peersUp.Add(1)
	} else {
		m.peersUp.Add(-1)
	}
}

// onDatagram is the driver's receive upcall: one datagram that arrived on a
// path from the source address src (in peerAddr.String form).
func (m *Endpoint) onDatagram(path int, src string, w Wire) {
	if m.closed || m.paused {
		return
	}
	if w.Kind == KindHello {
		m.onHello(path, src, w)
		return
	}
	p := m.byAddr[src]
	if p == nil || !p.ready() {
		return // traffic from an unknown peer or a dead conn epoch
	}
	p.conn.OnWire(path, w, int64(m.s.Now()))
	if !p.up && p.conn.UpPaths() > 0 {
		m.setUp(p, true)
	}
}

// FrameService prefixes a payload with its service name (1-byte length +
// name); the receiver strips the frame with SplitService and routes to the
// service's handler. The default service "" costs one byte.
func FrameService(service string, payload []byte) []byte {
	if len(service) > 255 {
		panic(fmt.Sprintf("rudp: service name %q too long", service))
	}
	buf := make([]byte, 1+len(service)+len(payload))
	buf[0] = byte(len(service))
	copy(buf[1:], service)
	copy(buf[1+len(service):], payload)
	return buf
}

// PushService prepends the service frame into a frame's headroom — the
// zero-copy FrameService. The service name must leave room for the wire
// header that Conn.SendFrame pushes below it.
func PushService(f *netbuf.Frame, service string) {
	if 1+len(service)+wireHeader > netbuf.Headroom-f.Pushed() {
		panic(fmt.Sprintf("rudp: service name %q does not fit the frame headroom", service))
	}
	hdr := f.Push(1 + len(service))
	hdr[0] = byte(len(service))
	copy(hdr[1:], service)
}

// SplitService undoes FrameService. ok is false for malformed frames.
func SplitService(framed []byte) (service string, payload []byte, ok bool) {
	if len(framed) < 1 {
		return "", nil, false
	}
	n := int(framed[0])
	if len(framed) < 1+n {
		return "", nil, false
	}
	return string(framed[1 : 1+n]), framed[1+n:], true
}
