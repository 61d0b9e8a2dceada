package rudp

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"rain/internal/netbuf"
	"rain/internal/rt"
	"rain/internal/sim"
	"rain/internal/telemetry"
)

// maxDatagram bounds one received UDP datagram (64 KiB, the protocol
// maximum).
const maxDatagram = 64 * 1024

// RealConfig parameterises a RealMesh.
type RealConfig struct {
	// Name is the local node's mesh name (how peers address it).
	Name string
	// Locals are the local bind addresses, one per bundled path
	// ("host:port", port 0 for ephemeral). Required, and fixes Conn.Paths.
	Locals []string
	// Advertise overrides the addresses told to peers in hellos; defaults
	// to the resolved bind addresses (right on loopback and flat networks).
	Advertise []string
	// Peers is the static address book: peer name to one address per path.
	// Peers can also be added later with AddPeer, or learned from inbound
	// hellos — the book only has to cover whoever this node dials first.
	Peers map[string][]string
	// Conn parameterises the per-peer connections.
	Conn Config
	// MaxBacklog bounds one peer's queued-plus-unacked datagrams; sends
	// beyond it are dropped like UDP (callers above already tolerate loss
	// via timeouts). Default 4096.
	MaxBacklog int
	// ProbeMin/ProbeMax bound the hello retry backoff while a peer is
	// unreachable. Defaults 50ms / 2s.
	ProbeMin, ProbeMax time.Duration
}

// realPeer is one dialled neighbour: its address bundle, the live Conn pair
// epoch (incarnations on both sides), and datagrams waiting for the
// handshake.
type realPeer struct {
	name  string
	addrs []*net.UDPAddr // per path; nil entries are unknown

	conn     *Conn
	peerInc  uint64 // peer's incarnation, 0 until first hello
	ackedInc uint64 // our incarnation the peer last echoed
	up       bool   // handshaken and at least one path Up

	pending    []*netbuf.Frame // service-framed datagrams awaiting handshake
	probe      sim.Timer
	probeDelay time.Duration
}

// ready reports whether the Conn pair epoch is agreed on both sides: we
// know the peer's incarnation and the peer has echoed ours. Only then may
// data flow — sequence numbers from a previous incarnation must never reach
// a fresh receiver (or vice versa).
func (p *realPeer) ready() bool { return p.conn != nil && p.peerInc != 0 }

// RealMesh drives Conns over real UDP sockets, dialling peers by address —
// the deployment the paper ran on its testbed. Like the original RUDP it
// keeps every piece of protocol state in user space: the kernel is used only
// for unreliable packet delivery (§2.5). It offers the simulated Mesh's
// service demux (Handle/SendService/SendFrame) over one socket per bundled
// path, with a lazily dialled Conn per peer. It runs entirely on an
// rt.Loop — socket read goroutines only parse and post, so all protocol
// state keeps the simulator's single-goroutine discipline and every engine
// built for the simulated mesh (dstore, membership, election) runs on it
// unchanged.
//
// Restarts are handled by incarnation hellos: each process picks a fresh
// incarnation at start, a hello exchange (re)establishes the Conn pair for
// the current epoch on both sides, and traffic from a dead epoch is
// dropped. While a peer is unreachable, hellos retry with exponential
// backoff and sends beyond MaxBacklog are shed.
type RealMesh struct {
	cfg   RealConfig
	loop  *rt.Loop
	s     *sim.Scheduler
	inc   uint64
	socks []*net.UDPConn

	peers    map[string]*realPeer
	byAddr   map[string]*realPeer
	handlers map[string]func(from string, payload []byte)
	onPeer   func(name string, up bool)

	outq       []realPkt
	flushTimer bool
	closed     bool
	done       chan struct{}
	closeOnce  sync.Once

	hellosSent *telemetry.Counter
	resets     *telemetry.Counter
	shed       *telemetry.Counter
	peersUp    *telemetry.Gauge
	batchSize  *telemetry.Histogram
}

// realPkt is one staged outgoing datagram with its resolved destination.
type realPkt struct {
	path  int
	addr  *net.UDPAddr
	buf   []byte
	frame *netbuf.Frame
}

// NewRealMesh binds the local sockets and starts the read and tick
// machinery on the loop. The loop must already be running.
func NewRealMesh(loop *rt.Loop, cfg RealConfig) (*RealMesh, error) {
	if cfg.Name == "" {
		return nil, errors.New("rudp: RealConfig.Name required")
	}
	if len(cfg.Locals) == 0 {
		return nil, errors.New("rudp: RealConfig.Locals required")
	}
	cfg.Conn.Paths = len(cfg.Locals)
	cfg.Conn = cfg.Conn.withDefaults()
	if cfg.MaxBacklog == 0 {
		cfg.MaxBacklog = 4096
	}
	if cfg.ProbeMin == 0 {
		cfg.ProbeMin = 50 * time.Millisecond
	}
	if cfg.ProbeMax == 0 {
		cfg.ProbeMax = 2 * time.Second
	}
	scope := cfg.Conn.registry().Root()
	m := &RealMesh{
		cfg:      cfg,
		loop:     loop,
		s:        loop.Scheduler(),
		inc:      uint64(time.Now().UnixNano()),
		peers:    make(map[string]*realPeer),
		byAddr:   make(map[string]*realPeer),
		handlers: make(map[string]func(string, []byte)),
		done:     make(chan struct{}),

		hellosSent: scope.Counter("rudp.mesh.hellos", "dial/probe hellos transmitted"),
		resets:     scope.Counter("rudp.mesh.conn_resets", "per-peer conns reset on a new peer incarnation"),
		shed:       scope.Counter("rudp.mesh.sends_shed", "datagrams dropped at the per-peer backlog cap"),
		peersUp:    scope.Gauge("rudp.mesh.peers_up", "peers with a handshaken conn and a live path"),
		batchSize:  scope.Histogram("rudp.udp.batch_datagrams", "datagrams per coalesced same-path socket batch (sendmmsg)"),
	}
	for _, addr := range cfg.Locals {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			m.closeSocks()
			return nil, fmt.Errorf("rudp: resolving %s: %w", addr, err)
		}
		sock, err := net.ListenUDP("udp", ua)
		if err != nil {
			m.closeSocks()
			return nil, fmt.Errorf("rudp: binding %s: %w", addr, err)
		}
		m.socks = append(m.socks, sock)
	}
	for name, addrs := range cfg.Peers {
		if name == cfg.Name {
			continue
		}
		if err := m.addPeerLocked(name, addrs); err != nil {
			m.closeSocks()
			return nil, err
		}
	}
	for i := range m.socks {
		go m.readLoop(i)
	}
	loop.Post(m.tick)
	return m, nil
}

func (m *RealMesh) closeSocks() {
	for _, s := range m.socks {
		s.Close()
	}
}

// LocalAddrs returns the bound local addresses in path order.
func (m *RealMesh) LocalAddrs() []string {
	out := make([]string, len(m.socks))
	for i, s := range m.socks {
		out[i] = s.LocalAddr().String()
	}
	return out
}

// advertised is the address bundle told to peers in hellos.
func (m *RealMesh) advertised() []string {
	if len(m.cfg.Advertise) > 0 {
		return m.cfg.Advertise
	}
	return m.LocalAddrs()
}

// Name returns the local mesh name.
func (m *RealMesh) Name() string { return m.cfg.Name }

// Close shuts the mesh down: sockets close (read loops exit on
// net.ErrClosed) and peer state is torn down on the loop. Idempotent.
func (m *RealMesh) Close() {
	m.closeOnce.Do(func() {
		close(m.done)
		m.closeSocks()
		m.loop.Call(func() {
			m.closed = true
			for _, p := range m.peers {
				p.probe.Stop()
				for _, f := range p.pending {
					f.Release()
				}
				p.pending = nil
			}
			m.releaseOutq()
		})
	})
}

// AddPeer registers (or re-addresses) a peer's address bundle, one address
// per path. Call from any goroutine.
func (m *RealMesh) AddPeer(name string, addrs []string) error {
	var err error
	m.loop.Call(func() { err = m.addPeerLocked(name, addrs) })
	return err
}

func (m *RealMesh) addPeerLocked(name string, addrs []string) error {
	if len(addrs) != len(m.socks) {
		return fmt.Errorf("rudp: peer %s has %d addrs for %d paths", name, len(addrs), len(m.socks))
	}
	resolved := make([]*net.UDPAddr, len(addrs))
	for i, a := range addrs {
		if a == "" {
			continue
		}
		ua, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			return fmt.Errorf("rudp: resolving peer %s addr %s: %w", name, a, err)
		}
		resolved[i] = ua
	}
	p := m.peers[name]
	if p == nil {
		p = &realPeer{name: name, probeDelay: m.cfg.ProbeMin}
		m.peers[name] = p
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

// OnPeerChange installs the liveness callback, invoked on the loop whenever
// a peer's up state flips (handshaken with a live path ⇄ not). The
// membership driver uses it to fail deliveries to dead neighbours fast.
func (m *RealMesh) OnPeerChange(fn func(name string, up bool)) {
	m.loop.Call(func() { m.onPeer = fn })
}

// PeerUp reports the current liveness of a peer. Loop-callback use only.
func (m *RealMesh) PeerUp(name string) bool {
	p := m.peers[name]
	return p != nil && p.up
}

// Backlog reports a peer's unacknowledged-plus-pending datagrams. The
// election driver caps its heartbeat fan-out with it. Loop-callback only.
func (m *RealMesh) Backlog(to string) int {
	p := m.peers[to]
	if p == nil {
		return 0
	}
	n := len(p.pending)
	if p.conn != nil {
		n += p.conn.Backlog()
	}
	return n
}

// Handle registers the handler for a service's datagrams, like
// Mesh.Handle. node must be the local name (the signature is shared with
// the simulated mesh so engines run on either). Loop-callback use only at
// runtime; safe before traffic flows.
func (m *RealMesh) Handle(node, service string, fn func(from string, payload []byte)) {
	if node != m.cfg.Name {
		panic(fmt.Sprintf("rudp: Handle(%q) on mesh node %q", node, m.cfg.Name))
	}
	m.handlers[service] = fn
}

// SendService sends one service datagram reliably to a peer. from must be
// the local name. Loop-callback use only.
func (m *RealMesh) SendService(from, to, service string, payload []byte) {
	f := netbuf.NewFrame(len(payload))
	copy(f.Payload(), payload)
	PushService(f, service)
	m.sendFramed(from, to, f)
}

// SendFrame sends a frame's datagram reliably to a peer, consuming the
// caller's reference — the zero-copy SendService. Loop-callback use only.
func (m *RealMesh) SendFrame(from, to, service string, f *netbuf.Frame) {
	PushService(f, service)
	m.sendFramed(from, to, f)
}

// sendFramed routes one service-framed frame: loopback delivers through the
// scheduler (keeping the simulator's no-reentrancy property), unknown peers
// drop, un-handshaken peers queue bounded and dial.
func (m *RealMesh) sendFramed(from, to string, f *netbuf.Frame) {
	if m.closed || from != m.cfg.Name {
		f.Release()
		return
	}
	if to == m.cfg.Name {
		m.s.At(m.s.Now(), func() {
			if service, payload, ok := SplitService(f.Datagram()); ok && !m.closed {
				if h := m.handlers[service]; h != nil {
					h(m.cfg.Name, payload)
				}
			}
			f.Release()
		})
		return
	}
	p := m.peers[to]
	if p == nil {
		f.Release() // not in the book and never heard from: undialable
		return
	}
	if m.Backlog(to) >= m.cfg.MaxBacklog {
		m.shed.Inc()
		f.Release()
		return
	}
	if !p.ready() {
		p.pending = append(p.pending, f)
		m.dial(p) // lazy dial on first traffic
		return
	}
	p.conn.SendFrame(f, int64(m.s.Now()))
	m.armFlush()
}

// dial starts (or continues) the hello handshake toward a peer.
func (m *RealMesh) dial(p *realPeer) {
	if p.probe.Armed() {
		return
	}
	m.sendHello(p)
	p.probeDelay = m.cfg.ProbeMin
	m.armProbe(p)
}

func (m *RealMesh) armProbe(p *realPeer) {
	p.probe.Stop()
	p.probe = m.s.After(p.probeDelay, func() {
		if m.closed || (p.ready() && p.up) {
			return
		}
		m.sendHello(p)
		if p.probeDelay *= 2; p.probeDelay > m.cfg.ProbeMax {
			p.probeDelay = m.cfg.ProbeMax
		}
		m.armProbe(p)
	})
}

// helloPayload advertises the local identity: name length, name, then the
// comma-joined per-path address bundle.
func (m *RealMesh) helloPayload() []byte {
	return FrameService(m.cfg.Name, []byte(strings.Join(m.advertised(), ",")))
}

// sendHello transmits one hello on every path with a known peer address,
// outside any Conn.
func (m *RealMesh) sendHello(p *realPeer) {
	w := Wire{Kind: KindHello, Seq: m.inc, Ack: p.peerInc, Payload: m.helloPayload()}
	buf := w.Marshal()
	for path, addr := range p.addrs {
		if addr == nil || path >= len(m.socks) {
			continue
		}
		m.socks[path].WriteToUDP(buf, addr)
		m.hellosSent.Inc()
	}
}

// onHello processes a handshake datagram: learn/refresh the peer's name and
// addresses, reset the Conn pair when its incarnation changed, and echo
// back until both sides agree on the epoch.
func (m *RealMesh) onHello(path int, src *net.UDPAddr, w Wire) {
	name, addrsCSV, ok := SplitService(w.Payload)
	if !ok || name == "" || name == m.cfg.Name {
		return
	}
	p := m.peers[name]
	if p == nil {
		// A peer we did not have in the book dialled us: learn its bundle.
		addrs := strings.Split(string(addrsCSV), ",")
		if len(addrs) != len(m.socks) {
			return // path-count mismatch: not a mesh we can pair with
		}
		if m.addPeerLocked(name, addrs) != nil {
			return
		}
		p = m.peers[name]
	} else if p.addrs[path] == nil || p.addrs[path].String() != src.String() {
		// Known name, new address (restart with ephemeral ports): re-learn.
		if addrs := strings.Split(string(addrsCSV), ","); len(addrs) == len(m.socks) {
			m.addPeerLocked(name, addrs)
		}
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
	if p.ready() {
		m.flushPending(p)
	}
}

func (m *RealMesh) newPeerConn(p *realPeer) *Conn {
	transmit := func(path int, w Wire) { m.stage(p, path, w) }
	deliver := func(b []byte) {
		if service, payload, ok := SplitService(b); ok {
			if h := m.handlers[service]; h != nil {
				h(p.name, payload)
			}
		}
	}
	conn, err := NewConn(m.cfg.Conn, transmit, deliver)
	if err != nil {
		panic(err) // config was validated at mesh construction
	}
	return conn
}

// flushPending moves datagrams queued during the handshake into the conn.
func (m *RealMesh) flushPending(p *realPeer) {
	if len(p.pending) == 0 {
		return
	}
	now := int64(m.s.Now())
	for _, f := range p.pending {
		p.conn.SendFrame(f, now)
	}
	p.pending = nil
	m.armFlush()
}

// stage queues one outgoing datagram for the batched flush, resolving the
// destination now (the peer's address can move between stage and flush only
// via a hello, which also resets the conn).
func (m *RealMesh) stage(p *realPeer, path int, w Wire) {
	if path >= len(p.addrs) || p.addrs[path] == nil {
		return
	}
	pkt := realPkt{path: path, addr: p.addrs[path]}
	if w.Frame != nil {
		w.Frame.Retain()
		pkt.frame = w.Frame
		pkt.buf = w.Frame.Datagram()
	} else {
		f := netbuf.NewFrame(w.WireSize())
		w.marshalHeader(f.Payload())
		copy(f.Payload()[wireHeader:], w.Payload)
		pkt.frame = f
		pkt.buf = f.Payload()
	}
	m.outq = append(m.outq, pkt)
	m.armFlush()
}

// armFlush schedules one batched socket flush at the current instant: it
// runs right after the event that staged the datagrams, so a whole window
// leaves as one sendmmsg per (path, destination) run.
func (m *RealMesh) armFlush() {
	if m.flushTimer || len(m.outq) == 0 {
		return
	}
	m.flushTimer = true
	m.s.At(m.s.Now(), m.flush)
}

func (m *RealMesh) flush() {
	m.flushTimer = false
	q := m.outq
	m.outq = nil
	if m.closed {
		for i := range q {
			q[i].frame.Release()
		}
		return
	}
	for i := 0; i < len(q); {
		j := i + 1
		for j < len(q) && q[j].path == q[i].path && q[j].addr == q[i].addr {
			j++
		}
		bufs := make([][]byte, 0, j-i)
		for _, p := range q[i:j] {
			bufs = append(bufs, p.buf)
		}
		sendBatch(m.socks[q[i].path], q[i].addr, bufs)
		m.batchSize.Observe(int64(j - i))
		i = j
	}
	for i := range q {
		q[i].frame.Release()
		q[i] = realPkt{}
	}
}

func (m *RealMesh) releaseOutq() {
	for i := range m.outq {
		m.outq[i].frame.Release()
	}
	m.outq = nil
}

// tick drives every peer conn's timers and liveness at half the ping
// interval.
func (m *RealMesh) tick() {
	if m.closed {
		return
	}
	now := int64(m.s.Now())
	for _, p := range m.peers {
		if p.conn == nil || !p.ready() {
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
				p.probeDelay = m.cfg.ProbeMin
				m.armProbe(p)
			}
		}
	}
	m.armFlush()
	m.s.After(m.cfg.Conn.PingInterval/2, m.tick)
}

func (m *RealMesh) setUp(p *realPeer, up bool) {
	if p.up == up {
		return
	}
	p.up = up
	if up {
		m.peersUp.Add(1)
	} else {
		m.peersUp.Add(-1)
	}
	if m.onPeer != nil {
		m.onPeer(p.name, up)
	}
}

// readLoop receives on one path's socket, parses off-loop, and posts the
// protocol work to the loop — the only goroutine that touches mesh state.
func (m *RealMesh) readLoop(path int) {
	for {
		f := netbuf.NewFrame(maxDatagram)
		sz, src, err := m.socks[path].ReadFromUDP(f.Payload())
		if err != nil {
			f.Release()
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-m.done:
				return
			default:
			}
			continue
		}
		w, err := UnmarshalWire(f.Payload()[:sz])
		if err != nil {
			f.Release()
			continue
		}
		w.Frame = f
		m.loop.Post(func() {
			m.onDatagram(path, src, w)
			f.Release()
		})
	}
}

func (m *RealMesh) onDatagram(path int, src *net.UDPAddr, w Wire) {
	if m.closed {
		return
	}
	if w.Kind == KindHello {
		m.onHello(path, src, w)
		m.armFlush()
		return
	}
	p := m.byAddr[src.String()]
	if p == nil || p.conn == nil || !p.ready() {
		return // traffic from an unknown peer or a dead conn epoch
	}
	p.conn.OnWire(path, w, int64(m.s.Now()))
	if !p.up && p.conn.UpPaths() > 0 {
		m.setUp(p, true)
	}
	m.armFlush()
}
