package rudp

import (
	"fmt"

	"rain/internal/netbuf"
	"rain/internal/sim"
)

// envelope is the simulator's wire format: the Wire plus the sender's node
// name for demultiplexing at the receiver.
type envelope struct {
	From string
	W    Wire
}

// Mesh wires a full mesh of RUDP connections between simulated nodes, each
// pair joined by cfg.Paths independent paths (node X's NIC i talks to node
// Y's NIC i, the bundled-interface layout of the paper's testbed). It is the
// communication substrate the simulated MPI jobs, membership rings and
// applications run on.
//
// Datagrams are demultiplexed per service: several protocol engines (MPI,
// the distributed store daemon, the store client) can share one node's
// connections, each registering its own handler with Handle and addressing
// peers with SendService. OnMessage/Send are the unnamed default service.
type Mesh struct {
	S     *sim.Scheduler
	Net   *sim.Network
	Nodes []string
	Paths int

	cfg      Config
	conns    map[string]map[string]*Conn
	handlers map[string]map[string]func(from string, payload []byte)
	stopped  map[string]bool
	addrs    map[string][]sim.Addr // memoized NodeAddr per node × path
}

// addr returns the memoized NIC address for a node and path.
func (m *Mesh) addr(node string, path int) sim.Addr {
	if a, ok := m.addrs[node]; ok && path < len(a) {
		return a[path]
	}
	return sim.NodeAddr(node, path)
}

// NewMesh builds the mesh and starts per-node tick loops on the scheduler.
func NewMesh(s *sim.Scheduler, net *sim.Network, nodes []string, cfg Config) (*Mesh, error) {
	cfg = cfg.withDefaults()
	m := &Mesh{
		S:        s,
		Net:      net,
		Nodes:    append([]string(nil), nodes...),
		Paths:    cfg.Paths,
		cfg:      cfg,
		conns:    make(map[string]map[string]*Conn),
		handlers: make(map[string]map[string]func(string, []byte)),
		stopped:  make(map[string]bool),
		addrs:    make(map[string][]sim.Addr),
	}
	for _, a := range nodes {
		nics := make([]sim.Addr, cfg.Paths)
		for i := range nics {
			nics[i] = sim.NodeAddr(a, i)
		}
		m.addrs[a] = nics
	}
	reg := cfg.registry()
	for _, a := range nodes {
		m.conns[a] = make(map[string]*Conn)
		// All of one node's conns share the node's telemetry series —
		// per-conn series would be N² cardinality for no insight.
		scope := reg.Node(a)
		for _, b := range nodes {
			if a == b {
				continue
			}
			a, b := a, b
			conn, err := newConn(cfg, scope,
				func(path int, w Wire) { m.transmit(a, b, path, w) },
				func(payload []byte) { m.dispatch(a, b, payload) })
			if err != nil {
				return nil, err
			}
			m.conns[a][b] = conn
		}
	}
	for _, a := range nodes {
		for i := 0; i < m.Paths; i++ {
			addr := sim.NodeAddr(a, i)
			a, i := a, i
			net.Attach(addr, func(p sim.Packet) { m.onPacket(a, i, p) })
		}
	}
	for _, a := range nodes {
		a := a
		var loop func()
		loop = func() {
			if !m.stopped[a] {
				now := int64(s.Now())
				// In roster order, not map order: ticks transmit, and the
				// network draws jitter per send, so the order is part of
				// what a seed reproduces.
				for _, b := range nodes {
					if c := m.conns[a][b]; c != nil {
						c.Tick(now)
					}
				}
			}
			s.After(cfg.PingInterval/2, loop)
		}
		s.After(0, loop)
	}
	return m, nil
}

func (m *Mesh) transmit(from, to string, path int, w Wire) {
	if m.stopped[from] {
		return
	}
	// The in-flight packet aliases the sender's frame (no copy); hold a
	// reference until the network delivers or drops it, so an ack that
	// releases the sender's queue cannot recycle the buffer under a
	// still-travelling duplicate.
	var done func()
	if w.Frame != nil {
		w.Frame.Retain()
		done = w.Frame.Release
	}
	m.Net.SendSizedDone(m.addr(from, path), m.addr(to, path), envelope{From: from, W: w}, w.WireSize(), done)
}

func (m *Mesh) onPacket(node string, path int, p sim.Packet) {
	if m.stopped[node] {
		return
	}
	env := p.Payload.(envelope)
	conn, ok := m.conns[node][env.From]
	if !ok {
		return
	}
	conn.OnWire(path, env.W, int64(m.S.Now()))
}

// FrameService prefixes a payload with its service name (1-byte length +
// name); the receiver strips the frame with SplitService and routes to the
// service's handler. The default service "" costs one byte. Shared by the
// simulated mesh and real-socket drivers speaking the same multiplexing.
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

// dispatch strips the service frame and routes the datagram to the handler
// registered for (node, service). Unknown services are dropped silently,
// like UDP ports nobody listens on.
func (m *Mesh) dispatch(node, from string, framed []byte) {
	service, payload, ok := SplitService(framed)
	if !ok {
		return
	}
	if h := m.handlers[node][service]; h != nil {
		h(from, payload)
	}
}

// Handle registers the handler for datagrams addressed to a service on a
// node (from any peer), replacing any previous handler for that service.
func (m *Mesh) Handle(node, service string, fn func(from string, payload []byte)) {
	hs, ok := m.handlers[node]
	if !ok {
		hs = make(map[string]func(string, []byte))
		m.handlers[node] = hs
	}
	hs[service] = fn
}

// OnMessage registers the handler for the default service on a node.
func (m *Mesh) OnMessage(node string, fn func(from string, payload []byte)) {
	m.Handle(node, "", fn)
}

// SendService queues a reliable datagram from one node to another, addressed
// to the named service on the receiver. A node may send to itself: loopback
// datagrams skip the network and deliver on the next scheduler event. The
// payload is copied; senders that build datagrams in frames use SendFrame.
func (m *Mesh) SendService(from, to, service string, payload []byte) {
	f := netbuf.NewFrame(len(payload))
	copy(f.Payload(), payload)
	m.SendFrame(from, to, service, f)
}

// SendFrame queues a reliable datagram whose bytes live in f's payload
// region, consuming the caller's frame reference — the zero-copy
// SendService. The service header is pushed into the frame's headroom and
// the framed bytes travel by reference all the way through the connection's
// retransmit queue and the simulated network.
func (m *Mesh) SendFrame(from, to, service string, f *netbuf.Frame) {
	PushService(f, service)
	if from == to {
		framed := f.Datagram()
		m.S.After(0, func() {
			if !m.stopped[from] {
				m.dispatch(from, from, framed)
			}
			f.Release()
		})
		return
	}
	conn, ok := m.conns[from][to]
	if !ok {
		panic(fmt.Sprintf("rudp: no conn %s->%s", from, to))
	}
	conn.SendFrame(f, int64(m.S.Now()))
}

// Send queues a reliable datagram from one node to another on the default
// service.
func (m *Mesh) Send(from, to string, payload []byte) {
	m.SendService(from, to, "", payload)
}

// Conn exposes the connection state machine from node a toward node b,
// for tests and experiments inspecting path status and stats.
func (m *Mesh) Conn(a, b string) *Conn { return m.conns[a][b] }

// CutPath severs path i between two nodes in both directions.
func (m *Mesh) CutPath(a, b string, path int) {
	m.Net.Cut(sim.NodeAddr(a, path), sim.NodeAddr(b, path))
}

// HealPath restores path i between two nodes.
func (m *Mesh) HealPath(a, b string, path int) {
	m.Net.Heal(sim.NodeAddr(a, path), sim.NodeAddr(b, path))
}

// StopNode freezes a node: it stops ticking, transmitting and receiving —
// the simulator's process crash. The network links are also cut so
// in-flight traffic dies.
func (m *Mesh) StopNode(node string) {
	m.stopped[node] = true
	m.Net.CutNode(node)
}

// StartNode revives a stopped node and heals its links. Connection state
// machines retain their sequence numbers, modelling a process that was
// paused rather than restarted; full crash-restart semantics are the
// business of the membership layer above.
func (m *Mesh) StartNode(node string) {
	m.stopped[node] = false
	m.Net.HealNode(node)
}

// Stopped reports whether a node is currently stopped.
func (m *Mesh) Stopped(node string) bool { return m.stopped[node] }
