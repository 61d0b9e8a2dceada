package rudp

import (
	"fmt"

	"rain/internal/netbuf"
	"rain/internal/sim"
)

// simDriver is the simulator packet driver: one sim.Network address per
// bundled path (node X's NIC i talks to node Y's NIC i, the layout of the
// paper's testbed). Wires travel by reference — nothing is marshaled — with
// the sender's frame retained until the network delivers or drops the
// packet, so an ack that releases the sender's queue cannot recycle the
// buffer under a still-travelling duplicate.
type simDriver struct {
	net    *sim.Network
	locals []sim.Addr
}

// simAddr is a sim.Addr as a peerAddr.
type simAddr sim.Addr

func (a simAddr) String() string { return string(a) }

func (d *simDriver) resolve(a string) (peerAddr, error) { return simAddr(a), nil }

func (d *simDriver) send(path int, to peerAddr, w Wire) {
	var done func()
	if w.Frame != nil {
		w.Frame.Retain()
		done = w.Frame.Release
	}
	d.net.SendSizedDone(d.locals[path], sim.Addr(to.(simAddr)), w, w.WireSize(), done)
}

func (d *simDriver) close(teardown func()) {
	for _, a := range d.locals {
		d.net.Detach(a)
	}
	teardown()
}

// newSimEndpoint attaches one endpoint to the network at name's NIC
// addresses and starts its tick on the scheduler. The incarnation is drawn
// from the scheduler, so a seed reproduces it and an endpoint rebuilt on
// the same addresses gets a fresh one. cfg must carry defaults.
func newSimEndpoint(s *sim.Scheduler, net *sim.Network, name string, cfg Config) *Endpoint {
	d := &simDriver{net: net, locals: make([]sim.Addr, cfg.Paths)}
	locals := make([]string, cfg.Paths)
	for i := range locals {
		d.locals[i] = sim.NodeAddr(name, i)
		locals[i] = string(d.locals[i])
	}
	ep := newEndpoint(name, cfg, cfg.registry().Node(name), s, d, s.Rand().Uint64()|1, locals, locals)
	for i, a := range d.locals {
		i := i
		net.Attach(a, func(p sim.Packet) { ep.onDatagram(i, string(p.From), p.Payload.(Wire)) })
	}
	s.After(0, ep.tick)
	return ep
}

// Mesh is a simulated cluster's communication substrate: one Endpoint per
// node on a shared scheduler and sim.Network, each holding the others in
// its address book, plus the fault helpers tests and experiments script
// (cut a cable, freeze a node). MPI jobs, the membership ring and the
// applications run on it; the deployed node runs one of the same endpoints
// on sockets.
//
// Datagrams are demultiplexed per service: several protocol engines can
// share one node's connections, each registering its own handler with
// Handle and addressing peers with SendService. OnMessage/Send are the
// unnamed default service.
type Mesh struct {
	S     *sim.Scheduler
	Net   *sim.Network
	Nodes []string
	Paths int

	eps map[string]*Endpoint
}

// NewMesh builds the endpoints and dials every pair, so path monitors
// settle without waiting for first traffic.
func NewMesh(s *sim.Scheduler, net *sim.Network, nodes []string, cfg Config) (*Mesh, error) {
	cfg = cfg.withDefaults()
	if cfg.Paths < 1 {
		return nil, fmt.Errorf("rudp: need at least one path, got %d", cfg.Paths)
	}
	m := &Mesh{
		S:     s,
		Net:   net,
		Nodes: append([]string(nil), nodes...),
		Paths: cfg.Paths,
		eps:   make(map[string]*Endpoint, len(nodes)),
	}
	for _, a := range nodes {
		m.eps[a] = newSimEndpoint(s, net, a, cfg)
	}
	for _, a := range nodes {
		ep := m.eps[a]
		for _, b := range nodes {
			if a == b {
				continue
			}
			if err := ep.addPeer(b, m.eps[b].locals); err != nil {
				return nil, err
			}
			ep.dial(ep.peers[b])
		}
	}
	return m, nil
}

// ep returns a node's endpoint.
func (m *Mesh) ep(node string) *Endpoint {
	ep := m.eps[node]
	if ep == nil {
		panic(fmt.Sprintf("rudp: no mesh node %q", node))
	}
	return ep
}

// Handle registers the handler for datagrams addressed to a service on a
// node (from any peer), replacing any previous handler for that service.
func (m *Mesh) Handle(node, service string, fn func(from string, payload []byte)) {
	m.ep(node).Handle(node, service, fn)
}

// OnMessage registers the handler for the default service on a node.
func (m *Mesh) OnMessage(node string, fn func(from string, payload []byte)) {
	m.Handle(node, "", fn)
}

// SendService queues a reliable datagram from one node to another,
// addressed to the named service on the receiver (Endpoint.SendService on
// from's endpoint).
func (m *Mesh) SendService(from, to, service string, payload []byte) {
	m.ep(from).SendService(from, to, service, payload)
}

// SendNotify is SendService with a delivery report (Endpoint.SendNotify on
// from's endpoint).
func (m *Mesh) SendNotify(from, to, service string, payload []byte, done func(ok bool)) {
	m.ep(from).SendNotify(from, to, service, payload, done)
}

// SendFrame is the zero-copy SendService (Endpoint.SendFrame on from's
// endpoint); it consumes the caller's frame reference.
func (m *Mesh) SendFrame(from, to, service string, f *netbuf.Frame) {
	m.ep(from).SendFrame(from, to, service, f)
}

// Send queues a reliable datagram from one node to another on the default
// service.
func (m *Mesh) Send(from, to string, payload []byte) {
	m.SendService(from, to, "", payload)
}

// Conn exposes the connection state machine from node a toward node b, for
// tests and experiments inspecting path status and stats. It is nil until
// the pair's first hello lands.
func (m *Mesh) Conn(a, b string) *Conn {
	if p := m.ep(a).peers[b]; p != nil {
		return p.conn
	}
	return nil
}

// CutPath severs path i between two nodes in both directions.
func (m *Mesh) CutPath(a, b string, path int) {
	m.Net.Cut(sim.NodeAddr(a, path), sim.NodeAddr(b, path))
}

// HealPath restores path i between two nodes.
func (m *Mesh) HealPath(a, b string, path int) {
	m.Net.Heal(sim.NodeAddr(a, path), sim.NodeAddr(b, path))
}

// CutLink severs every bundled path between two nodes: the pair can no
// longer talk directly, while each still reaches everyone else.
func (m *Mesh) CutLink(a, b string) {
	for p := 0; p < m.Paths; p++ {
		m.CutPath(a, b, p)
	}
}

// HealLink restores every path between two nodes.
func (m *Mesh) HealLink(a, b string) {
	for p := 0; p < m.Paths; p++ {
		m.HealPath(a, b, p)
	}
}

// StopNode freezes a node: its endpoint stops ticking, transmitting,
// receiving and delivering, and its links are cut so in-flight traffic
// dies. Peers see every path to it go Down, probe it with hellos and shed
// sends beyond the backlog cap.
func (m *Mesh) StopNode(node string) {
	m.ep(node).paused = true
	m.Net.CutNode(node)
}

// StartNode thaws a stopped node and heals its links. This is a pause, not
// a restart: the endpoint keeps its incarnation and its connections their
// sequence numbers, so peers resume without a conn reset. Crash-restart
// semantics are the business of the membership layer above.
func (m *Mesh) StartNode(node string) {
	ep := m.ep(node)
	ep.paused = false
	m.Net.HealNode(node)
	// Its hello backoff ran out the whole time it was frozen; peers it never
	// shook hands with (a standby powered on) should not wait for that.
	for _, p := range ep.order {
		ep.reprobe(p)
	}
}

// Stopped reports whether a node is currently stopped.
func (m *Mesh) Stopped(node string) bool { return m.ep(node).paused }
