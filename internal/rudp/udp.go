package rudp

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"
	"time"

	"rain/internal/netbuf"
	"rain/internal/rt"
	"rain/internal/telemetry"
)

// maxDatagram bounds one received UDP datagram (64 KiB, the protocol
// maximum).
const maxDatagram = 64 * 1024

// RealConfig parameterises NewRealMesh.
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
	// Peers are also learned from inbound hellos — the book only has to
	// cover whoever this node dials first.
	Peers map[string][]string
	// Conn parameterises the per-peer connections.
	Conn Config
}

// udpDriver is the socket packet driver — the deployment the paper ran on
// its testbed: one UDP socket per bundled path, a read goroutine per socket
// that only parses and queues for the loop, and sends written to the socket
// as the loop makes them.
type udpDriver struct {
	loop  *rt.Loop
	socks []*net.UDPConn

	// inbound holds the datagrams the read goroutines parsed and the loop has
	// not yet delivered. A reader posts drainFn only when it finds the queue
	// empty, so one loop event carries every datagram that arrived since the
	// last drain. spare is the loop's other half of the double buffer.
	inMu     sync.Mutex
	inbound  []inDatagram
	inClosed bool
	spare    []inDatagram
	drainFn  func()
	recv     func(path int, src string, w Wire)

	// bufAsked is the per-socket buffer request; rcvBuf and sndBuf the
	// smallest the kernel granted across the path sockets.
	bufAsked, rcvBuf, sndBuf int

	// scratch is where a frameless wire is marshaled: only the loop sends,
	// and the write is done before send returns.
	scratch []byte
	done    chan struct{}

	sendErrors *telemetry.Counter
	inDropped  *telemetry.Counter
}

// inDatagram is one received datagram waiting for the loop.
type inDatagram struct {
	path int
	src  string
	w    Wire
}

// NewRealMesh binds the local sockets and starts one endpoint's read and
// tick machinery on the loop. The loop must already be running.
func NewRealMesh(loop *rt.Loop, cfg RealConfig) (*RealMesh, error) {
	if cfg.Name == "" {
		return nil, errors.New("rudp: RealConfig.Name required")
	}
	if len(cfg.Locals) == 0 {
		return nil, errors.New("rudp: RealConfig.Locals required")
	}
	cfg.Conn.Paths = len(cfg.Locals)
	cfg.Conn = cfg.Conn.withDefaults()
	scope := cfg.Conn.registry().Root()
	d := &udpDriver{
		loop:       loop,
		done:       make(chan struct{}),
		sendErrors: scope.Counter("rudp.udp.send_errors", "datagrams the kernel refused to send (an oversize datagram, a full buffer, an unreachable network)"),
		inDropped:  scope.Counter("rudp.udp.inbound_dropped", "received datagrams dropped because the loop had a full queue of them undelivered"),
		// Every path socket buffers a whole window of largest datagrams, so
		// the kernel never drops what the window lets a peer put in flight
		// (its ~208 KiB default held about six 32 KiB frames of a 64-frame
		// window, and RUDP paid an RTO for the rest).
		bufAsked: cfg.Conn.Window * maxDatagram,
	}
	locals := make([]string, len(cfg.Locals))
	for i, addr := range cfg.Locals {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			d.closeSocks()
			return nil, fmt.Errorf("rudp: resolving %s: %w", addr, err)
		}
		sock, err := net.ListenUDP("udp", ua)
		if err != nil {
			d.closeSocks()
			return nil, fmt.Errorf("rudp: binding %s: %w", addr, err)
		}
		d.socks = append(d.socks, sock)
		locals[i] = sock.LocalAddr().String()
		// Linux clamps the request to net.core.rmem_max/wmem_max silently,
		// so what counts is the read-back, not the error.
		sock.SetReadBuffer(d.bufAsked)
		sock.SetWriteBuffer(d.bufAsked)
		rcv, snd := grantedBuffers(sock, d.bufAsked)
		if i == 0 || rcv < d.rcvBuf {
			d.rcvBuf = rcv
		}
		if i == 0 || snd < d.sndBuf {
			d.sndBuf = snd
		}
	}
	scope.Gauge("rudp.udp.rcvbuf_bytes", "smallest SO_RCVBUF the kernel granted a path socket (Linux reports twice the usable size)").Set(int64(d.rcvBuf))
	scope.Gauge("rudp.udp.sndbuf_bytes", "smallest SO_SNDBUF the kernel granted a path socket (Linux reports twice the usable size)").Set(int64(d.sndBuf))
	advertise := cfg.Advertise
	if len(advertise) == 0 {
		advertise = locals
	}
	m := newEndpoint(cfg.Name, cfg.Conn, scope, loop.Scheduler(), d, uint64(time.Now().UnixNano()), locals, advertise)
	names := make([]string, 0, len(cfg.Peers))
	for name := range cfg.Peers {
		if name != cfg.Name {
			names = append(names, name)
		}
	}
	sort.Strings(names) // the book is a map; the peer order must not be
	for _, name := range names {
		if err := m.addPeer(name, cfg.Peers[name]); err != nil {
			d.closeSocks()
			return nil, err
		}
	}
	d.recv = m.onDatagram
	d.drainFn = d.drain
	for i := range d.socks {
		go d.readLoop(i)
	}
	loop.Post(m.tick)
	return m, nil
}

// SocketBuffers reports the buffer size each path socket asked for and the
// smallest receive and send sizes the kernel granted. Linux reports twice
// the usable size, so an unclamped request reads back at least asked. A
// simulated endpoint has no sockets and reports zeros.
func (m *Endpoint) SocketBuffers() (asked, rcv, snd int) {
	if d, ok := m.drv.(*udpDriver); ok {
		return d.bufAsked, d.rcvBuf, d.sndBuf
	}
	return 0, 0, 0
}

func (d *udpDriver) closeSocks() {
	for _, s := range d.socks {
		s.Close()
	}
}

func (d *udpDriver) resolve(a string) (peerAddr, error) { return net.ResolveUDPAddr("udp", a) }

// close shuts the sockets (read loops exit on net.ErrClosed, and later sends
// are dropped with it) and tears down on the loop; received datagrams no
// drain delivered are released.
func (d *udpDriver) close(teardown func()) {
	close(d.done)
	d.closeSocks()
	d.loop.Call(teardown)
	d.inMu.Lock()
	d.inClosed = true
	for i := range d.inbound {
		d.inbound[i].w.Frame.Release()
	}
	d.inbound = nil
	d.inMu.Unlock()
}

// send writes one datagram to the path's socket before it returns. A
// frame-backed wire is written in place (the kernel copies it, so the frame
// stays the caller's); any other is marshaled into the driver's scratch.
// Errors other than a closed socket are counted and otherwise ignored, as
// UDP loss: RUDP retransmits, and the link monitor sees a dead peer as
// silence.
func (d *udpDriver) send(path int, to peerAddr, w Wire) {
	var buf []byte
	if w.Frame != nil {
		buf = w.Frame.Datagram()
	} else {
		n := w.WireSize()
		if cap(d.scratch) < n {
			d.scratch = make([]byte, n)
		}
		buf = d.scratch[:n]
		w.marshalHeader(buf)
		copy(buf[wireHeader:], w.Payload)
	}
	if _, err := d.socks[path].WriteToUDP(buf, to.(*net.UDPAddr)); err != nil && !errors.Is(err, net.ErrClosed) {
		d.sendErrors.Inc()
	}
}

// readLoop receives on one path's socket, parses off-loop, and queues the
// datagram for the loop — the only goroutine that touches mesh state.
func (d *udpDriver) readLoop(path int) {
	// Source address strings are interned per socket, so a datagram from a
	// known sender allocates nothing.
	names := make(map[netip.AddrPort]string)
	for {
		f := netbuf.NewFrame(maxDatagram)
		sz, src, err := d.socks[path].ReadFromUDPAddrPort(f.Payload())
		if err != nil {
			f.Release()
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-d.done:
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
		from, ok := names[src]
		if !ok {
			if len(names) >= maxInterned {
				clear(names)
			}
			// Unmapped, so an IPv4 peer on a dual-stack socket reads as the
			// net.UDPAddr form its hellos are keyed by.
			from = netip.AddrPortFrom(src.Addr().Unmap(), src.Port()).String()
			names[src] = from
		}
		d.inMu.Lock()
		if d.inClosed {
			d.inMu.Unlock()
			f.Release()
			return
		}
		if len(d.inbound) >= maxInbound {
			// The loop is far behind (or stopped): drop here, as a full
			// socket buffer would, rather than pin frames without bound.
			d.inMu.Unlock()
			f.Release()
			d.inDropped.Inc()
			continue
		}
		wake := len(d.inbound) == 0
		d.inbound = append(d.inbound, inDatagram{path: path, src: from, w: w})
		d.inMu.Unlock()
		if wake {
			d.loop.Post(d.drainFn)
		}
	}
}

const (
	// maxInterned bounds a read goroutine's source-address cache.
	maxInterned = 1024
	// maxInbound bounds the datagrams queued for the loop across a driver's
	// sockets, each pinning a receive frame.
	maxInbound = 1024
)

// drain delivers every queued datagram on the loop and releases its frame.
// It swaps the queue for the spare first, so the readers keep appending
// while it works, and the next arrival posts the next drain.
func (d *udpDriver) drain() {
	d.inMu.Lock()
	q := d.inbound
	d.inbound, d.spare = d.spare[:0], nil
	d.inMu.Unlock()
	for i := range q {
		in := &q[i]
		d.recv(in.path, in.src, in.w)
		in.w.Frame.Release()
		q[i] = inDatagram{}
	}
	d.spare = q[:0]
}
