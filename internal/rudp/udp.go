package rudp

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sort"
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
// that only parses and posts to the loop, and staged sends that leave as one
// sendmmsg per (path, destination) run.
type udpDriver struct {
	loop  *rt.Loop
	socks []*net.UDPConn

	// bufAsked is the per-socket buffer request; rcvBuf and sndBuf the
	// smallest the kernel granted across the path sockets.
	bufAsked, rcvBuf, sndBuf int

	outq       []udpPkt
	bufs       [][]byte // flush's per-batch scratch
	flushTimer bool
	closed     bool
	done       chan struct{}

	batchSize *telemetry.Histogram
}

// udpPkt is one staged outgoing datagram with its resolved destination.
type udpPkt struct {
	path  int
	addr  *net.UDPAddr
	buf   []byte
	frame *netbuf.Frame
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
		loop:      loop,
		done:      make(chan struct{}),
		batchSize: scope.Histogram("rudp.udp.batch_datagrams", "datagrams per coalesced same-path socket batch (sendmmsg)"),
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
	for i := range d.socks {
		go d.readLoop(i, m.onDatagram)
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

// close shuts the sockets (read loops exit on net.ErrClosed) and tears down
// on the loop; a closed flush releases what was staged instead of sending.
func (d *udpDriver) close(teardown func()) {
	close(d.done)
	d.closeSocks()
	d.loop.Call(func() {
		teardown()
		d.closed = true
		d.flush()
	})
}

// send stages one outgoing datagram for the batched flush. It runs at the
// current instant, right after the event that staged the datagrams, so a
// whole window leaves as one sendmmsg per (path, destination) run.
func (d *udpDriver) send(path int, to peerAddr, w Wire) {
	pkt := udpPkt{path: path, addr: to.(*net.UDPAddr)}
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
	d.outq = append(d.outq, pkt)
	if !d.flushTimer {
		d.flushTimer = true
		s := d.loop.Scheduler()
		s.At(s.Now(), d.flush)
	}
}

// flush sends the staged datagrams, one batch per (path, destination) run.
// outq's backing array and the bufs scratch are reused from flush to flush:
// nothing stages a send while a flush runs, and both are cleared before it
// returns, so neither pins a released frame.
func (d *udpDriver) flush() {
	d.flushTimer = false
	q := d.outq
	for i := 0; i < len(q) && !d.closed; {
		j := i + 1
		for j < len(q) && q[j].path == q[i].path && q[j].addr == q[i].addr {
			j++
		}
		d.bufs = d.bufs[:0]
		for _, p := range q[i:j] {
			d.bufs = append(d.bufs, p.buf)
		}
		sendBatch(d.socks[q[i].path], q[i].addr, d.bufs)
		clear(d.bufs)
		d.batchSize.Observe(int64(j - i))
		i = j
	}
	for i := range q {
		q[i].frame.Release()
		q[i] = udpPkt{}
	}
	d.outq = q[:0]
}

// readLoop receives on one path's socket, parses off-loop, and posts the
// protocol work to the loop — the only goroutine that touches mesh state.
func (d *udpDriver) readLoop(path int, recv func(path int, src string, w Wire)) {
	// A run of datagrams from one sender reuses its address string.
	var last netip.AddrPort
	var from string
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
		if src != last {
			// Unmapped, so an IPv4 peer on a dual-stack socket reads as the
			// net.UDPAddr form its hellos are keyed by.
			last, from = src, netip.AddrPortFrom(src.Addr().Unmap(), src.Port()).String()
		}
		srcName := from // the closure runs on the loop, after from may move on
		d.loop.Post(func() {
			recv(path, srcName, w)
			f.Release()
		})
	}
}
