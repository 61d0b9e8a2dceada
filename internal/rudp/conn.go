package rudp

import (
	"fmt"
	"sync/atomic"
	"time"

	"rain/internal/linkstate"
	"rain/internal/netbuf"
	"rain/internal/telemetry"
)

// DefaultRTO is the retransmission timeout a zero Config.RTO takes. The
// delivery report of Endpoint.SendNotify derives its give-up period from the
// RTO in effect.
const DefaultRTO = 40 * time.Millisecond

// Config parameterises a Conn. Zero fields take the defaults below.
type Config struct {
	// Paths is the number of independent network paths (bundled interface
	// pairs) between the two nodes. Default 2, the paper's testbed layout.
	Paths int
	// Window is the maximum number of unacknowledged datagrams in flight.
	Window int
	// RTO is the retransmission timeout for unacknowledged datagrams.
	RTO time.Duration
	// PingInterval and PingTimeout drive the per-path link monitors.
	PingInterval, PingTimeout time.Duration
	// Slack is the link-state protocol slack N (default 2).
	Slack int
	// Telemetry is the metrics registry connections report into; nil means
	// the process-wide telemetry.Default(). Simulated endpoints label series
	// per node; the socket endpoint uses the unlabeled root scope.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Paths == 0 {
		c.Paths = 2
	}
	if c.Window == 0 {
		c.Window = 64
	}
	if c.RTO == 0 {
		c.RTO = DefaultRTO
	}
	if c.PingInterval == 0 {
		c.PingInterval = 10 * time.Millisecond
	}
	if c.PingTimeout == 0 {
		c.PingTimeout = 35 * time.Millisecond
	}
	if c.Slack == 0 {
		c.Slack = 2
	}
	return c
}

// Stats counts a Conn's activity; all values are cumulative.
type Stats struct {
	Sent          uint64 // datagrams first transmitted
	Retransmits   uint64
	Delivered     uint64 // datagrams handed to the application, in order
	Duplicates    uint64 // data arrivals below the receive cursor
	AcksSent      uint64
	PerPathData   []uint64 // data transmissions (incl. retransmits) per path
	FailoverSends uint64   // retransmissions that switched paths
}

// ackEvery bounds receive-side ack coalescing: one cumulative ack per this
// many in-order data arrivals on the fast path, with any residue flushed by
// the next Tick (well inside the sender's RTO) and gaps, duplicates and
// window-edge arrivals acked immediately.
const ackEvery = 4

type pending struct {
	seq      uint64
	payload  []byte        // the application datagram (service-framed bytes)
	frame    *netbuf.Frame // owns payload (and the pushed wire header); one queue ref
	lastSent int64
	lastPath int
	sent     bool
	resent   bool    // retransmitted at least once: its ack is no RTT sample
	notify   *notify // delivery report (SendNotify); nil for plain sends
}

// recvSlot is one buffered out-of-order datagram; the slot holds a frame
// reference so pooled sender/reader buffers stay alive until delivery.
type recvSlot struct {
	payload []byte
	frame   *netbuf.Frame
}

// Conn is the RUDP endpoint state machine for traffic from one local node
// to one remote node (one direction of data, both directions of pings and
// acks). It is pure: drivers feed OnWire and Tick with a monotonic
// nanosecond clock and implement the transmit callback. Not safe for
// concurrent use — drive from one goroutine or the simulator.
type Conn struct {
	cfg      Config
	transmit func(path int, w Wire)
	deliver  func([]byte)

	monitors []*linkstate.Monitor
	lastPing []int64

	nextSeq  uint64 // next sequence to assign (1-based)
	sendBase uint64 // lowest unacknowledged sequence
	queue    []*pending
	rr       int // round-robin cursor over up paths

	recvNext uint64 // next in-order sequence expected
	recvBuf  map[uint64]recvSlot

	// Receive-side ack coalescing state: in-order arrivals since the last
	// ack, and the path the next flushed ack should use.
	unacked int
	ackPath int
	ackOwed bool

	// pfree recycles pending records freed by acks so the steady-state send
	// path allocates nothing.
	pfree []*pending
	// acked collects the delivery reports one ack covers, fired once the
	// queue is consistent again.
	acked []*notify

	stats connCounters
	met   *connMetrics
}

// connCounters are the per-connection counts backing the Stats view. They
// are atomics so snapshots never tear, and per-conn (unlike the shared
// registry series) so existing callers keep per-connection semantics.
type connCounters struct {
	sent          atomic.Uint64
	retransmits   atomic.Uint64
	delivered     atomic.Uint64
	duplicates    atomic.Uint64
	acksSent      atomic.Uint64
	failoverSends atomic.Uint64
	perPathData   []atomic.Uint64
}

// newConn builds a connection endpoint reporting into the given telemetry
// scope (nil means the configured registry's root scope). transmit sends a
// wire datagram on a path (unreliably); deliver receives application
// datagrams exactly once, in order.
func newConn(cfg Config, scope *telemetry.Scope, transmit func(path int, w Wire), deliver func([]byte)) (*Conn, error) {
	cfg = cfg.withDefaults()
	if scope == nil {
		scope = cfg.registry().Root()
	}
	if cfg.Paths < 1 {
		return nil, fmt.Errorf("rudp: need at least one path, got %d", cfg.Paths)
	}
	c := &Conn{
		cfg:      cfg,
		transmit: transmit,
		deliver:  deliver,
		monitors: make([]*linkstate.Monitor, cfg.Paths),
		lastPing: make([]int64, cfg.Paths),
		nextSeq:  1,
		sendBase: 1,
		recvNext: 1,
		recvBuf:  make(map[uint64]recvSlot),
	}
	for i := range c.monitors {
		ep, err := linkstate.NewEndpoint(cfg.Slack, linkstate.TinExplicit)
		if err != nil {
			return nil, err
		}
		c.monitors[i] = linkstate.NewMonitor(ep, cfg.PingInterval, cfg.PingTimeout)
		c.lastPing[i] = -int64(cfg.PingInterval) // ping immediately on first tick
	}
	c.stats.perPathData = make([]atomic.Uint64, cfg.Paths)
	c.met = newConnMetrics(scope)
	return c, nil
}

// PathStatus reports the link-state view of path i.
func (c *Conn) PathStatus(i int) linkstate.Status { return c.monitors[i].Status() }

// UpPaths counts paths currently seen Up.
func (c *Conn) UpPaths() int {
	n := 0
	for _, m := range c.monitors {
		if m.Status() == linkstate.Up {
			n++
		}
	}
	return n
}

// Stats returns a snapshot view of the connection counters. The counts are
// atomics (and mirrored into the telemetry registry), so the snapshot is
// safe to take from any goroutine.
func (c *Conn) Stats() Stats {
	s := Stats{
		Sent:          c.stats.sent.Load(),
		Retransmits:   c.stats.retransmits.Load(),
		Delivered:     c.stats.delivered.Load(),
		Duplicates:    c.stats.duplicates.Load(),
		AcksSent:      c.stats.acksSent.Load(),
		FailoverSends: c.stats.failoverSends.Load(),
		PerPathData:   make([]uint64, len(c.stats.perPathData)),
	}
	for i := range c.stats.perPathData {
		s.PerPathData[i] = c.stats.perPathData[i].Load()
	}
	return s
}

// Backlog reports datagrams queued or in flight but not yet acknowledged.
func (c *Conn) Backlog() int { return len(c.queue) }

// send queues the frame's current datagram bytes (payload plus any service
// header the caller pushed) for reliable delivery, taking ownership of the
// caller's frame reference; n (nil for plain sends) fires true once the
// peer's cumulative ack covers the datagram. The wire header is marshaled
// once into the frame's headroom, so retransmissions re-send the same bytes
// without re-marshaling, and byte-oriented drivers write the frame directly.
// The queue is unbounded; when every path is down the data waits, exactly the
// paper's MPI-over-RUDP behaviour ("the application may hang until the link
// is restored") — the endpoint above bounds what it lets in.
func (c *Conn) send(f *netbuf.Frame, n *notify, now int64) {
	payload := f.Datagram()
	var p *pending
	if k := len(c.pfree); k > 0 {
		p = c.pfree[k-1]
		c.pfree[k-1] = nil
		c.pfree = c.pfree[:k-1]
		*p = pending{seq: c.nextSeq, payload: payload, frame: f, notify: n}
	} else {
		p = &pending{seq: c.nextSeq, payload: payload, frame: f, notify: n}
	}
	c.nextSeq++
	Wire{Kind: KindData, Seq: p.seq, Payload: payload}.PushHeader(f)
	c.queue = append(c.queue, p)
	c.pump(now)
}

// pickPath returns the next Up path in round-robin order, an arbitrary path
// if none are Up (pings must still flow), and whether any path was Up.
func (c *Conn) pickPath() (int, bool) {
	for off := 0; off < c.cfg.Paths; off++ {
		i := (c.rr + off) % c.cfg.Paths
		if c.monitors[i].Status() == linkstate.Up {
			c.rr = (i + 1) % c.cfg.Paths
			return i, true
		}
	}
	return c.rr, false
}

// pump transmits queued datagrams while the window has room and a path is
// up.
func (c *Conn) pump(now int64) {
	inFlightLimit := c.cfg.Window
	for _, p := range c.queue {
		if p.seq >= c.sendBase+uint64(inFlightLimit) {
			break
		}
		if p.sent {
			continue
		}
		path, up := c.pickPath()
		if !up {
			break
		}
		p.sent = true
		p.lastSent = now
		p.lastPath = path
		c.stats.sent.Add(1)
		c.stats.perPathData[path].Add(1)
		c.met.sent.Inc()
		c.transmit(path, Wire{Kind: KindData, Seq: p.seq, Payload: p.payload, Frame: p.frame})
	}
}

// Tick drives timers: per-path pings and retransmission of datagrams older
// than the RTO. Call it at least every PingInterval.
func (c *Conn) Tick(now int64) {
	for i, m := range c.monitors {
		if now-c.lastPing[i] >= int64(c.cfg.PingInterval) {
			c.lastPing[i] = now
			c.transmit(i, Wire{Kind: KindPing, Ping: m.Tick(now)})
		}
	}
	for _, p := range c.queue {
		if !p.sent || now-p.lastSent < int64(c.cfg.RTO) {
			continue
		}
		path, up := c.pickPath()
		if !up {
			// Leave it marked sent; it will be retried when a path
			// comes back (Tick keeps firing).
			continue
		}
		if path != p.lastPath {
			c.stats.failoverSends.Add(1)
			c.met.failovers.Inc()
		}
		p.lastSent = now
		p.lastPath = path
		p.resent = true
		c.stats.retransmits.Add(1)
		c.stats.perPathData[path].Add(1)
		c.met.retransmits.Inc()
		c.transmit(path, Wire{Kind: KindData, Seq: p.seq, Payload: p.payload, Frame: p.frame})
	}
	if c.ackOwed {
		c.flushAck(c.ackPath)
	}
	c.pump(now)
}

// flushAck transmits the current cumulative acknowledgement and resets the
// coalescing state.
func (c *Conn) flushAck(path int) {
	c.unacked = 0
	c.ackOwed = false
	c.stats.acksSent.Add(1)
	c.met.acksSent.Inc()
	c.transmit(path, Wire{Kind: KindAck, Ack: c.recvNext - 1})
}

// OnWire processes a datagram received on path i. Data payloads (and any
// frame backing them) are borrowed: they are either handed to deliver before
// OnWire returns or retained via w.Frame while buffered out of order.
func (c *Conn) OnWire(path int, w Wire, now int64) {
	switch w.Kind {
	case KindPing:
		if extra := c.monitors[path].OnPing(w.Ping, now); extra != nil {
			c.transmit(path, Wire{Kind: KindPing, Ping: *extra})
		}
		// A path recovering may unblock queued data.
		c.pump(now)
	case KindData:
		fresh := false
		if w.Seq < c.recvNext {
			c.stats.duplicates.Add(1)
			c.met.duplicates.Inc()
		} else if _, dup := c.recvBuf[w.Seq]; dup {
			c.stats.duplicates.Add(1)
			c.met.duplicates.Inc()
		} else {
			fresh = true
			if w.Frame != nil {
				w.Frame.Retain()
			}
			c.recvBuf[w.Seq] = recvSlot{payload: w.Payload, frame: w.Frame}
			for {
				slot, ok := c.recvBuf[c.recvNext]
				if !ok {
					break
				}
				delete(c.recvBuf, c.recvNext)
				c.recvNext++
				c.stats.delivered.Add(1)
				c.met.delivered.Inc()
				if c.deliver != nil {
					c.deliver(slot.payload)
				}
				if slot.frame != nil {
					slot.frame.Release()
				}
			}
		}
		// Ack immediately on anything unusual — duplicates (the sender
		// retransmitted, so an earlier ack was lost), gaps (out-of-order
		// buffering), and every ackEvery-th in-order arrival; coalesce the
		// rest, with Tick as the flush backstop.
		c.unacked++
		c.ackPath = path
		if !fresh || len(c.recvBuf) > 0 || c.unacked >= ackEvery {
			c.flushAck(path)
		} else {
			c.ackOwed = true
			c.met.acksCoalesced.Inc()
		}
	case KindAck:
		if w.Ack+1 <= c.sendBase {
			return
		}
		newBase := w.Ack + 1
		keep := c.queue[:0]
		for _, p := range c.queue {
			if p.seq >= newBase {
				keep = append(keep, p)
				continue
			}
			// A clean (never-retransmitted) ack is an unambiguous RTT
			// sample; retransmitted datagrams are skipped, per Karn.
			if p.sent && !p.resent {
				c.met.rtt.Observe(now - p.lastSent)
			}
			// Acknowledged: drop the queue's frame reference so the pooled
			// buffer can be reused once any in-flight copies drain, and
			// recycle the pending record for future sends.
			if p.frame != nil {
				p.frame.Release()
			}
			if p.notify != nil {
				c.acked = append(c.acked, p.notify)
			}
			*p = pending{}
			c.pfree = append(c.pfree, p)
		}
		// Zero the tail so released datagrams can be collected.
		for i := len(keep); i < len(c.queue); i++ {
			c.queue[i] = nil
		}
		c.queue = keep
		c.sendBase = newBase
		c.pump(now)
		// Reports last: one may send again on this conn.
		for i, n := range c.acked {
			c.acked[i] = nil
			n.fire(true)
		}
		c.acked = c.acked[:0]
	}
}
