package sim

import (
	"fmt"
	"time"
)

// Addr names a network endpoint: one interface of one node, e.g. "A:0" for
// node A's first NIC. The RAIN paper's bundled-interface model (§2) maps to
// several Addrs per node.
type Addr string

// NodeAddr builds the conventional "node:nic" address.
func NodeAddr(node string, nic int) Addr { return Addr(fmt.Sprintf("%s:%d", node, nic)) }

// Packet is a datagram in flight.
type Packet struct {
	From, To Addr
	Payload  any
}

// Handler consumes packets delivered to an endpoint.
type Handler func(Packet)

// LinkConfig sets the behaviour of one (unordered) endpoint pair.
type LinkConfig struct {
	// Delay is the base one-way latency.
	Delay time.Duration
	// Jitter adds a uniform random [0, Jitter) to each delivery. Keeping
	// it non-zero exercises reordering in the protocols above.
	Jitter time.Duration
	// Loss is the probability in [0, 1] that a packet is dropped.
	Loss float64
	// RateMbps is the link capacity in megabits per second; packets sent
	// via SendSized serialize one after another at this rate (0 means
	// infinite capacity). This is what makes interface bundling show its
	// bandwidth benefit (§2, §2.5).
	RateMbps float64
}

// DefaultLink is used for pairs without an explicit config: LAN-ish latency.
var DefaultLink = LinkConfig{Delay: 200 * time.Microsecond, Jitter: 50 * time.Microsecond}

// linkKey names one direction of a link; each direction carries its own
// config and serialization horizon, so asymmetric latency/loss/rate (WAN
// profiles, full-duplex capacity) can be modelled. Cut and Heal act on both
// directions — pulling a cable kills the pair.
type linkKey struct{ from, to Addr }

type linkState struct {
	cfg       LinkConfig
	cut       bool
	busyUntil Time // serialization horizon for rate-limited links
}

// Network is a simulated datagram network: unreliable, unordered (under
// jitter), with per-link latency, loss and scripted cuts. It must only be
// used from scheduler callbacks (the simulation is single-threaded).
type Network struct {
	s        *Scheduler
	handlers map[Addr]Handler
	links    map[linkKey]*linkState
	// Stats
	sent, delivered, dropped, cutDropped int64
}

// NewNetwork creates an empty network on the given scheduler.
func NewNetwork(s *Scheduler) *Network {
	return &Network{
		s:        s,
		handlers: make(map[Addr]Handler),
		links:    make(map[linkKey]*linkState),
	}
}

// Attach registers the packet handler for an endpoint, replacing any
// previous handler.
func (n *Network) Attach(a Addr, h Handler) { n.handlers[a] = h }

// Detach removes an endpoint; packets to it are dropped (a crashed node).
func (n *Network) Detach(a Addr) { delete(n.handlers, a) }

// SetLink configures the link between two endpoints, both directions.
func (n *Network) SetLink(a, b Addr, cfg LinkConfig) {
	n.link(a, b).cfg = cfg
	n.link(b, a).cfg = cfg
}

// SetLinkOneWay configures only the from->to direction, leaving the reverse
// untouched — asymmetric latency, loss or capacity.
func (n *Network) SetLinkOneWay(from, to Addr, cfg LinkConfig) {
	n.link(from, to).cfg = cfg
}

func (n *Network) link(from, to Addr) *linkState {
	k := linkKey{from: from, to: to}
	st, ok := n.links[k]
	if !ok {
		st = &linkState{cfg: DefaultLink}
		n.links[k] = st
	}
	return st
}

// Cut severs the link between two endpoints in both directions: all packets
// are dropped until Heal. This is the simulator's "pull the cable" fault
// injector.
func (n *Network) Cut(a, b Addr) {
	n.link(a, b).cut = true
	n.link(b, a).cut = true
}

// Heal restores a previously cut link.
func (n *Network) Heal(a, b Addr) {
	n.link(a, b).cut = false
	n.link(b, a).cut = false
}

// IsCut reports whether the link between two endpoints is currently cut.
func (n *Network) IsCut(a, b Addr) bool { return n.link(a, b).cut }

// CutNode severs every link touching any endpoint whose node prefix matches
// "node:", simulating a machine power-off at the network level. (Handlers
// stay attached; use Detach to also stop delivery of straggler packets.)
func (n *Network) CutNode(node string) {
	prefix := node + ":"
	for a := range n.handlers {
		for b := range n.handlers {
			if a == b {
				continue
			}
			if hasPrefix(string(a), prefix) != hasPrefix(string(b), prefix) {
				n.Cut(a, b)
			}
		}
	}
}

// HealNode restores every link touching the node's endpoints.
func (n *Network) HealNode(node string) {
	prefix := node + ":"
	for k, st := range n.links {
		if hasPrefix(string(k.from), prefix) || hasPrefix(string(k.to), prefix) {
			st.cut = false
		}
	}
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// Send queues a datagram for delivery with no serialization cost (size 0).
// Delivery (or silent loss) happens via the scheduler according to the link
// config. Sending to an unknown endpoint is a silent drop, like UDP.
func (n *Network) Send(from, to Addr, payload any) {
	n.SendSizedDone(from, to, payload, 0, nil)
}

// SendSizedDone queues a datagram of the given size in bytes; on
// rate-limited links packets serialize back to back at the configured
// capacity before incurring the propagation delay. done (when non-nil) is
// called exactly once when the packet leaves the network — after its handler
// returns, or at the moment it is dropped. Senders whose payloads alias
// reusable buffers use it to know when the network no longer references the
// bytes.
func (n *Network) SendSizedDone(from, to Addr, payload any, size int, done func()) {
	n.sent++
	st := n.link(from, to)
	if st.cut {
		n.cutDropped++
		if done != nil {
			done()
		}
		return
	}
	if st.cfg.Loss > 0 && n.s.Rand().Float64() < st.cfg.Loss {
		n.dropped++
		if done != nil {
			done()
		}
		return
	}
	delay := st.cfg.Delay
	if st.cfg.Jitter > 0 {
		delay += time.Duration(n.s.Rand().Int63n(int64(st.cfg.Jitter)))
	}
	if st.cfg.RateMbps > 0 && size > 0 {
		tx := Time(float64(size*8) / (st.cfg.RateMbps * 1e6) * 1e9)
		start := n.s.Now()
		if st.busyUntil > start {
			start = st.busyUntil
		}
		st.busyUntil = start + tx
		delay += time.Duration(st.busyUntil - n.s.Now())
	}
	pkt := Packet{From: from, To: to, Payload: payload}
	n.s.After(delay, func() {
		if done != nil {
			defer done()
		}
		// Re-check the cut state at delivery time so a cable pulled while
		// the packet was in flight still kills it, and drop packets to
		// detached (crashed) endpoints.
		if n.link(pkt.From, pkt.To).cut {
			n.cutDropped++
			return
		}
		h, ok := n.handlers[pkt.To]
		if !ok {
			n.dropped++
			return
		}
		n.delivered++
		h(pkt)
	})
}

// Stats reports cumulative packet counters: sent, delivered, randomly
// dropped, and dropped due to cut links.
func (n *Network) Stats() (sent, delivered, dropped, cutDropped int64) {
	return n.sent, n.delivered, n.dropped, n.cutDropped
}
