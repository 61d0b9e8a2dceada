// Package membership implements the RAIN token-based group membership
// protocol of §3: nodes ordered in a logical ring pass a single token that
// carries the authoritative membership list and a sequence number. The
// protocol is unicast-only, never freezes the system during reconfiguration,
// and tolerates node and link failures, both permanent and transient.
//
// Two cooperating mechanisms:
//
//   - Token mechanism (§3.2). The token circulates the ring at a regular
//     interval; receiving it updates the local membership view; failing to
//     pass it detects failures. Aggressive detection (§3.2.1) excludes the
//     unreachable successor immediately; conservative detection (§3.2.2)
//     first reorders the ring and excludes only after the token has failed
//     to reach the node twice in a row.
//
//   - 911 mechanism (§3.3). A node that has not seen the token for the
//     STARVING timeout requests the right to regenerate it. The request
//     carries the sequence number of the requester's last token copy and is
//     denied by any node holding a more recent copy, so exactly one node —
//     the one with the latest copy — can regenerate a lost token. The same
//     message doubles as the join request for new nodes, for rejoining after
//     transient failures, and for correcting wrong exclusions.
//
// Applications may attach state to the token (§3.3.3, used by SNOW for its
// HTTP request queue and by Rainwall for VIP assignment) via the OnHold
// hook.
//
// Node is a pure state machine: inputs are messages, clock ticks and
// transport delivery reports. MeshNode is the one driver, over RUDP — the
// simulated mesh (MeshCluster: the Fig 9 tests, SNOW, Rainwall,
// core.Platform) or UDP sockets (core.RealNode). RUDP's own ack is the only
// one under the ring: a message is one reliable datagram, and its delivery
// report (rudp.Endpoint.SendNotify) decides whether a token pass failed.
package membership

import (
	"fmt"
	"sort"
	"time"
)

// Detection selects the failure-detection variant of §3.2.
type Detection int

// Detection protocols.
const (
	// Aggressive removes an unreachable successor from the membership
	// immediately (fast detection, may wrongly exclude partially
	// disconnected nodes; they rejoin via 911).
	Aggressive Detection = iota
	// Conservative reorders the ring on first failure and removes a node
	// only after the token failed to reach it twice in a row.
	Conservative
)

func (d Detection) String() string {
	if d == Aggressive {
		return "aggressive"
	}
	return "conservative"
}

// Token is the single circulating message carrying authoritative membership.
type Token struct {
	// Seq increases by one on every hop; receivers discard tokens older
	// than their local copy, and 911 arbitration compares local copies.
	Seq uint64
	// Ring is the membership in ring order.
	Ring []string
	// Failures counts consecutive failed deliveries per node
	// (conservative detection removes a node at 2).
	Failures map[string]int
	// Payload is opaque application state attached to the token (§3.3.3).
	Payload []byte
}

// clone deep-copies a token so every node owns its local copy.
func (t *Token) clone() *Token {
	cp := &Token{Seq: t.Seq, Ring: append([]string(nil), t.Ring...)}
	if t.Failures != nil {
		cp.Failures = make(map[string]int, len(t.Failures))
		for k, v := range t.Failures {
			cp.Failures[k] = v
		}
	}
	if t.Payload != nil {
		cp.Payload = append([]byte(nil), t.Payload...)
	}
	return cp
}

// Nine11 is the 911 message: token-regeneration request, join request and
// rejoin request in one (§3.3).
type Nine11 struct {
	Requester string
	// ReqSeq is the sequence number of the requester's last token copy.
	ReqSeq uint64
	// Visited lists nodes that have approved so far (including the
	// requester itself).
	Visited []string
	// Failed lists nodes found unreachable while circulating the request;
	// they are dropped from the regenerated membership.
	Failed []string
}

// Approve911 grants the requester the right to regenerate the token.
type Approve911 struct {
	ReqSeq uint64
	Failed []string
}

// Probe is a low-frequency reconciliation message sent to known peers that
// are absent from the current ring. False detections under heavy loss can
// split a cluster into several self-sufficient rings, each with its own
// token; the paper's 911 path only reunites nodes that starve. Probes
// implement §3.3.3's promise that "wrong decisions made in a local failure
// detector can also be corrected": the side whose token copy has the lower
// sequence number (ties broken by name) joins the other side's ring.
type Probe struct {
	From string
	Seq  uint64
}

// Transport delivers protocol messages with a delivery report: done(true)
// once the peer's transport acknowledged the message, done(false) once the
// transport gave up on it — the "fails to send the token" signal that drives
// failure detection.
type Transport interface {
	Send(to string, msg any, done func(ok bool))
}

// Config parameterises a membership node.
type Config struct {
	// Detection selects aggressive or conservative failure handling.
	Detection Detection
	// HoldInterval is how long a node holds the token before passing it on
	// ("passed at a regular interval from one node to the next").
	HoldInterval time.Duration
	// StarveTimeout is how long without seeing the token before entering
	// STARVING mode and sending a 911.
	StarveTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.HoldInterval == 0 {
		c.HoldInterval = 20 * time.Millisecond
	}
	if c.StarveTimeout == 0 {
		c.StarveTimeout = 1 * time.Second
	}
	return c
}

// Node is one member's protocol engine. Drive it with HandleMessage and
// Tick from a single goroutine or the simulator.
type Node struct {
	name string
	cfg  Config
	tr   Transport

	ring     []string // local membership view, ring order
	localSeq uint64   // seq of the last token copy seen
	local    *Token   // last token copy

	hasToken     bool
	holdSince    int64
	sending      bool // a pass is in flight awaiting ack
	lastSeen     int64
	last911      int64
	starving     bool
	pendingJoins []string

	// knownPeers records every node ever seen in a membership view; the
	// reconciliation probe (see Probe) targets known peers absent from
	// the current ring.
	knownPeers map[string]bool
	lastProbe  int64
	probeNext  int // round-robin cursor over absent peers

	// stats & hooks
	tokenVisits   uint64
	regenerations uint64
	onChange      func([]string)
	onHold        func(*Token)
}

// NewNode builds a membership engine. ring is the initial membership in
// ring order; name must appear in it (or be absent for a joining node:
// see Join).
func NewNode(name string, ring []string, cfg Config, tr Transport) *Node {
	n := &Node{
		name:       name,
		cfg:        cfg.withDefaults(),
		tr:         tr,
		ring:       append([]string(nil), ring...),
		knownPeers: make(map[string]bool),
	}
	for _, p := range ring {
		if p != name {
			n.knownPeers[p] = true
		}
	}
	return n
}

// Name returns the node's identity.
func (n *Node) Name() string { return n.name }

// View returns the node's current membership view in ring order.
func (n *Node) View() []string { return append([]string(nil), n.ring...) }

// InView reports whether peer is in the node's current view, without the
// copy View makes.
func (n *Node) InView(peer string) bool {
	for _, p := range n.ring {
		if p == peer {
			return true
		}
	}
	return false
}

// Leader returns the smallest name in the node's current view ("" for an
// empty ring), scanning the ring in place. Every member that holds the same
// view names the same leader, so leadership needs no protocol of its own.
func (n *Node) Leader() string {
	leader := ""
	for _, p := range n.ring {
		if leader == "" || p < leader {
			leader = p
		}
	}
	return leader
}

// HasToken reports whether this node currently holds the token.
func (n *Node) HasToken() bool { return n.hasToken }

// LocalSeq returns the sequence number of the node's last token copy.
func (n *Node) LocalSeq() uint64 { return n.localSeq }

// TokenVisits counts how many times the token has visited this node.
func (n *Node) TokenVisits() uint64 { return n.tokenVisits }

// Regenerations counts tokens this node regenerated via the 911 mechanism.
func (n *Node) Regenerations() uint64 { return n.regenerations }

// Starving reports whether the node is currently in STARVING mode: it has
// not seen the token for StarveTimeout, so its view may be stale.
func (n *Node) Starving() bool { return n.starving }

// resume re-reads the starve clock after the engine was frozen (a crash, then
// a process resume). A node frozen past StarveTimeout has not seen the token
// for that long, so it starves from the moment it runs again: before its
// first tick, and before it passes on a token copy it held when it froze.
func (n *Node) resume(now int64) {
	if now-n.lastSeen > int64(n.cfg.StarveTimeout) {
		n.starving = true
	}
}

// OnMembershipChange registers a hook called with the new view whenever the
// local membership view changes.
func (n *Node) OnMembershipChange(fn func([]string)) { n.onChange = fn }

// OnHold registers a hook invoked each time the node receives the token,
// before forwarding; the application may read and mutate the token payload
// (the SNOW HTTP queue and Rainwall VIP map ride here).
func (n *Node) OnHold(fn func(*Token)) { n.onHold = fn }

// StartWithToken makes this node the initial token holder at time now;
// call on exactly one node of a fresh cluster.
func (n *Node) StartWithToken(now int64) {
	tok := &Token{Seq: 1, Ring: append([]string(nil), n.ring...), Failures: map[string]int{}}
	n.acceptToken(tok, now)
}

func (n *Node) setRing(ring []string) {
	changed := len(ring) != len(n.ring)
	if !changed {
		for i := range ring {
			if ring[i] != n.ring[i] {
				changed = true
				break
			}
		}
	}
	n.ring = append(n.ring[:0], ring...)
	for _, p := range ring {
		if p != n.name {
			n.knownPeers[p] = true
		}
	}
	if changed && n.onChange != nil {
		n.onChange(n.View())
	}
}

// acceptToken installs a received or regenerated token as held.
func (n *Node) acceptToken(tok *Token, now int64) {
	n.local = tok.clone()
	n.localSeq = tok.Seq
	n.hasToken = true
	n.sending = false
	n.holdSince = now
	n.lastSeen = now
	n.starving = false
	n.tokenVisits++
	n.setRing(tok.Ring)
	// Splice in any pending joiners right after this node so the token
	// reaches them next ("adds the new node to the membership and sends
	// the token to the new node").
	for _, j := range n.pendingJoins {
		if indexOf(n.local.Ring, j) >= 0 {
			continue
		}
		self := indexOf(n.local.Ring, n.name)
		rest := append([]string(nil), n.local.Ring[self+1:]...)
		n.local.Ring = append(append(n.local.Ring[:self+1], j), rest...)
	}
	if len(n.pendingJoins) > 0 {
		n.pendingJoins = n.pendingJoins[:0]
		n.setRing(n.local.Ring)
	}
	if n.onHold != nil {
		n.onHold(n.local)
	}
}

// HandleMessage processes a protocol message delivered by the transport.
func (n *Node) HandleMessage(from string, msg any, now int64) {
	switch m := msg.(type) {
	case *Token:
		n.handleToken(m, now)
	case *Nine11:
		n.handle911(m, now)
	case *Approve911:
		n.handleApprove(m, now)
	case *Probe:
		n.handleProbe(m, now)
	default:
		panic(fmt.Sprintf("membership: unknown message %T", msg))
	}
}

// handleProbe reconciles split rings: the side holding the older token copy
// joins the other (ties broken by name).
func (n *Node) handleProbe(msg *Probe, now int64) {
	if indexOf(n.ring, msg.From) >= 0 {
		return // already in our ring: nothing to reconcile
	}
	if msg.Seq < n.localSeq || (msg.Seq == n.localSeq && msg.From < n.name) {
		// The prober's cluster is behind ours: absorb it as a joiner.
		if indexOf(n.pendingJoins, msg.From) < 0 {
			n.pendingJoins = append(n.pendingJoins, msg.From)
		}
		return
	}
	// We are behind: ask the prober's side to absorb us.
	n.tr.Send(msg.From, &Probe{From: n.name, Seq: n.localSeq}, func(bool) {})
}

func (n *Node) handleToken(tok *Token, now int64) {
	// Discard out-of-sequence tokens (§3.3.1): stale duplicates or a
	// superseded token after regeneration.
	if tok.Seq <= n.localSeq {
		return
	}
	if n.hasToken {
		// A newer token supersedes whatever we hold.
		n.hasToken = false
	}
	n.acceptToken(tok, now)
}

// successor returns the next ring member after `after`, skipping the given
// set, or "" when none remains.
func successor(ring []string, after string, skip map[string]bool) string {
	i := indexOf(ring, after)
	if i < 0 {
		if len(ring) == 0 {
			return ""
		}
		i = len(ring) - 1 // treat unknown as end of ring
	}
	for off := 1; off <= len(ring); off++ {
		cand := ring[(i+off)%len(ring)]
		if cand == after || skip[cand] {
			continue
		}
		return cand
	}
	return ""
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}

// Tick advances timers. Call it at least every HoldInterval.
func (n *Node) Tick(now int64) {
	if n.hasToken && !n.sending && now-n.holdSince >= int64(n.cfg.HoldInterval) {
		n.passToken(now)
		return
	}
	if !n.hasToken && now-n.lastSeen > int64(n.cfg.StarveTimeout) {
		if now-n.last911 > int64(n.cfg.StarveTimeout) {
			n.starving = true
			n.last911 = now
			n.send911(now)
		}
	}
	// Reconciliation probing: a healthy member occasionally pings one known
	// peer that is absent from its ring, so falsely split rings merge.
	if !n.starving && n.localSeq > 0 && now-n.lastProbe > 2*int64(n.cfg.StarveTimeout) {
		var absent []string
		for p := range n.knownPeers {
			if indexOf(n.ring, p) < 0 {
				absent = append(absent, p)
			}
		}
		if len(absent) > 0 {
			sort.Strings(absent)
			n.lastProbe = now
			target := absent[n.probeNext%len(absent)]
			n.probeNext++
			n.tr.Send(target, &Probe{From: n.name, Seq: n.localSeq}, func(bool) {})
		}
	}
}

// passToken increments the sequence number and attempts delivery to the
// successor, applying the configured failure-detection protocol on failed
// sends.
func (n *Node) passToken(now int64) {
	if len(n.local.Ring) <= 1 {
		// Sole member: the token conceptually cycles back to us. Bump the
		// sequence and re-accept so hold hooks still fire and pending
		// joiners are admitted.
		n.local.Seq++
		n.acceptToken(n.local, now)
		return
	}
	n.local.Seq++
	n.localSeq = n.local.Seq
	n.sending = true
	n.attemptPass(now, map[string]bool{})
}

func (n *Node) attemptPass(now int64, skip map[string]bool) {
	next := successor(n.local.Ring, n.name, skip)
	if next == "" {
		// Nobody reachable: hold on to the token.
		n.sending = false
		n.holdSince = now
		return
	}
	tok := n.local.clone()
	n.tr.Send(next, tok, func(ok bool) {
		if !n.sending {
			return // superseded (e.g. a newer token arrived meanwhile)
		}
		if ok {
			if n.local.Failures != nil {
				delete(n.local.Failures, next)
			}
			n.sending = false
			n.hasToken = false
			n.lastSeen = now
			return
		}
		n.failedDelivery(next, now, skip)
	})
}

// failedDelivery applies §3.2.1/§3.2.2 when the successor is unreachable.
func (n *Node) failedDelivery(next string, now int64, skip map[string]bool) {
	switch n.cfg.Detection {
	case Aggressive:
		// Remove immediately; the 911 mechanism will bring it back if it
		// was merely disconnected from us.
		n.local.Ring = remove(n.local.Ring, next)
		n.setRing(n.local.Ring)
	case Conservative:
		if n.local.Failures == nil {
			n.local.Failures = map[string]int{}
		}
		n.local.Failures[next]++
		if n.local.Failures[next] >= 2 {
			// Failed twice in a row: now remove it.
			n.local.Ring = remove(n.local.Ring, next)
			delete(n.local.Failures, next)
			n.setRing(n.local.Ring)
		} else {
			// First failure: reorder the ring so the token detours
			// (ABCD -> ACBD when A cannot reach B) and reaches the
			// node from a different neighbour.
			n.local.Ring = reorderAfterNext(n.local.Ring, n.name, next)
			n.setRing(n.local.Ring)
			skip[next] = true
		}
	}
	n.attemptPass(now, skip)
}

// remove drops s from ring, preserving order.
func remove(ring []string, s string) []string {
	out := ring[:0]
	for _, v := range ring {
		if v != s {
			out = append(out, v)
		}
	}
	return out
}

// reorderAfterNext moves `failed` one position later in the ring: with ring
// ABCD and A failing to reach B, the result is ACBD.
func reorderAfterNext(ring []string, holder, failed string) []string {
	i := indexOf(ring, failed)
	if i < 0 || len(ring) < 3 {
		return ring
	}
	j := (i + 1) % len(ring)
	out := append([]string(nil), ring...)
	out[i], out[j] = out[j], out[i]
	return out
}

// send911 initiates the 911 circulation to our successor (§3.3).
func (n *Node) send911(now int64) {
	msg := &Nine11{
		Requester: n.name,
		ReqSeq:    n.localSeq,
		Visited:   []string{n.name},
	}
	n.forward911(msg, now)
}

// forward911 sends a 911 to the next unvisited member, accumulating
// unreachable nodes in msg.Failed; when everyone reachable has approved the
// requester receives an Approve911.
func (n *Node) forward911(msg *Nine11, now int64) {
	skip := map[string]bool{}
	for _, v := range msg.Visited {
		skip[v] = true
	}
	for _, f := range msg.Failed {
		skip[f] = true
	}
	var try func()
	try = func() {
		next := successor(n.ring, n.name, skip)
		if next == "" || next == msg.Requester {
			// Full circle: everyone reachable has approved.
			if msg.Requester == n.name {
				n.approved(&Approve911{ReqSeq: msg.ReqSeq, Failed: msg.Failed}, now)
				return
			}
			n.tr.Send(msg.Requester, &Approve911{ReqSeq: msg.ReqSeq, Failed: msg.Failed}, func(bool) {})
			return
		}
		n.tr.Send(next, msg, func(ok bool) {
			if ok {
				return
			}
			msg.Failed = append(msg.Failed, next)
			skip[next] = true
			try()
		})
	}
	try()
}

// handle911 processes a received 911: join request if the requester is not
// a member, otherwise a regeneration request to approve or deny.
func (n *Node) handle911(msg *Nine11, now int64) {
	if indexOf(n.ring, msg.Requester) < 0 {
		// Join request (§3.3.2) — also how wrongly excluded or recovered
		// nodes rejoin (§3.3.3).
		if indexOf(n.pendingJoins, msg.Requester) < 0 {
			n.pendingJoins = append(n.pendingJoins, msg.Requester)
		}
		return
	}
	if n.localSeq > msg.ReqSeq || n.hasToken {
		// We hold a more recent copy (or the token itself): deny by
		// dropping. The requester keeps starving and will retry; when the
		// live token reaches it, starvation ends.
		return
	}
	msg.Visited = append(msg.Visited, n.name)
	n.forward911(msg, now)
}

// handleApprove completes regeneration at the requester.
func (n *Node) handleApprove(msg *Approve911, now int64) {
	n.approved(msg, now)
}

func (n *Node) approved(msg *Approve911, now int64) {
	if !n.starving || msg.ReqSeq != n.localSeq {
		return // stale approval (token has since arrived)
	}
	if n.localSeq == 0 {
		// A node that has never held a token copy (a joiner waiting for
		// admission) must not mint a cluster of its own.
		return
	}
	ring := append([]string(nil), n.ring...)
	for _, f := range msg.Failed {
		ring = remove(ring, f)
	}
	if indexOf(ring, n.name) < 0 {
		ring = append(ring, n.name)
	}
	tok := &Token{Seq: n.localSeq + 1, Ring: ring, Failures: map[string]int{}}
	if n.local != nil {
		tok.Payload = append([]byte(nil), n.local.Payload...)
	}
	n.regenerations++
	n.acceptToken(tok, now)
}

// Join makes a non-member node request membership through any existing
// member (§3.3.2).
func (n *Node) Join(seed string, now int64) {
	msg := &Nine11{Requester: n.name, ReqSeq: 0, Visited: []string{n.name}}
	n.last911 = now
	n.starving = true
	n.tr.Send(seed, msg, func(ok bool) {})
}
