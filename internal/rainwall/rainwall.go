// Package rainwall reproduces Rainwall (§6), Rainfinity's firewall
// clustering product built on the RAIN technology: a pool of virtual IP
// addresses is kept owned by exactly one healthy gateway at all times, load
// is balanced by moving VIPs between gateways, and gateway failures move
// their VIPs to survivors without interrupting the remaining traffic.
//
// The §3 group membership protocol is the foundation (§6.1): the VIP
// assignment map and per-gateway load report ride on the membership token,
// so every gateway shares a consistent view. Load balancing follows the
// paper's "load request" rule — an under-loaded gateway pulls VIPs from the
// most-loaded one while it holds the token, which avoids the "hot potato"
// effect of overloaded machines dumping load (§6.3). VIPs may be sticky
// (pinned to a preferred gateway while it is healthy, §6.4).
//
// Traffic is modelled by a closed-loop generator: each VIP carries a
// configured offered load in Mbps; every accounting tick the owning
// gateway processes up to its capacity and the rest (or traffic to
// unowned VIPs during a fail-over window) is dropped. Experiment E20
// reproduces the paper's 67 -> 251 Mbps single-node to 4-node scaling
// shape; E21 measures fail-over time.
package rainwall

import (
	"encoding/json"
	"sort"
	"time"

	"rain/internal/membership"
	"rain/internal/sim"
)

// VIP is one virtual IP address in the managed pool.
type VIP struct {
	Name string
	// Sticky pins the VIP to Preferred while that gateway is healthy.
	Sticky    bool
	Preferred string
}

// State is the cluster state attached to the membership token.
type State struct {
	// Assign maps VIP name to owning gateway.
	Assign map[string]string `json:"assign"`
	// Load is the most recent per-gateway offered load report in Mbps.
	Load map[string]float64 `json:"load"`
}

// FailoverEvent records one VIP ownership change.
type FailoverEvent struct {
	At   sim.Time
	VIP  string
	From string // "" when first assigned
	To   string
}

// Config parameterises a Rainwall cluster.
type Config struct {
	// Membership configures the underlying token protocol.
	Membership membership.Config
	// GatewayCapacityMbps is each gateway's processing capacity; the
	// paper's testbed measured 67 Mbps per node (§6.3).
	GatewayCapacityMbps float64
	// RebalanceThresholdMbps is the load difference that triggers a VIP
	// pull by an under-loaded gateway.
	RebalanceThresholdMbps float64
	// TrafficTick is the traffic accounting granularity.
	TrafficTick time.Duration
}

func (c Config) withDefaults() Config {
	if c.GatewayCapacityMbps == 0 {
		c.GatewayCapacityMbps = 67
	}
	if c.RebalanceThresholdMbps == 0 {
		c.RebalanceThresholdMbps = 10
	}
	if c.TrafficTick == 0 {
		c.TrafficTick = 10 * time.Millisecond
	}
	return c
}

// LocalDetector models §6.2's local failure detector: the NIC link state,
// the firewall software health, and reachability of a remote ping target.
// Any failed component brings the whole gateway down (unless that component
// check is disabled by the administrator).
type LocalDetector struct {
	NICUp        bool
	FirewallUp   bool
	RemotePingOK bool
	// Disabled components are ignored by Healthy.
	Disabled map[string]bool
}

// NewLocalDetector returns a detector with all components healthy.
func NewLocalDetector() *LocalDetector {
	return &LocalDetector{NICUp: true, FirewallUp: true, RemotePingOK: true, Disabled: map[string]bool{}}
}

// Healthy reports whether every enabled component is functioning.
func (d *LocalDetector) Healthy() bool {
	if !d.NICUp && !d.Disabled["nic"] {
		return false
	}
	if !d.FirewallUp && !d.Disabled["firewall"] {
		return false
	}
	if !d.RemotePingOK && !d.Disabled["ping"] {
		return false
	}
	return true
}

// Gateway is one firewall node.
type Gateway struct {
	name     string
	Detector *LocalDetector
}

// Name returns the gateway's identity.
func (g *Gateway) Name() string { return g.name }

// Cluster is a running Rainwall deployment over the simulated network.
type Cluster struct {
	S   *sim.Scheduler
	M   *membership.Cluster
	cfg Config

	gateways map[string]*Gateway
	order    []string
	vips     map[string]*VIP
	vipOrder []string
	vipLoad  map[string]float64 // offered Mbps per VIP

	curAssign map[string]string
	killed    map[string]bool

	processed map[string]float64 // Mbits processed per gateway
	dropped   float64            // Mbits dropped (unowned VIP or over capacity)
	trafficAt sim.Time           // traffic start time
	events    []FailoverEvent
}

// New builds a Rainwall cluster with the given gateways and VIP pool.
func New(s *sim.Scheduler, net *sim.Network, gateways []string, vips []VIP, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		S:         s,
		M:         membership.NewCluster(s, net, gateways, cfg.Membership),
		cfg:       cfg,
		gateways:  make(map[string]*Gateway),
		order:     append([]string(nil), gateways...),
		vips:      make(map[string]*VIP),
		vipLoad:   make(map[string]float64),
		curAssign: make(map[string]string),
		killed:    make(map[string]bool),
		processed: make(map[string]float64),
	}
	for _, name := range gateways {
		g := &Gateway{name: name, Detector: NewLocalDetector()}
		c.gateways[name] = g
		name := name
		c.M.Members[name].OnHold(func(tok *membership.Token) { c.onHold(name, tok) })
	}
	for i := range vips {
		v := vips[i]
		c.vips[v.Name] = &v
		c.vipOrder = append(c.vipOrder, v.Name)
	}
	// Local failure detectors are polled periodically; a tripped detector
	// takes the gateway out of the cluster (§6.2).
	var poll func()
	poll = func() {
		for _, name := range c.order {
			if !c.killed[name] && !c.gateways[name].Detector.Healthy() {
				c.KillGateway(name)
			}
		}
		s.After(50*time.Millisecond, poll)
	}
	s.After(0, poll)
	return c
}

// SetVIPLoad sets the offered load in Mbps for one VIP.
func (c *Cluster) SetVIPLoad(vip string, mbps float64) { c.vipLoad[vip] = mbps }

// Assignments returns the current VIP ownership map.
func (c *Cluster) Assignments() map[string]string {
	out := make(map[string]string, len(c.curAssign))
	for k, v := range c.curAssign {
		out[k] = v
	}
	return out
}

// Events returns all recorded ownership changes in order.
func (c *Cluster) Events() []FailoverEvent { return append([]FailoverEvent(nil), c.events...) }

// KillGateway crashes a gateway (cluster failure detection will migrate its
// VIPs).
func (c *Cluster) KillGateway(name string) {
	c.killed[name] = true
	c.M.Stop(name)
}

// RecoverGateway brings a crashed gateway back; it rejoins via the 911
// mechanism and sticky VIPs return to it ("auto-recovery", §6.1).
func (c *Cluster) RecoverGateway(name string) {
	c.killed[name] = false
	d := c.gateways[name].Detector
	d.NICUp, d.FirewallUp, d.RemotePingOK = true, true, true
	c.M.Restart(name)
}

// healthy reports whether a gateway is a live cluster member.
func (c *Cluster) healthy(name string) bool {
	_, known := c.gateways[name]
	return known && !c.killed[name]
}

// onHold runs whenever gateway g holds the membership token: prune dead
// owners, honour stickiness, assign orphaned VIPs, and pull load if g is
// under-loaded.
func (c *Cluster) onHold(g string, tok *membership.Token) {
	var st State
	if len(tok.Payload) > 0 {
		_ = json.Unmarshal(tok.Payload, &st)
	}
	if st.Assign == nil {
		st.Assign = map[string]string{}
	}
	if st.Load == nil {
		st.Load = map[string]float64{}
	}
	inRing := map[string]bool{}
	for _, m := range tok.Ring {
		inRing[m] = true
	}
	// Refresh load reports from current assignment and offered loads.
	gwLoad := func(name string) float64 {
		total := 0.0
		for vip, owner := range st.Assign {
			if owner == name {
				total += c.vipLoad[vip]
			}
		}
		return total
	}
	// 1. Find VIPs whose owner left the membership (kept in the map until
	// reassignment so the fail-over event records who they came from).
	orphaned := map[string]bool{}
	for _, vip := range c.vipOrder {
		if owner, ok := st.Assign[vip]; ok && !inRing[owner] {
			orphaned[vip] = true
		}
	}
	// 2. Sticky VIPs return to their preferred gateway when it is in the
	// ring.
	for _, vipName := range c.vipOrder {
		v := c.vips[vipName]
		if v.Sticky && v.Preferred != "" && inRing[v.Preferred] && st.Assign[vipName] != v.Preferred {
			c.assign(&st, vipName, v.Preferred)
			delete(orphaned, vipName)
		}
	}
	// 3. Unassigned and orphaned VIPs go to the least-loaded ring member.
	for _, vipName := range c.vipOrder {
		if _, ok := st.Assign[vipName]; ok && !orphaned[vipName] {
			continue
		}
		best := ""
		for _, m := range tok.Ring {
			if best == "" || gwLoad(m) < gwLoad(best) {
				best = m
			}
		}
		if best != "" {
			c.assign(&st, vipName, best)
			delete(orphaned, vipName)
		}
	}
	// 4. Load request (§6.3): while holding the token, an under-loaded
	// gateway pulls one movable VIP from the most-loaded gateway.
	myLoad := gwLoad(g)
	heavy, heavyLoad := "", myLoad
	for _, m := range tok.Ring {
		if l := gwLoad(m); l > heavyLoad {
			heavy, heavyLoad = m, l
		}
	}
	if heavy != "" && heavy != g && heavyLoad-myLoad > c.cfg.RebalanceThresholdMbps {
		// Pick the movable VIP whose transfer best narrows the gap
		// without overshooting into a reverse imbalance.
		bestVIP, bestGap := "", heavyLoad-myLoad
		for _, vipName := range c.vipOrder {
			v := c.vips[vipName]
			if st.Assign[vipName] != heavy || (v.Sticky && inRing[v.Preferred]) {
				continue
			}
			l := c.vipLoad[vipName]
			gap := (heavyLoad - l) - (myLoad + l)
			if gap < 0 {
				gap = -gap
			}
			if gap < bestGap {
				bestVIP, bestGap = vipName, gap
			}
		}
		if bestVIP != "" {
			c.assign(&st, bestVIP, g)
		}
	}
	// 5. Publish load report and write the state back onto the token.
	for _, m := range tok.Ring {
		st.Load[m] = gwLoad(m)
	}
	if payload, err := json.Marshal(st); err == nil {
		tok.Payload = payload
	}
	// Mirror the authoritative assignment for the traffic engine.
	for vip, owner := range st.Assign {
		c.curAssign[vip] = owner
	}
	for vip := range c.curAssign {
		if _, ok := st.Assign[vip]; !ok {
			delete(c.curAssign, vip)
		}
	}
}

func (c *Cluster) assign(st *State, vip, to string) {
	from := st.Assign[vip]
	if from == to {
		return
	}
	st.Assign[vip] = to
	c.events = append(c.events, FailoverEvent{At: c.S.Now(), VIP: vip, From: from, To: to})
}

// StartTraffic begins the closed-loop traffic generator. Call once.
func (c *Cluster) StartTraffic() {
	c.trafficAt = c.S.Now()
	dt := c.cfg.TrafficTick.Seconds()
	var tick func()
	tick = func() {
		offered := map[string]float64{}
		for _, vipName := range c.vipOrder {
			mbits := c.vipLoad[vipName] * dt
			owner, ok := c.curAssign[vipName]
			if !ok || !c.healthy(owner) {
				c.dropped += mbits
				continue
			}
			offered[owner] += mbits
		}
		capPerTick := c.cfg.GatewayCapacityMbps * dt
		for gw, mbits := range offered {
			if mbits > capPerTick {
				c.dropped += mbits - capPerTick
				mbits = capPerTick
			}
			c.processed[gw] += mbits
		}
		c.S.After(c.cfg.TrafficTick, tick)
	}
	c.S.After(0, tick)
}

// ThroughputMbps returns the aggregate processed throughput since
// StartTraffic.
func (c *Cluster) ThroughputMbps() float64 {
	elapsed := time.Duration(c.S.Now() - c.trafficAt).Seconds()
	if elapsed <= 0 {
		return 0
	}
	total := 0.0
	for _, m := range c.processed {
		total += m
	}
	return total / elapsed
}

// DroppedMbits returns the traffic dropped so far (fail-over windows and
// over-capacity).
func (c *Cluster) DroppedMbits() float64 { return c.dropped }

// ResetTrafficStats zeroes the traffic counters and restarts the
// measurement window (the generator keeps running).
func (c *Cluster) ResetTrafficStats() {
	c.processed = make(map[string]float64)
	c.dropped = 0
	c.trafficAt = c.S.Now()
}

// VIPsOwnedBy lists the VIPs currently assigned to a gateway, sorted.
func (c *Cluster) VIPsOwnedBy(gw string) []string {
	var out []string
	for vip, owner := range c.curAssign {
		if owner == gw {
			out = append(out, vip)
		}
	}
	sort.Strings(out)
	return out
}

// FailoverLatency returns, for each VIP owned by `victim` at kill time, the
// delay between killTime and its reassignment. Missing entries mean the VIP
// has not yet failed over.
func (c *Cluster) FailoverLatency(victim string, killTime sim.Time) map[string]time.Duration {
	owned := map[string]bool{}
	// Reconstruct ownership at kill time from the event history.
	hist := map[string]string{}
	for _, e := range c.events {
		if e.At <= killTime {
			hist[e.VIP] = e.To
		}
	}
	for vip, owner := range hist {
		if owner == victim {
			owned[vip] = true
		}
	}
	out := map[string]time.Duration{}
	for _, e := range c.events {
		if e.At > killTime && owned[e.VIP] && e.From == victim {
			if _, seen := out[e.VIP]; !seen {
				out[e.VIP] = time.Duration(e.At - killTime)
			}
		}
	}
	return out
}
