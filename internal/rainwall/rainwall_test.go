package rainwall

import (
	"fmt"
	"testing"
	"time"

	"rain/internal/sim"
)

// zipfLoads is the experiment E20 traffic mix: unequal per-VIP loads make
// perfect balancing impossible at VIP granularity, which is what bends the
// 4-node scaling below 4.0x, as in the paper's 251/67 = 3.75.
var zipfLoads = []float64{100, 70, 50, 30, 20, 15, 10, 5} // total 300 Mbps

func newTestCluster(t *testing.T, gateways int, sticky bool) *Cluster {
	t.Helper()
	s := sim.New(616)
	names := make([]string, gateways)
	for i := range names {
		names[i] = fmt.Sprintf("gw%d", i+1)
	}
	vips := make([]VIP, len(zipfLoads))
	for i := range vips {
		vips[i] = VIP{Name: fmt.Sprintf("vip%d", i)}
		if sticky && i == 0 {
			vips[i].Sticky = true
			vips[i].Preferred = names[0]
		}
	}
	c, err := New(s, sim.NewNetwork(s), names, vips, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range zipfLoads {
		c.SetVIPLoad(fmt.Sprintf("vip%d", i), l)
	}
	return c
}

func TestEveryVIPOwnedByHealthyGateway(t *testing.T) {
	c := newTestCluster(t, 4, false)
	c.S.RunFor(2 * time.Second)
	assign := c.Assignments()
	if len(assign) != len(zipfLoads) {
		t.Fatalf("only %d of %d VIPs assigned", len(assign), len(zipfLoads))
	}
	for vip, owner := range assign {
		if !c.healthy(owner) {
			t.Fatalf("VIP %s owned by unhealthy gateway %s", vip, owner)
		}
	}
}

func TestLoadBalancingConverges(t *testing.T) {
	c := newTestCluster(t, 4, false)
	c.S.RunFor(5 * time.Second)
	// With 300 Mbps over 4 gateways, a balanced split is 75 each; the
	// threshold is 10, and moves happen one VIP per hold, so after 5s the
	// spread should be within the largest single VIP of fair share.
	loads := map[string]float64{}
	for vip, owner := range c.Assignments() {
		loads[owner] += vipLoadOf(vip)
	}
	min, max := 1e18, 0.0
	for _, n := range []string{"gw1", "gw2", "gw3", "gw4"} {
		l := loads[n]
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max-min > 60 {
		t.Fatalf("load spread %v..%v Mbps did not converge: %v", min, max, loads)
	}
}

func vipLoadOf(vip string) float64 {
	var i int
	fmt.Sscanf(vip, "vip%d", &i)
	return zipfLoads[i]
}

// TestThroughputScaling reproduces the §6.3 measurement shape: single
// gateway saturates at its capacity (67 Mbps); four gateways deliver
// roughly 3.5-4x, sub-linear because VIP-granular balancing cannot split
// the heaviest flows (E20).
func TestThroughputScaling(t *testing.T) {
	measure := func(gateways int) float64 {
		c := newTestCluster(t, gateways, false)
		c.S.RunFor(3 * time.Second) // let assignment and balancing settle
		c.StartTraffic()
		c.ResetTrafficStats()
		c.S.RunFor(5 * time.Second)
		return c.ThroughputMbps()
	}
	single := measure(1)
	if single < 60 || single > 67.5 {
		t.Fatalf("single gateway throughput %.1f Mbps, want ~67", single)
	}
	quad := measure(4)
	ratio := quad / single
	if ratio < 3.0 || ratio > 4.01 {
		t.Fatalf("4-node scaling %.2fx (%.1f / %.1f Mbps), want in [3.0, 4.0]", ratio, quad, single)
	}
}

// TestFailoverMovesVIPs: killing a gateway reassigns all of its VIPs to
// survivors within the failure-detection time (E21; the paper reports ~2s
// with production timers).
func TestFailoverMovesVIPs(t *testing.T) {
	c := newTestCluster(t, 4, false)
	c.S.RunFor(3 * time.Second)
	c.StartTraffic()
	c.S.RunFor(time.Second)

	victim := "gw2"
	owned := c.VIPsOwnedBy(victim)
	if len(owned) == 0 {
		t.Fatal("victim owns no VIPs; test needs a loaded gateway")
	}
	killAt := c.S.Now()
	c.KillGateway(victim)
	c.S.RunFor(10 * time.Second)

	lat := c.FailoverLatency(victim, killAt)
	for _, vip := range owned {
		d, ok := lat[vip]
		if !ok {
			t.Fatalf("VIP %s never failed over (assignments %v)", vip, c.Assignments())
		}
		if d > 5*time.Second {
			t.Fatalf("VIP %s took %v to fail over", vip, d)
		}
	}
	// And everything is again owned by healthy gateways.
	for vip, owner := range c.Assignments() {
		if owner == victim {
			t.Fatalf("VIP %s still assigned to dead gateway", vip)
		}
	}
}

// TestTrafficContinuesThroughFailover: processed throughput recovers after
// the fail-over window; only the window's traffic to the victim's VIPs is
// lost ("shifting traffic from failing gateways to functioning ones
// without interrupting existing connections").
func TestTrafficContinuesThroughFailover(t *testing.T) {
	c := newTestCluster(t, 4, false)
	c.S.RunFor(3 * time.Second)
	c.StartTraffic()
	c.S.RunFor(2 * time.Second)
	c.KillGateway("gw3")
	c.S.RunFor(5 * time.Second) // fail over
	c.ResetTrafficStats()
	c.S.RunFor(5 * time.Second)
	after := c.ThroughputMbps()
	// Three healthy gateways with capacity 67 each: the cluster must still
	// process close to 3x single-node capacity.
	if after < 150 {
		t.Fatalf("post-failover throughput %.1f Mbps; cluster did not recover", after)
	}
	if c.DroppedMbits() == 0 {
		t.Fatal("expected some drops: 300 Mbps offered exceeds 3x67 capacity")
	}
}

// TestLocalFailureDetectorTripsGateway: a failed local component (firewall
// software) takes the gateway out of the cluster and migrates its VIPs
// (§6.2).
func TestLocalFailureDetectorTripsGateway(t *testing.T) {
	c := newTestCluster(t, 3, false)
	c.S.RunFor(2 * time.Second)
	c.gateways["gw2"].Detector.FirewallUp = false
	c.S.RunFor(5 * time.Second)
	for vip, owner := range c.Assignments() {
		if owner == "gw2" {
			t.Fatalf("VIP %s still on gateway with failed firewall software", vip)
		}
	}
}

// TestDisabledDetectorComponentIgnored: the administrator may disable a
// local monitoring component (§6.2).
func TestDisabledDetectorComponentIgnored(t *testing.T) {
	d := NewLocalDetector()
	d.RemotePingOK = false
	if d.Healthy() {
		t.Fatal("failed ping must trip the detector")
	}
	d.Disabled["ping"] = true
	if !d.Healthy() {
		t.Fatal("disabled component must be ignored")
	}
}

// TestStickyVIPReturnsAfterRecovery: auto-recovery returns a sticky VIP to
// its preferred gateway once it rejoins (§6.1, §6.4).
func TestStickyVIPReturnsAfterRecovery(t *testing.T) {
	c := newTestCluster(t, 3, true) // vip0 sticky to gw1
	c.S.RunFor(2 * time.Second)
	if got := c.Assignments()["vip0"]; got != "gw1" {
		t.Fatalf("sticky vip0 on %s, want gw1", got)
	}
	c.KillGateway("gw1")
	c.S.RunFor(5 * time.Second)
	if got := c.Assignments()["vip0"]; got == "gw1" {
		t.Fatal("vip0 still on dead gw1")
	}
	c.RecoverGateway("gw1")
	c.S.RunFor(15 * time.Second) // rejoin via 911 + sticky reassignment
	if got := c.Assignments()["vip0"]; got != "gw1" {
		t.Fatalf("sticky vip0 on %s after recovery, want gw1 (auto-recovery)", got)
	}
}

// TestVIPsNeverDisappearWhileOneGatewayLives: kill all but one gateway;
// the survivor hosts every VIP ("the pools of virtual IP addresses are
// always available as long as one machine remains functional").
func TestVIPsNeverDisappear(t *testing.T) {
	c := newTestCluster(t, 3, false)
	c.S.RunFor(2 * time.Second)
	c.KillGateway("gw2")
	c.S.RunFor(4 * time.Second)
	c.KillGateway("gw3")
	c.S.RunFor(8 * time.Second)
	assign := c.Assignments()
	if len(assign) != len(zipfLoads) {
		t.Fatalf("%d of %d VIPs assigned after double failure", len(assign), len(zipfLoads))
	}
	for vip, owner := range assign {
		if owner != "gw1" {
			t.Fatalf("VIP %s on %s, want sole survivor gw1", vip, owner)
		}
	}
}
