// Rainwall (§6): a firewall cluster managing a pool of virtual IPs. Four
// gateways balance 300 Mbps of traffic across eight VIPs; one gateway's
// firewall software fails, its VIPs migrate within the detection time, and
// on recovery a sticky VIP returns home.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"rain/internal/rainwall"
	"rain/internal/sim"
)

func main() {
	s := sim.New(7)
	net := sim.NewNetwork(s)
	gateways := []string{"gw1", "gw2", "gw3", "gw4"}
	loads := []float64{110, 72, 40, 30, 20, 12, 10, 6} // Mbps per VIP
	vips := make([]rainwall.VIP, len(loads))
	for i := range vips {
		vips[i] = rainwall.VIP{Name: fmt.Sprintf("vip%d", i)}
	}
	vips[2].Sticky, vips[2].Preferred = true, "gw3" // pin vip2 to gw3

	c, err := rainwall.New(s, net, gateways, vips, rainwall.Config{})
	if err != nil {
		log.Fatal(err)
	}
	for i, l := range loads {
		c.SetVIPLoad(fmt.Sprintf("vip%d", i), l)
	}
	s.RunFor(3 * time.Second) // membership + balancing settle
	c.StartTraffic()
	s.RunFor(3 * time.Second)

	show := func(label string) {
		fmt.Println(label)
		byGW := map[string][]string{}
		for vip, gw := range c.Assignments() {
			byGW[gw] = append(byGW[gw], vip)
		}
		for _, gw := range gateways {
			vipList := byGW[gw]
			sort.Strings(vipList)
			fmt.Printf("  %-5s %v\n", gw, vipList)
		}
		fmt.Printf("  cluster throughput: %.1f Mbps\n", c.ThroughputMbps())
	}
	show("steady state:")

	fmt.Println("\n[fault] gw2's firewall software fails")
	c.KillGateway("gw2")
	killAt := s.Now()
	s.RunFor(5 * time.Second)
	show("after fail-over:")
	for vip, d := range c.FailoverLatency("gw2", killAt) {
		fmt.Printf("  %s migrated in %v\n", vip, d)
	}

	fmt.Println("\n[recovery] gw2 rejoins the cluster")
	c.RecoverGateway("gw2")
	s.RunFor(15 * time.Second)
	show("after recovery (sticky vip2 back on gw3, load rebalanced):")
}
