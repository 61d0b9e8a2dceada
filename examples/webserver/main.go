// SNOW (§5.2): a strong network of web servers. Client requests land on
// any server; the HTTP queue rides the membership token, so exactly one
// server replies to each request — even while a server is killed mid-run.
package main

import (
	"fmt"
	"log"
	"time"

	"rain/internal/membership"
	"rain/internal/sim"
	"rain/internal/snow"
)

func main() {
	s := sim.New(2024)
	net := sim.NewNetwork(s)
	names := []string{"web1", "web2", "web3", "web4"}
	cluster, err := snow.New(s, net, names, snow.Config{
		Membership: membership.Config{Detection: membership.Aggressive},
		MaxPerHold: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	s.RunFor(500 * time.Millisecond) // ring settles

	fmt.Println("submitting 120 requests round-robin across the 4 servers...")
	for i := 0; i < 120; i++ {
		cluster.Submit(names[i%len(names)], fmt.Sprintf("GET /page/%03d", i))
	}

	// Kill a server that is not holding the token: its queued work is
	// already on the token and is served by the survivors.
	s.RunFor(300 * time.Millisecond)
	for _, n := range names {
		if !cluster.M.Members[n].HasToken() {
			fmt.Println("killing", n, "mid-run")
			cluster.Stop(n)
			break
		}
	}
	s.RunFor(10 * time.Second)

	replies := cluster.Replies()
	exactlyOnce, duplicates, unserved := 0, 0, 0
	for i := 0; i < 120; i++ {
		switch len(replies[fmt.Sprintf("GET /page/%03d", i)]) {
		case 0:
			unserved++
		case 1:
			exactlyOnce++
		default:
			duplicates++
		}
	}
	fmt.Printf("exactly-once replies: %d / 120 (duplicates: %d, unserved: %d)\n",
		exactlyOnce, duplicates, unserved)
	fmt.Println("requests served per surviving server:")
	for _, n := range names {
		fmt.Printf("  %-6s %d\n", n, cluster.Servers[n].Served())
	}
	view, ok := cluster.M.ConsensusView()
	fmt.Printf("final membership consensus: %v (agreed: %v)\n", view, ok)
}
