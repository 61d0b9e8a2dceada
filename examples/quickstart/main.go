// Quickstart: erasure-code a message with the paper's (6,4) B-Code, then
// run a full six-node RAIN cluster — store an object, crash two nodes, and
// read it back while the membership ring reconfigures around the failures.
package main

import (
	"fmt"
	"log"
	"time"

	"rain"
)

func main() {
	// 1. Standalone erasure coding (§4.1, Table 1): any 4 of 6 shards
	// recover the message.
	code, err := rain.NewBCode(6)
	if err != nil {
		log.Fatal(err)
	}
	msg := []byte("computing in the RAIN: a reliable array of independent nodes")
	shards, err := code.Encode(msg)
	if err != nil {
		log.Fatal(err)
	}
	shards[1], shards[4] = nil, nil // lose any two shards
	decoded, err := code.Decode(shards, len(msg))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("B-Code round trip with 2 of 6 shards lost: %q\n", decoded)

	// 2. A full cluster: bundled interfaces, membership ring (whose smallest
	// name leads) and erasure-coded storage over six simulated nodes.
	cluster, err := rain.NewCluster(
		[]string{"n1", "n2", "n3", "n4", "n5", "n6"},
		rain.ClusterOptions{Seed: 42, Policy: rain.PolicyLeastLoaded},
	)
	if err != nil {
		log.Fatal(err)
	}
	cluster.Run(time.Second) // let the membership ring settle
	view, _ := cluster.Consensus()
	fmt.Printf("membership: %v, leader: %s\n", view, cluster.Leader("n1"))

	if err := cluster.Put("greeting", []byte("hello, distributed world")); err != nil {
		log.Fatal(err)
	}

	// Crash two nodes — the (6,4) code tolerates exactly this.
	for _, victim := range []string{"n2", "n5"} {
		if err := cluster.Pause(victim); err != nil {
			log.Fatal(err)
		}
		fmt.Println("crashed", victim)
	}
	cluster.Run(3 * time.Second) // membership reconfigures

	got, err := cluster.Get("greeting")
	if err != nil {
		log.Fatal(err)
	}
	view, _ = cluster.Consensus()
	fmt.Printf("after crashes, membership: %v\n", view)
	fmt.Printf("object still readable: %q\n", got)
}
