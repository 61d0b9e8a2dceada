// RAINVideo (§5.1): a highly-available video server. A video is erasure
// encoded block by block across a six-node cluster; a client streams it
// over the mesh while nodes are crashed and brought back. Playback survives
// any two concurrent failures; a third causes visible stalls until a node
// returns.
package main

import (
	"fmt"
	"log"
	"time"

	"rain"
	"rain/internal/video"
)

func main() {
	nodes := make([]string, 6)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("video-node-%d", i)
	}
	cluster, err := rain.NewCluster(nodes, rain.ClusterOptions{Seed: 7, Policy: rain.PolicyLeastLoaded})
	if err != nil {
		log.Fatal(err)
	}
	cluster.Run(time.Second) // let the membership ring settle
	sys := video.NewSystem(cluster, video.Config{BlockSize: 32 * 1024})

	fmt.Printf("encoding video across 6 nodes with the %s...\n", cluster.Code().Name())
	if err := sys.AddVideo("launch.mpg", 60, 2001); err != nil {
		log.Fatal(err)
	}

	// Pull nodes down mid-stream, as the demo in Figs 10-11 did with
	// network cables: two failures are invisible, a third stalls playback
	// until one node recovers.
	script := video.FaultScript{
		Down: map[int][]int{
			10: {0}, // node 0 dies at block 10
			20: {3}, // node 3 dies at block 20 (2 down: still fine)
			35: {5}, // node 5 dies at block 35 (3 down: stalls)
		},
		Up: map[int][]int{
			45: {0}, // node 0 returns: playback resumes
		},
	}
	rep, err := sys.Play("launch.mpg", script)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blocks played: %d\n", rep.BlocksPlayed)
	fmt.Printf("stalls (fewer than k=%d servers reachable): %d\n", cluster.Code().K(), rep.Stalls)
	fmt.Printf("corrupt blocks: %d\n", rep.Corrupt)
	fmt.Printf("bytes served: %d\n", rep.BytesServed)

	fmt.Println("\nper-node read load (least-loaded selection spreads work):")
	for _, n := range nodes {
		r, w := cluster.Backends[n].Loads()
		fmt.Printf("  %-14s reads=%3d writes=%3d\n", n, r, w)
	}
}
