// RAINCheck (§5.3): distributed checkpointing with rollback recovery. The
// cluster's leader (the smallest name in the membership view) assigns
// deterministic jobs to six nodes; every job checkpoints its state into the
// erasure-coded store over the mesh; two nodes are crashed mid-run and every
// job still completes with a bit-exact result.
package main

import (
	"fmt"
	"log"
	"time"

	"rain"
	"rain/internal/checkpoint"
)

func main() {
	cluster, err := rain.NewCluster(
		[]string{"node0", "node1", "node2", "node3", "node4", "node5"},
		rain.ClusterOptions{Seed: 7, Policy: rain.PolicyLeastLoaded},
	)
	if err != nil {
		log.Fatal(err)
	}
	cluster.Run(time.Second) // let the membership ring settle
	sys := checkpoint.New(cluster, checkpoint.Config{CheckpointEvery: 25})

	var jobs []checkpoint.JobSpec
	for i := 0; i < 8; i++ {
		jobs = append(jobs, checkpoint.JobSpec{
			ID: fmt.Sprintf("simulation-%d", i), Steps: 400, Seed: uint64(9000 + i),
		})
	}
	sys.Submit(jobs...)
	fmt.Println("submitted 8 jobs of 400 steps, checkpoint every 25 steps")

	cluster.Run(617 * time.Millisecond)
	fmt.Println("killing node2 and node4 mid-run...")
	if err := cluster.Pause("node2"); err != nil {
		log.Fatal(err)
	}
	cluster.Run(413 * time.Millisecond)
	if err := cluster.Pause("node4"); err != nil {
		log.Fatal(err)
	}
	cluster.Run(40 * time.Second)

	done := sys.Done()
	correct := 0
	for _, sp := range jobs {
		got := done[sp.ID]
		want := checkpoint.ExpectedResult(sp)
		mark := "OK "
		if got != want {
			mark = "BAD"
		} else {
			correct++
		}
		fmt.Printf("  %s %-14s result=%016x\n", mark, sp.ID, got)
	}
	reexec := 0
	for _, sp := range jobs {
		reexec += sys.StepsExecuted()[sp.ID] - sp.Steps
	}
	fmt.Printf("%d/8 jobs bit-exact; %d steps re-executed after rollback; %d reassignments\n",
		correct, reexec, sys.Reassignments())
}
