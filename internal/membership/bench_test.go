package membership

// Micro-benchmarks timing the computational side of the paper artifacts
// this package implements; the tests beside them assert the claims
// themselves. DESIGN.md's per-experiment index maps both to the paper's
// tables and figures.

import (
	"testing"
	"time"

	"rain/internal/rudp"
	"rain/internal/sim"
)

// --- E7-E11: Fig 9 ---

// BenchmarkMembershipTokenRound measures simulated wall time per full token
// revolution of a 4-node ring (Fig 9a dynamics).
func BenchmarkMembershipTokenRound(b *testing.B) {
	s := sim.New(5)
	names := []string{"A", "B", "C", "D"}
	mesh, err := rudp.NewMesh(s, sim.NewNetwork(s), names, rudp.Config{Paths: 2})
	if err != nil {
		b.Fatal(err)
	}
	c := NewMeshCluster(s, mesh, names, Config{})
	s.RunFor(500 * time.Millisecond)
	b.ResetTimer()
	start := c.Members["A"].TokenVisits()
	for i := 0; i < b.N; i++ {
		target := start + uint64(i+1)
		for c.Members["A"].TokenVisits() < target {
			if !s.Step() {
				b.Fatal("simulation drained")
			}
		}
	}
}
