package topology

// Micro-benchmarks timing the computational side of the paper artifacts
// this package implements; the tests beside them assert the claims
// themselves. DESIGN.md's per-experiment index maps both to the paper's
// tables and figures.

import "testing"

// --- E1-E3: Figs 3-5 / Theorem 2.1 ---

// BenchmarkTopologyWorstCase3Faults measures exhaustive 3-fault analysis of
// the two constructions (the computation behind E1/E2's table).
func BenchmarkTopologyWorstCase3Faults(b *testing.B) {
	naive, err := NewNaive(RingFabric, 10, 10, 2)
	if err != nil {
		b.Fatal(err)
	}
	diam, err := NewDiameter(RingFabric, 10, 10)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		top  *Topology
	}{{"naive", naive}, {"diameter", diam}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				worst, _ := tc.top.WorstCase(tc.top.SwitchElements(), 3)
				if worst.NodesLost > 6 {
					b.Fatalf("bound violated: %d", worst.NodesLost)
				}
			}
		})
	}
}
