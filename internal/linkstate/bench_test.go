package linkstate

// Micro-benchmarks timing the computational side of the paper artifacts
// this package implements; the tests beside them assert the claims
// themselves. DESIGN.md's per-experiment index maps both to the paper's
// tables and figures.

import (
	"fmt"
	"math/rand"
	"testing"
)

// --- E4-E6: Figs 6-8 ---

// BenchmarkLinkStateProtocol measures the token-counting engine under an
// adversarial event mix.
func BenchmarkLinkStateProtocol(b *testing.B) {
	for _, slack := range []int{2, 8} {
		b.Run(fmt.Sprintf("slack=%d", slack), func(b *testing.B) {
			a, err := NewEndpoint(slack, TinOnToken)
			if err != nil {
				b.Fatal(err)
			}
			p, err := NewEndpoint(slack, TinOnToken)
			if err != nil {
				b.Fatal(err)
			}
			var qAB, qBA []int
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < b.N; i++ {
				switch rng.Intn(4) {
				case 0:
					if n := a.Tout(); n > 0 {
						qAB = append(qAB, n)
					}
				case 1:
					if n := p.Tout(); n > 0 {
						qBA = append(qBA, n)
					}
				case 2:
					if len(qAB) > 0 {
						qAB = qAB[1:]
						if n := p.Token(); n > 0 {
							qBA = append(qBA, n)
						}
					}
				case 3:
					if len(qBA) > 0 {
						qBA = qBA[1:]
						if n := a.Token(); n > 0 {
							qAB = append(qAB, n)
						}
					}
				}
			}
		})
	}
}
