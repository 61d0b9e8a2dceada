package membership

import (
	"fmt"
	"testing"
	"time"

	"rain/internal/sim"
)

// lossyCluster builds a cluster whose links drop packets with probability
// loss — exercising the ack/retry driver, the transport's retransmission
// and the 911 machinery under an unreliable network, the regime §3 is
// designed for.
func lossyCluster(t *testing.T, det Detection, loss float64, names ...string) *testCluster {
	t.Helper()
	return newRing(t, 777, det, lossyLink(loss), names)
}

func lossyLink(loss float64) sim.LinkConfig {
	return sim.LinkConfig{Delay: time.Millisecond, Jitter: time.Millisecond, Loss: loss}
}

func TestConsensusUnderModerateLoss(t *testing.T) {
	// 10% loss: the ack/retry transport hides it; membership must remain
	// complete and the token keeps moving.
	c := lossyCluster(t, Aggressive, 0.10, "A", "B", "C", "D")
	c.S.RunFor(10 * time.Second)
	view, ok := c.ConsensusView()
	if !ok || len(view) != 4 {
		t.Fatalf("no full consensus under 10%% loss: %v ok=%v", view, ok)
	}
	for _, n := range []string{"A", "B", "C", "D"} {
		if c.Members[n].TokenVisits() < 10 {
			t.Fatalf("token starved %s under loss: %d visits", n, c.Members[n].TokenVisits())
		}
	}
}

func TestEventualRecoveryUnderHeavyLossBurst(t *testing.T) {
	// A burst of 60% loss may exclude nodes (sends fail after retries);
	// once the network clears, the 911 rejoin path must restore full
	// membership.
	c := lossyCluster(t, Aggressive, 0, "A", "B", "C", "D")
	c.S.RunFor(time.Second)
	names := []string{"A", "B", "C", "D"}
	sim.ApplyProfile(c.mesh.Net, names, c.mesh.Paths, sim.LinkConfig{Delay: time.Millisecond, Loss: 0.6})
	c.S.RunFor(5 * time.Second) // chaos
	sim.ApplyProfile(c.mesh.Net, names, c.mesh.Paths, sim.LinkConfig{Delay: time.Millisecond})
	c.S.RunFor(20 * time.Second) // recover
	view, ok := c.ConsensusView()
	if !ok || len(view) != 4 {
		t.Fatalf("membership did not recover after loss burst: %v ok=%v", view, ok)
	}
}

func TestChurn(t *testing.T) {
	// Repeated crash/restart cycles of different nodes: the cluster must
	// converge to full membership after each cycle, with tokens still
	// unique (sequence numbers monotone at each node).
	c := lossyCluster(t, Aggressive, 0, "A", "B", "C", "D", "E")
	c.S.RunFor(time.Second)
	victims := []string{"B", "D", "C", "E"}
	for cycle, victim := range victims {
		c.Stop(victim)
		c.S.RunFor(3 * time.Second)
		c.Restart(victim)
		c.S.RunFor(8 * time.Second)
		view, ok := c.ConsensusView()
		if !ok || len(view) != 5 {
			t.Fatalf("cycle %d (%s): consensus %v ok=%v", cycle, victim, view, ok)
		}
	}
}

func TestLargerRing(t *testing.T) {
	// Ten nodes — the testbed size. Sanity: consensus, circulation, one
	// failure handled.
	names := make([]string, 10)
	for i := range names {
		names[i] = fmt.Sprintf("N%02d", i)
	}
	c := lossyCluster(t, Conservative, 0, names...)
	c.S.RunFor(3 * time.Second)
	view, ok := c.ConsensusView()
	if !ok || len(view) != 10 {
		t.Fatalf("10-node consensus failed: %v", view)
	}
	c.Stop("N05")
	c.S.RunFor(5 * time.Second)
	view, ok = c.ConsensusView()
	if !ok || len(view) != 9 {
		t.Fatalf("consensus after failure: %v ok=%v", view, ok)
	}
}

func TestTwoSimultaneousJoins(t *testing.T) {
	c := newRing(t, 777, Aggressive, lossyLink(0), []string{"A", "B", "C"}, "X", "Y")
	c.S.RunFor(time.Second)
	c.Join("X", "A")
	c.Join("Y", "B")
	c.S.RunFor(10 * time.Second)
	view, ok := c.ConsensusView()
	if !ok || len(view) != 5 {
		t.Fatalf("joins did not converge: %v ok=%v", view, ok)
	}
}
