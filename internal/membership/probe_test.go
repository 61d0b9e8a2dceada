package membership

import (
	"testing"
	"time"
)

// TestProbeMergesSplitRings engineers the pathological split directly: a
// full partition long enough for each half to form its own ring and token,
// then a heal. The reconciliation probes must merge the halves back into a
// single ring with a single token.
func TestProbeMergesSplitRings(t *testing.T) {
	c := newTestCluster(t, Aggressive, "A", "B", "C", "D")
	c.S.RunFor(time.Second)
	// Hard partition {A,B} | {C,D}.
	for _, x := range []string{"A", "B"} {
		for _, y := range []string{"C", "D"} {
			c.mesh.CutLink(x, y)
		}
	}
	c.S.RunFor(8 * time.Second)
	// Both halves are now stable independent rings (verified by the
	// partition test); heal and wait for the probes to reconcile.
	for _, x := range []string{"A", "B"} {
		for _, y := range []string{"C", "D"} {
			c.mesh.HealLink(x, y)
		}
	}
	c.S.RunFor(30 * time.Second)
	view, ok := c.ConsensusView()
	if !ok || len(view) != 4 {
		views := map[string][]string{}
		for _, n := range c.Alive() {
			views[n] = c.Members[n].View()
		}
		t.Fatalf("split rings never merged: %v", views)
	}
	if holders := c.TokenHolders(); len(holders) > 1 {
		t.Fatalf("multiple tokens after merge: %v", holders)
	}
}

// TestProbeEngineRules checks the absorb/yield decision directly.
func TestProbeEngineRules(t *testing.T) {
	sent := map[string]any{}
	tr := transportFunc(func(to string, msg any, done func(bool)) {
		sent[to] = msg
		done(true)
	})
	n := NewNode("B", []string{"B", "C"}, Config{}, tr)
	n.StartWithToken(0)
	seq := n.LocalSeq()

	// A member probing us is ignored.
	n.HandleMessage("C", &Probe{From: "C", Seq: 1}, 1)
	if len(n.pendingJoins) != 0 {
		t.Fatal("member probe caused a join")
	}
	// A lower-seq outsider gets absorbed.
	n.HandleMessage("X", &Probe{From: "X", Seq: seq - 1}, 2)
	if indexOf(n.pendingJoins, "X") < 0 {
		t.Fatal("lower-seq prober not absorbed")
	}
	// A higher-seq outsider makes us ask to be absorbed.
	n.HandleMessage("Y", &Probe{From: "Y", Seq: seq + 100}, 3)
	if _, ok := sent["Y"].(*Probe); !ok {
		t.Fatalf("no counter-probe sent to higher-seq cluster: %T", sent["Y"])
	}
	// Equal seq: name order decides ("A" < "B" so A is absorbed by us).
	n.HandleMessage("A", &Probe{From: "A", Seq: seq}, 4)
	if indexOf(n.pendingJoins, "A") < 0 {
		t.Fatal("equal-seq lower-name prober not absorbed")
	}
}

// transportFunc adapts a function to the Transport interface.
type transportFunc func(to string, msg any, done func(bool))

func (f transportFunc) Send(to string, msg any, done func(ok bool)) { f(to, msg, done) }
