package membership

import (
	"testing"
	"time"

	"rain/internal/rudp"
	"rain/internal/sim"
)

// testCluster is the ring on a simulated two-path RUDP mesh, the transport
// every deployed node runs it on. Stop and Restart freeze a node's endpoint
// together with its engine (a crash, then a process resume); tests pull a
// pair's cables with mesh.CutLink. Standby nodes sit on the mesh powered off
// until Join.
type testCluster struct {
	*MeshCluster
	mesh *rudp.Mesh
}

// newRing builds the ring over names, links configured as link.
func newRing(t *testing.T, seed int64, det Detection, link sim.LinkConfig, names []string, standby ...string) *testCluster {
	t.Helper()
	s := sim.New(seed)
	net := sim.NewNetwork(s)
	all := append(append([]string(nil), names...), standby...)
	sim.ApplyProfile(net, all, 2, link)
	mesh, err := rudp.NewMesh(s, net, all, rudp.Config{Paths: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := &testCluster{MeshCluster: NewMeshCluster(s, mesh, names, Config{Detection: det}), mesh: mesh}
	for _, sb := range standby {
		c.AddStandby(sb)
		mesh.StopNode(sb)
	}
	return c
}

func newTestCluster(t *testing.T, det Detection, names ...string) *testCluster {
	t.Helper()
	return newRing(t, 1312, det, sim.ProfileLAN, names)
}

func (c *testCluster) Stop(name string) {
	c.MeshCluster.Stop(name)
	c.mesh.StopNode(name)
}

func (c *testCluster) Restart(name string) {
	c.mesh.StartNode(name)
	c.MeshCluster.Restart(name)
}

// Join powers a standby up and asks seed to admit it.
func (c *testCluster) Join(name, seed string) *Node {
	c.mesh.StartNode(name)
	return c.MeshCluster.Join(name, seed)
}

func wantConsensus(t *testing.T, c *testCluster, want []string) {
	t.Helper()
	view, ok := c.ConsensusView()
	if !ok {
		views := map[string][]string{}
		for _, n := range c.Alive() {
			views[n] = c.Members[n].View()
		}
		t.Fatalf("no consensus among live nodes: %v", views)
	}
	if len(view) != len(want) {
		t.Fatalf("consensus view %v, want %v", view, want)
	}
	set := map[string]bool{}
	for _, v := range view {
		set[v] = true
	}
	for _, w := range want {
		if !set[w] {
			t.Fatalf("consensus view %v missing %q", view, w)
		}
	}
}

// TestFig9aTokenCirculates: fault-free ring ABCD, token visits everyone and
// membership is stable (E7).
func TestFig9aTokenCirculates(t *testing.T) {
	for _, det := range []Detection{Aggressive, Conservative} {
		c := newTestCluster(t, det, "A", "B", "C", "D")
		c.S.RunFor(3 * time.Second)
		wantConsensus(t, c, []string{"A", "B", "C", "D"})
		for _, n := range []string{"A", "B", "C", "D"} {
			if v := c.Members[n].TokenVisits(); v < 10 {
				t.Fatalf("det=%v: token visited %s only %d times", det, n, v)
			}
		}
		if holders := c.TokenHolders(); len(holders) > 1 {
			t.Fatalf("det=%v: multiple token holders %v", det, holders)
		}
		// No node should ever have starved in a healthy cluster.
		for _, n := range []string{"A", "B", "C", "D"} {
			if c.Members[n].Regenerations() != 0 {
				t.Fatalf("det=%v: spurious regeneration at %s", det, n)
			}
		}
	}
}

// TestFig9bAggressiveLinkFailure: cutting A-B excludes B (ring ACD), then B
// rejoins automatically via the 911 mechanism (E8).
func TestFig9bAggressiveLinkFailure(t *testing.T) {
	c := newTestCluster(t, Aggressive, "A", "B", "C", "D")
	c.S.RunFor(time.Second)

	// Record whether B ever disappears from A's view.
	excluded := false
	c.Members["A"].OnMembershipChange(func(view []string) {
		if indexOf(view, "B") < 0 {
			excluded = true
		}
	})
	c.mesh.CutLink("A", "B")
	c.S.RunFor(2 * time.Second)
	if !excluded {
		t.Fatal("aggressive detection never excluded the partially disconnected node B")
	}
	// B starves, 911s to C, and rejoins: membership converges back to all
	// four nodes even though A-B stays cut (the ring routes around it).
	c.S.RunFor(8 * time.Second)
	wantConsensus(t, c, []string{"A", "B", "C", "D"})
	if c.Members["B"].TokenVisits() == 0 {
		t.Fatal("B never saw the token after rejoining")
	}
}

// TestFig9cConservativeLinkFailure: with conservative detection the ring is
// reordered (ABCD -> ACBD) and B is never excluded (E9).
func TestFig9cConservativeLinkFailure(t *testing.T) {
	c := newTestCluster(t, Conservative, "A", "B", "C", "D")
	c.S.RunFor(time.Second)

	bExcluded := false
	for _, watcher := range []string{"A", "C", "D"} {
		c.Members[watcher].OnMembershipChange(func(view []string) {
			if indexOf(view, "B") < 0 {
				bExcluded = true
			}
		})
	}
	c.mesh.CutLink("A", "B")
	c.S.RunFor(4 * time.Second)
	if bExcluded {
		t.Fatal("conservative detection excluded a partially disconnected node")
	}
	wantConsensus(t, c, []string{"A", "B", "C", "D"})
	// The ring must have been reordered so that A no longer precedes B.
	view := c.Members["A"].View()
	ia, ib := indexOf(view, "A"), indexOf(view, "B")
	if (ia+1)%len(view) == ib {
		t.Fatalf("ring %v still routes A->B across the cut link", view)
	}
	// And B keeps seeing the token.
	before := c.Members["B"].TokenVisits()
	c.S.RunFor(2 * time.Second)
	if c.Members["B"].TokenVisits() == before {
		t.Fatal("token stopped visiting B after reorder")
	}
}

// TestSinglePathCutInvisibleToRing: the ring rides the bundled mesh, so
// pulling one of the two cables between every pair is masked below it
// (§2.5): no view changes, no regeneration, the token keeps circulating.
// Only a pair that loses both cables (Fig 9b/9c) reaches the protocol.
func TestSinglePathCutInvisibleToRing(t *testing.T) {
	names := []string{"A", "B", "C", "D"}
	for _, det := range []Detection{Aggressive, Conservative} {
		c := newTestCluster(t, det, names...)
		c.S.RunFor(time.Second)
		changes := 0
		for _, n := range names {
			c.Members[n].OnMembershipChange(func([]string) { changes++ })
		}
		for i, a := range names {
			for _, b := range names[i+1:] {
				c.mesh.CutPath(a, b, 0)
			}
		}
		before := c.Members["D"].TokenVisits()
		c.S.RunFor(4 * time.Second)
		if changes != 0 {
			t.Fatalf("det=%v: %d view changes after a single-path cut", det, changes)
		}
		wantConsensus(t, c, names)
		for _, n := range names {
			if c.Members[n].Regenerations() != 0 {
				t.Fatalf("det=%v: %s regenerated the token", det, n)
			}
		}
		if c.Members["D"].TokenVisits() <= before {
			t.Fatalf("det=%v: token stopped circulating", det)
		}
	}
}

// TestConservativeRemovesDeadNodeAfterTwoFailures: a truly dead node is
// removed once the token fails to reach it twice in a row (§3.2.2).
func TestConservativeRemovesDeadNode(t *testing.T) {
	c := newTestCluster(t, Conservative, "A", "B", "C", "D")
	c.S.RunFor(time.Second)
	c.Stop("B")
	c.S.RunFor(4 * time.Second)
	wantConsensus(t, c, []string{"A", "C", "D"})
}

// TestAggressiveDetectionFasterThanConservative quantifies the paper's
// trade-off: aggressive exclusion happens sooner (E8/E9 ablation).
func TestAggressiveDetectionFasterThanConservative(t *testing.T) {
	detect := func(det Detection) time.Duration {
		c := newTestCluster(t, det, "A", "B", "C", "D")
		// Wait until A is the holder so the victim C is mid-ring and the
		// token survives the kill: detection then happens via the failed
		// token pass, the path where the two protocols differ.
		for i := 0; i < 100000 && !c.Members["A"].HasToken(); i++ {
			if !c.S.Step() {
				t.Fatal("simulation drained before A held the token")
			}
		}
		start := c.S.Now()
		c.Stop("C")
		for i := 0; i < 200000; i++ {
			if !c.S.Step() {
				break
			}
			for _, w := range []string{"A", "B", "D"} {
				if v := c.Members[w].View(); indexOf(v, "C") < 0 {
					return time.Duration(c.S.Now() - start)
				}
			}
		}
		t.Fatalf("det=%v never excluded the dead node", det)
		return 0
	}
	ta := detect(Aggressive)
	tc := detect(Conservative)
	if ta >= tc {
		t.Fatalf("aggressive detection (%v) not faster than conservative (%v)", ta, tc)
	}
}

// TestTokenRegeneration: killing the token holder loses the token; exactly
// one node regenerates it and the survivors converge (E10, §3.3.1).
func TestTokenRegeneration(t *testing.T) {
	c := newTestCluster(t, Aggressive, "A", "B", "C", "D")
	c.S.RunFor(time.Second)
	// Find and kill the current holder (or the node with the newest copy).
	holders := c.TokenHolders()
	victim := "A"
	if len(holders) > 0 {
		victim = holders[0]
	}
	c.Stop(victim)
	c.S.RunFor(6 * time.Second)

	want := []string{}
	for _, n := range []string{"A", "B", "C", "D"} {
		if n != victim {
			want = append(want, n)
		}
	}
	wantConsensus(t, c, want)
	regens := uint64(0)
	for _, n := range want {
		regens += c.Members[n].Regenerations()
	}
	if regens != 1 {
		t.Fatalf("%d regenerations, want exactly 1 (mutual exclusion of 911)", regens)
	}
	// The regenerated token must circulate.
	visitsBefore := c.Members[want[0]].TokenVisits()
	c.S.RunFor(2 * time.Second)
	if c.Members[want[0]].TokenVisits() <= visitsBefore {
		t.Fatal("token not circulating after regeneration")
	}
}

// TestDynamicJoin: a brand-new node, provisioned powered off on the mesh,
// joins via 911 (E11, §3.3.2).
func TestDynamicJoin(t *testing.T) {
	c := newRing(t, 1312, Aggressive, sim.ProfileLAN, []string{"A", "B", "C"}, "E")
	c.S.RunFor(time.Second)
	wantConsensus(t, c, []string{"A", "B", "C"}) // the powered-off E is not a member
	c.Join("E", "B")
	c.S.RunFor(5 * time.Second)
	wantConsensus(t, c, []string{"A", "B", "C", "E"})
	if c.Members["E"].TokenVisits() == 0 {
		t.Fatal("joined node never received the token")
	}
}

// TestTransientFailureRejoin: a node that crashes and recovers is first
// excluded, then automatically re-admitted (E11, §3.3.3).
func TestTransientFailureRejoin(t *testing.T) {
	c := newTestCluster(t, Aggressive, "A", "B", "C", "D")
	c.S.RunFor(time.Second)
	c.Stop("C")
	c.S.RunFor(2 * time.Second)
	wantConsensus(t, c, []string{"A", "B", "D"})
	c.Restart("C")
	c.S.RunFor(8 * time.Second)
	wantConsensus(t, c, []string{"A", "B", "C", "D"})
	if c.Members["C"].Regenerations() != 0 {
		t.Fatal("recovered node must rejoin, not regenerate a token")
	}
}

// TestTokenUniqueness: sequence numbers strictly increase at every node, so
// stale tokens are discarded and at most one authoritative token exists
// (§3.2.3).
func TestTokenUniqueness(t *testing.T) {
	c := newTestCluster(t, Aggressive, "A", "B", "C", "D")
	type visit struct {
		node string
		seq  uint64
	}
	var visits []visit
	for _, n := range []string{"A", "B", "C", "D"} {
		n := n
		c.Members[n].OnHold(func(tok *Token) {
			visits = append(visits, visit{node: n, seq: tok.Seq})
		})
	}
	c.S.RunFor(3 * time.Second)
	if len(visits) < 20 {
		t.Fatalf("only %d token visits", len(visits))
	}
	for i := 1; i < len(visits); i++ {
		if visits[i].seq <= visits[i-1].seq {
			t.Fatalf("token sequence not strictly increasing: %v then %v", visits[i-1], visits[i])
		}
	}
}

// TestPayloadAttachment: application state attached to the token is seen and
// mutable at every hop — the SNOW/Rainwall state-sharing primitive (§3.3.3).
func TestPayloadAttachment(t *testing.T) {
	c := newTestCluster(t, Aggressive, "A", "B", "C")
	seen := map[string]int{}
	for _, n := range []string{"A", "B", "C"} {
		n := n
		c.Members[n].OnHold(func(tok *Token) {
			seen[n] = len(tok.Payload)
			tok.Payload = append(tok.Payload, n[0])
		})
	}
	c.S.RunFor(2 * time.Second)
	for _, n := range []string{"A", "B", "C"} {
		if seen[n] == 0 {
			t.Fatalf("node %s never saw accumulated payload (%v)", n, seen)
		}
	}
}

// TestPartitionFormsIndependentComponents: a clean partition yields
// consistent membership within each connected component (§3.1: tolerate
// link failures; membership per component).
func TestPartitionFormsIndependentComponents(t *testing.T) {
	c := newTestCluster(t, Aggressive, "A", "B", "C", "D")
	c.S.RunFor(time.Second)
	// Partition {A,B} | {C,D}.
	for _, x := range []string{"A", "B"} {
		for _, y := range []string{"C", "D"} {
			c.mesh.CutLink(x, y)
		}
	}
	c.S.RunFor(8 * time.Second)
	viewA := c.Members["A"].View()
	viewB := c.Members["B"].View()
	if len(viewA) != 2 || indexOf(viewA, "A") < 0 || indexOf(viewA, "B") < 0 {
		t.Fatalf("A's component view %v, want {A,B}", viewA)
	}
	if len(viewB) != 2 {
		t.Fatalf("B's component view %v, want {A,B}", viewB)
	}
	viewC := c.Members["C"].View()
	if len(viewC) != 2 || indexOf(viewC, "C") < 0 || indexOf(viewC, "D") < 0 {
		t.Fatalf("C's component view %v, want {C,D}", viewC)
	}
	// Each component has exactly one token source: total regenerations is 1
	// (the component that lost the token minted one).
	regens := uint64(0)
	for _, n := range []string{"A", "B", "C", "D"} {
		regens += c.Members[n].Regenerations()
	}
	if regens != 1 {
		t.Fatalf("regenerations = %d, want 1 (one component kept the token)", regens)
	}
}

// TestSoleSurvivor: with everyone else dead the last node keeps a
// single-member ring and the token.
func TestSoleSurvivor(t *testing.T) {
	c := newTestCluster(t, Aggressive, "A", "B", "C")
	c.S.RunFor(time.Second)
	c.Stop("B")
	c.Stop("C")
	c.S.RunFor(6 * time.Second)
	view := c.Members["A"].View()
	if len(view) != 1 || view[0] != "A" {
		t.Fatalf("sole survivor's view %v, want [A]", view)
	}
	if !c.Members["A"].HasToken() {
		t.Fatal("sole survivor must hold the token")
	}
}

func TestSuccessorHelper(t *testing.T) {
	ring := []string{"A", "B", "C", "D"}
	if s := successor(ring, "A", nil); s != "B" {
		t.Fatalf("successor(A) = %s", s)
	}
	if s := successor(ring, "D", nil); s != "A" {
		t.Fatalf("successor(D) = %s (no wrap)", s)
	}
	if s := successor(ring, "A", map[string]bool{"B": true, "C": true}); s != "D" {
		t.Fatalf("successor with skips = %s", s)
	}
	if s := successor([]string{"A"}, "A", nil); s != "" {
		t.Fatalf("successor in singleton ring = %q", s)
	}
	if s := successor(nil, "A", nil); s != "" {
		t.Fatalf("successor in empty ring = %q", s)
	}
}

func TestReorderAfterNext(t *testing.T) {
	got := reorderAfterNext([]string{"A", "B", "C", "D"}, "A", "B")
	want := []string{"A", "C", "B", "D"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reorder = %v, want %v", got, want)
		}
	}
	// Too-small rings are left alone.
	two := reorderAfterNext([]string{"A", "B"}, "A", "B")
	if len(two) != 2 {
		t.Fatal("2-ring must be unchanged")
	}
}
