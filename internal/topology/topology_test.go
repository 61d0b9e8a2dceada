package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNaive(t *testing.T, fabric Fabric, n, nodes, dc int) *Topology {
	t.Helper()
	top, err := NewNaive(fabric, n, nodes, dc)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func mustDiameter(t *testing.T, fabric Fabric, n, nodes int) *Topology {
	t.Helper()
	top, err := NewDiameter(fabric, n, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestDegrees(t *testing.T) {
	// Construction 2.1: ds = 4 (two ring ports + two node ports), dc = 2.
	top := mustDiameter(t, RingFabric, 10, 10)
	for s := 0; s < top.Switches; s++ {
		if got := top.SwitchDegree(s); got != 4 {
			t.Fatalf("switch %d degree %d, want 4", s, got)
		}
	}
	for i := 0; i < top.Nodes; i++ {
		if got := top.NodeDegree(i); got != 2 {
			t.Fatalf("node %d degree %d, want 2", i, got)
		}
	}
}

func TestDiameterUniquePairs(t *testing.T) {
	// Each node must attach to a unique pair of switches (the reason the
	// construction uses diameter-minus-one).
	top := mustDiameter(t, RingFabric, 11, 11)
	pairs := map[[2]int]bool{}
	for i := 0; i < top.Nodes; i++ {
		var sw []int
		for _, li := range topAdj(top, top.Switches+i) {
			l := top.Links[li]
			s := l.U
			if s == top.Switches+i {
				s = l.V
			}
			sw = append(sw, s)
		}
		if len(sw) != 2 {
			t.Fatalf("node %d has %d attachments", i, len(sw))
		}
		if sw[0] > sw[1] {
			sw[0], sw[1] = sw[1], sw[0]
		}
		key := [2]int{sw[0], sw[1]}
		if pairs[key] {
			t.Fatalf("switch pair %v reused", key)
		}
		pairs[key] = true
	}
}

// topAdj exposes adjacency for tests.
func topAdj(t *Topology, v int) []int { return t.adj[v] }

func TestNoFaultsFullyConnected(t *testing.T) {
	for _, top := range []*Topology{
		mustNaive(t, RingFabric, 8, 8, 2),
		mustDiameter(t, RingFabric, 8, 8),
		mustDiameter(t, CliqueFabric, 8, 8),
	} {
		r := top.Evaluate(NewFaultSet())
		if r.NodesLost != 0 || r.Partitioned || r.LargestComponent != top.Nodes {
			t.Fatalf("%s: fault-free evaluation %+v", top.Name, r)
		}
	}
}

func TestNaivePartitionsWithTwoSwitchFaults(t *testing.T) {
	// Fig 4b: two non-adjacent switch failures split the naive ring.
	for _, n := range []int{8, 10, 16, 32} {
		top := mustNaive(t, RingFabric, n, n, 2)
		r := top.Evaluate(NewFaultSet(
			Element{SwitchElement, 0},
			Element{SwitchElement, n / 2},
		))
		if !r.Partitioned {
			t.Fatalf("n=%d: naive construction should partition with 2 opposite switch faults", n)
		}
		// The loss grows with n: roughly half the nodes lose the race.
		if r.NodesLost < n/2-2 {
			t.Fatalf("n=%d: naive loss %d unexpectedly small", n, r.NodesLost)
		}
	}
}

func TestTheorem21DiameterThreeFaults(t *testing.T) {
	// Theorem 2.1: tolerate ANY three faults (switch, link or node) losing
	// at most min(n, 6) nodes, and never partitioning... "partitioning"
	// here meaning loss of a non-constant fraction. We assert the loss
	// bound for all 3-subsets of all element kinds.
	for _, n := range []int{8, 9, 10, 11} {
		top := mustDiameter(t, RingFabric, n, n)
		worst, witness := top.WorstCase(top.Elements(), 3)
		bound := 6
		if n < 6 {
			bound = n
		}
		if worst.NodesLost > bound {
			t.Fatalf("n=%d: worst loss %d > min(n,6)=%d with faults %v", n, worst.NodesLost, bound, witness)
		}
	}
}

func TestTheorem21SwitchFaultsOnly(t *testing.T) {
	// The paper's headline example: 10 nodes on 10 switches lose at most 6
	// nodes with 3 switch faults.
	top := mustDiameter(t, RingFabric, 10, 10)
	worst, witness := top.WorstCase(top.SwitchElements(), 3)
	if worst.NodesLost > 6 {
		t.Fatalf("worst loss %d > 6 with switch faults %v", worst.NodesLost, witness)
	}
}

func TestTheorem21Optimality4Faults(t *testing.T) {
	// Optimality direction: some 4 switch faults partition the diameter
	// construction into non-constant pieces. For n large enough, worst-case
	// loss with 4 faults must exceed the 3-fault constant.
	top := mustDiameter(t, RingFabric, 16, 16)
	worst3, _ := top.WorstCase(top.SwitchElements(), 3)
	worst4, _ := top.WorstCase(top.SwitchElements(), 4)
	if worst4.NodesLost <= worst3.NodesLost {
		t.Fatalf("4-fault worst loss %d not worse than 3-fault %d", worst4.NodesLost, worst3.NodesLost)
	}
	if worst4.NodesLost <= 6 {
		t.Fatalf("4-fault worst loss %d should exceed the 3-fault constant 6", worst4.NodesLost)
	}
}

func TestReplicatedNodesScaleTheConstant(t *testing.T) {
	// §2.1 note: tripling the node count (30 nodes on 10 switches) triples
	// the maximum loss under three switch faults, and the loss stays within
	// the tripled Theorem 2.1 bound of 18. The asymptotic resistance to
	// partitioning is unchanged.
	single := mustDiameter(t, RingFabric, 10, 10)
	triple := mustDiameter(t, RingFabric, 10, 30)
	w1, _ := single.WorstCase(single.SwitchElements(), 3)
	w3, witness := triple.WorstCase(triple.SwitchElements(), 3)
	if w3.NodesLost != 3*w1.NodesLost {
		t.Fatalf("worst loss %d with 30 nodes, want exactly 3x the 10-node worst %d", w3.NodesLost, w1.NodesLost)
	}
	if w3.NodesLost > 18 {
		t.Fatalf("worst loss %d > 18 with faults %v", w3.NodesLost, witness)
	}
}

func TestCliqueFabricStronger(t *testing.T) {
	// A clique of switches cannot be partitioned by switch failures at all;
	// only attachment loss matters. Worst 3-fault loss is therefore at most
	// that of the ring.
	ring := mustDiameter(t, RingFabric, 10, 10)
	clique := mustDiameter(t, CliqueFabric, 10, 10)
	wr, _ := ring.WorstCase(ring.SwitchElements(), 3)
	wc, _ := clique.WorstCase(clique.SwitchElements(), 3)
	if wc.NodesLost > wr.NodesLost {
		t.Fatalf("clique worst loss %d > ring %d", wc.NodesLost, wr.NodesLost)
	}
}

func TestGeneralizedDiameterDegrees(t *testing.T) {
	top, err := NewGeneralizedDiameter(RingFabric, 12, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < top.Nodes; i++ {
		if top.NodeDegree(i) != 3 {
			t.Fatalf("node %d degree %d, want 3", i, top.NodeDegree(i))
		}
	}
	// Higher node degree should not weaken 3-fault tolerance.
	worst, witness := top.WorstCase(top.SwitchElements(), 3)
	if worst.NodesLost > 6 {
		t.Fatalf("dc=3 worst loss %d with faults %v", worst.NodesLost, witness)
	}
}

func TestNodeFaultsCountAsLost(t *testing.T) {
	top := mustDiameter(t, RingFabric, 8, 8)
	r := top.Evaluate(NewFaultSet(Element{NodeElement, 3}))
	if r.NodesLost != 1 || r.AliveNodes != 7 {
		t.Fatalf("single node fault: %+v", r)
	}
}

func TestLinkFaultTolerated(t *testing.T) {
	top := mustDiameter(t, RingFabric, 8, 8)
	// Kill one attachment link of node 0: it still reaches the fabric via
	// its second interface (the bundled-interface argument of §2).
	var nodeLink int = -1
	for li, l := range top.Links {
		if l.U == top.Switches || l.V == top.Switches { // node 0's vertex
			nodeLink = li
			break
		}
	}
	if nodeLink < 0 {
		t.Fatal("no attachment link found for node 0")
	}
	r := top.Evaluate(NewFaultSet(Element{LinkElement, nodeLink}))
	if r.NodesLost != 0 {
		t.Fatalf("one attachment link fault lost %d nodes", r.NodesLost)
	}
}

func TestInvalidParameters(t *testing.T) {
	if _, err := NewNaive(RingFabric, 1, 1, 1); err == nil {
		t.Fatal("NewNaive with n=1 must fail")
	}
	if _, err := NewNaive(RingFabric, 4, 4, 5); err == nil {
		t.Fatal("NewNaive with dc > n must fail")
	}
	if _, err := NewDiameter(RingFabric, 3, 3); err == nil {
		t.Fatal("NewDiameter with n=3 must fail")
	}
	if _, err := NewGeneralizedDiameter(RingFabric, 8, 8, 1); err == nil {
		t.Fatal("NewGeneralizedDiameter with dc=1 must fail")
	}
}

func TestQuickEvaluateInvariants(t *testing.T) {
	top := mustDiameter(t, RingFabric, 12, 12)
	elems := top.Elements()
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := r.Intn(6)
		chosen := make([]Element, 0, k)
		for j := 0; j < k; j++ {
			chosen = append(chosen, elems[r.Intn(len(elems))])
		}
		res := top.Evaluate(NewFaultSet(chosen...))
		if res.LargestComponent > res.AliveNodes {
			return false
		}
		if res.NodesLost < 0 || res.NodesLost > top.Nodes {
			return false
		}
		if res.Partitioned && res.Components < 2 {
			return false
		}
		return res.NodesLost == top.Nodes-res.LargestComponent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
