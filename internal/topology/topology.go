// Package topology implements the fault-tolerant interconnect constructions
// of RAIN §2.1: compute nodes of degree dc attached to a network of switches
// (a ring or a clique) so that switch, link and node failures partition as
// few compute nodes as possible.
//
// The package provides the naive nearest-switch attachment of Fig 4, the
// diameter construction of Construction 2.1 / Fig 5 (provably tolerant of
// any 3 faults with at most min(n, 6) nodes lost, and optimal in that no
// dc=2 construction tolerates arbitrary 4 faults), its generalisation to
// higher node degree, and the exhaustive fault-injection analysis used by
// experiments E1-E3.
package topology

import "fmt"

// Element identifies a failable element of the topology.
type ElementKind int

// Element kinds, in the order faults are enumerated.
const (
	SwitchElement ElementKind = iota
	LinkElement
	NodeElement
)

func (k ElementKind) String() string {
	switch k {
	case SwitchElement:
		return "switch"
	case LinkElement:
		return "link"
	case NodeElement:
		return "node"
	}
	return "unknown"
}

// Element is one failable unit: a switch, a compute node, or a link.
type Element struct {
	Kind  ElementKind
	Index int // switch index, node index, or link index
}

func (e Element) String() string { return fmt.Sprintf("%s#%d", e.Kind, e.Index) }

// Link is an undirected edge between two vertices of the topology graph.
type Link struct {
	U, V int // vertex ids
}

// Topology is a bipartite-ish graph of switches and compute nodes. Vertices
// 0..Switches-1 are switches; Switches..Switches+Nodes-1 are compute nodes.
// Links carry both switch-switch fabric edges and node-switch attachment
// edges. A Topology is immutable once built; analyses take fault sets as
// arguments, so one instance can be shared by concurrent experiments.
type Topology struct {
	Name     string
	Switches int
	Nodes    int
	Links    []Link
	adj      [][]int // vertex -> incident link indices
}

// vertex id helpers.
func (t *Topology) switchVertex(s int) int { return s }
func (t *Topology) nodeVertex(i int) int   { return t.Switches + i }
func (t *Topology) vertices() int          { return t.Switches + t.Nodes }

// addLink appends an undirected link between vertices u and v.
func (t *Topology) addLink(u, v int) {
	idx := len(t.Links)
	t.Links = append(t.Links, Link{U: u, V: v})
	t.adj[u] = append(t.adj[u], idx)
	t.adj[v] = append(t.adj[v], idx)
}

// newTopology allocates an empty topology with the given switch and node
// counts.
func newTopology(name string, switches, nodes int) *Topology {
	t := &Topology{Name: name, Switches: switches, Nodes: nodes}
	t.adj = make([][]int, switches+nodes)
	return t
}

// SwitchDegree returns the degree of switch s (fabric plus node links).
func (t *Topology) SwitchDegree(s int) int { return len(t.adj[t.switchVertex(s)]) }

// NodeDegree returns the degree (number of interfaces) of compute node i.
func (t *Topology) NodeDegree(i int) int { return len(t.adj[t.nodeVertex(i)]) }

// Fabric describes how the switches themselves are interconnected.
type Fabric int

// Supported switch fabrics.
const (
	// RingFabric connects switch i to switch i+1 mod n (§2.1.2).
	RingFabric Fabric = iota
	// CliqueFabric fully connects all switches (the generalisation
	// mentioned after Theorem 2.1).
	CliqueFabric
)

// buildFabric wires the switch-switch links.
func buildFabric(t *Topology, f Fabric) {
	n := t.Switches
	switch f {
	case RingFabric:
		if n == 2 {
			t.addLink(0, 1)
			return
		}
		for i := 0; i < n; i++ {
			t.addLink(i, (i+1)%n)
		}
	case CliqueFabric:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				t.addLink(i, j)
			}
		}
	}
}

// NewNaive builds the naive construction of Fig 4: `nodes` compute nodes of
// degree dc, node i attached to the dc nearest switches i, i+1, ..., on a
// fabric of n switches. Nodes beyond n wrap around (the paper's replication
// note). Requires n >= 2, dc >= 1, dc <= n.
func NewNaive(fabric Fabric, n, nodes, dc int) (*Topology, error) {
	if n < 2 || dc < 1 || dc > n || nodes < 1 {
		return nil, fmt.Errorf("topology: invalid naive parameters n=%d nodes=%d dc=%d", n, nodes, dc)
	}
	t := newTopology(fmt.Sprintf("naive(n=%d,nodes=%d,dc=%d)", n, nodes, dc), n, nodes)
	buildFabric(t, fabric)
	for i := 0; i < nodes; i++ {
		base := i % n
		for j := 0; j < dc; j++ {
			t.addLink(t.nodeVertex(i), t.switchVertex((base+j)%n))
		}
	}
	return t, nil
}

// NewDiameter builds Construction 2.1 (Fig 5): node ci is attached to
// switches si and s_{(i + floor(n/2) - 1) mod n}, i.e. to switches one less
// than maximally distant, so that each node uses a unique pair. With
// nodes > n the attachment repeats (node j behaves as node j mod n), which
// scales the constant in Theorem 2.1 by nodes/n but preserves the
// asymptotic resistance to partitioning (§2.1 note). Requires dc = 2
// semantics; see NewGeneralizedDiameter for dc > 2.
func NewDiameter(fabric Fabric, n, nodes int) (*Topology, error) {
	if n < 4 || nodes < 1 {
		return nil, fmt.Errorf("topology: diameter construction requires n >= 4, got n=%d", n)
	}
	t := newTopology(fmt.Sprintf("diameter(n=%d,nodes=%d)", n, nodes), n, nodes)
	buildFabric(t, fabric)
	off := n/2 - 1
	if off < 1 {
		off = 1
	}
	for i := 0; i < nodes; i++ {
		base := i % n
		t.addLink(t.nodeVertex(i), t.switchVertex(base))
		t.addLink(t.nodeVertex(i), t.switchVertex((base+off)%n))
	}
	return t, nil
}

// NewGeneralizedDiameter builds the generalisation of Construction 2.1 for
// node degree dc >= 2: each node's dc attachments are spread as evenly as
// possible around the ring, "each connection as far apart as possible from
// its neighbors" (§2.1.4).
func NewGeneralizedDiameter(fabric Fabric, n, nodes, dc int) (*Topology, error) {
	if n < 4 || dc < 2 || dc > n || nodes < 1 {
		return nil, fmt.Errorf("topology: invalid generalized diameter parameters n=%d nodes=%d dc=%d", n, nodes, dc)
	}
	if dc == 2 {
		return NewDiameter(fabric, n, nodes)
	}
	t := newTopology(fmt.Sprintf("gdiameter(n=%d,nodes=%d,dc=%d)", n, nodes, dc), n, nodes)
	buildFabric(t, fabric)
	for i := 0; i < nodes; i++ {
		base := i % n
		seen := make(map[int]bool, dc)
		for j := 0; j < dc; j++ {
			s := (base + j*n/dc) % n
			for seen[s] { // resolve collisions from integer division
				s = (s + 1) % n
			}
			seen[s] = true
			t.addLink(t.nodeVertex(i), t.switchVertex(s))
		}
	}
	return t, nil
}

// FaultSet is a set of failed elements.
type FaultSet struct {
	Switches map[int]bool
	Nodes    map[int]bool
	Links    map[int]bool
}

// NewFaultSet builds a FaultSet from a list of elements.
func NewFaultSet(elems ...Element) FaultSet {
	fs := FaultSet{Switches: map[int]bool{}, Nodes: map[int]bool{}, Links: map[int]bool{}}
	for _, e := range elems {
		switch e.Kind {
		case SwitchElement:
			fs.Switches[e.Index] = true
		case NodeElement:
			fs.Nodes[e.Index] = true
		case LinkElement:
			fs.Links[e.Index] = true
		}
	}
	return fs
}

// Result summarises connectivity after a fault set is applied.
type Result struct {
	// AliveNodes is the number of compute nodes that have not themselves
	// failed.
	AliveNodes int
	// LargestComponent is the number of alive compute nodes in the largest
	// connected component.
	LargestComponent int
	// NodesLost counts compute nodes unable to participate: failed nodes
	// plus alive nodes outside the largest component (the paper's measure
	// for Theorem 2.1).
	NodesLost int
	// Partitioned reports whether the alive compute nodes are split across
	// two or more components (the event Theorem 2.1 precludes for up to
	// three faults).
	Partitioned bool
	// Components is the number of connected components containing at least
	// one alive compute node.
	Components int
}

// Evaluate applies a fault set and analyses the surviving connectivity via
// breadth-first search over alive vertices and links.
func (t *Topology) Evaluate(fs FaultSet) Result {
	aliveVertex := make([]bool, t.vertices())
	for s := 0; s < t.Switches; s++ {
		aliveVertex[t.switchVertex(s)] = !fs.Switches[s]
	}
	aliveNodes := 0
	for i := 0; i < t.Nodes; i++ {
		ok := !fs.Nodes[i]
		aliveVertex[t.nodeVertex(i)] = ok
		if ok {
			aliveNodes++
		}
	}
	visited := make([]bool, t.vertices())
	queue := make([]int, 0, t.vertices())
	var res Result
	res.AliveNodes = aliveNodes
	for start := 0; start < t.vertices(); start++ {
		if visited[start] || !aliveVertex[start] {
			continue
		}
		queue = queue[:0]
		queue = append(queue, start)
		visited[start] = true
		nodeCount := 0
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if v >= t.Switches {
				nodeCount++
			}
			for _, li := range t.adj[v] {
				if fs.Links[li] {
					continue
				}
				l := t.Links[li]
				w := l.U
				if w == v {
					w = l.V
				}
				if aliveVertex[w] && !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
		if nodeCount > 0 {
			res.Components++
			if nodeCount > res.LargestComponent {
				res.LargestComponent = nodeCount
			}
		}
	}
	res.NodesLost = t.Nodes - res.LargestComponent
	res.Partitioned = res.Components > 1
	return res
}

// Elements enumerates every failable element, switches first, then links,
// then nodes.
func (t *Topology) Elements() []Element {
	out := make([]Element, 0, t.Switches+len(t.Links)+t.Nodes)
	for s := 0; s < t.Switches; s++ {
		out = append(out, Element{Kind: SwitchElement, Index: s})
	}
	for l := range t.Links {
		out = append(out, Element{Kind: LinkElement, Index: l})
	}
	for i := 0; i < t.Nodes; i++ {
		out = append(out, Element{Kind: NodeElement, Index: i})
	}
	return out
}

// WorstCase reports the maximum NodesLost over every possible fault set of
// exactly f elements drawn from elems, together with one witnessing fault
// set. It enumerates all C(len(elems), f) combinations; callers bound the
// element list (e.g. switches only) to keep this tractable.
func (t *Topology) WorstCase(elems []Element, f int) (worst Result, witness []Element) {
	chosen := make([]Element, f)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == f {
			r := t.Evaluate(NewFaultSet(chosen...))
			if r.NodesLost > worst.NodesLost || witness == nil {
				worst = r
				witness = append([]Element(nil), chosen...)
			}
			return
		}
		for i := start; i < len(elems); i++ {
			chosen[depth] = elems[i]
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return worst, witness
}

// SwitchElements returns only the switch elements, the fault domain of
// Theorem 2.1's headline statement.
func (t *Topology) SwitchElements() []Element {
	elems := t.Elements()
	return elems[:t.Switches]
}
