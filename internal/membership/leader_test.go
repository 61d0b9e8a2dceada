package membership

import (
	"sort"
	"testing"
	"time"
)

// The leader is no protocol of its own: it is the smallest name in a
// member's view (Node.Leader), so every member that holds the same view
// names the same leader, and leadership moves exactly when the view does.
// These tests check the properties the paper asks of a leader election (a
// unique leader per connected set of nodes, re-elected after failures) on
// the ring's own views.

// leaders returns the distinct leaders the given live members name, sorted.
func (c *testCluster) leaders(names ...string) []string {
	set := map[string]bool{}
	for _, n := range names {
		set[c.Members[n].Leader()] = true
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func wantLeader(t *testing.T, c *testCluster, want string, names ...string) {
	t.Helper()
	if l := c.leaders(names...); len(l) != 1 || l[0] != want {
		t.Fatalf("leaders named by %v = %v, want [%s]", names, l, want)
	}
}

func TestLeaderIsMinOfView(t *testing.T) {
	if l := NewNode("m", []string{"z", "m", "q"}, Config{}, nil).Leader(); l != "m" {
		t.Fatalf("leader = %s, want m (m < q < z)", l)
	}
	if l := NewNode("m", []string{"z", "m", "a"}, Config{}, nil).Leader(); l != "a" {
		t.Fatalf("leader = %s, want a", l)
	}
	if l := NewNode("m", []string{"m"}, Config{}, nil).Leader(); l != "m" {
		t.Fatalf("a sole member must lead itself, got %s", l)
	}
}

// TestLeaderScanAllocsNothing pins that Leader scans the ring in place: the
// self-heal gate asks on every rebalance task.
func TestLeaderScanAllocsNothing(t *testing.T) {
	n := NewNode("n4", []string{"n4", "n5", "n6", "n1", "n2", "n3"}, Config{}, nil)
	if allocs := testing.AllocsPerRun(100, func() { n.Leader() }); allocs != 0 {
		t.Fatalf("Leader allocates %.1f times per call, want 0", allocs)
	}
}

func TestUniqueLeaderFaultFree(t *testing.T) {
	names := []string{"n1", "n2", "n3", "n4"}
	c := newTestCluster(t, Aggressive, names...)
	c.S.RunFor(time.Second)
	wantLeader(t, c, "n1", names...)
}

// TestMeshLeaderConverges starts five members over the two-path mesh under
// either detection policy: within a second of the token's first round every
// member names the smallest one.
func TestMeshLeaderConverges(t *testing.T) {
	names := []string{"n1", "n2", "n3", "n4", "n5"}
	for _, det := range []Detection{Aggressive, Conservative} {
		c := newTestCluster(t, det, names...)
		c.S.RunFor(time.Second)
		wantLeader(t, c, "n1", names...)
	}
}

func TestLeaderFailover(t *testing.T) {
	c := newTestCluster(t, Aggressive, "n1", "n2", "n3", "n4")
	c.S.RunFor(time.Second)
	c.Stop("n1")
	c.S.RunFor(3 * time.Second)
	wantLeader(t, c, "n2", "n2", "n3", "n4")
}

func TestCascadingFailures(t *testing.T) {
	c := newTestCluster(t, Aggressive, "n1", "n2", "n3", "n4")
	c.S.RunFor(time.Second)
	c.Stop("n1")
	c.S.RunFor(3 * time.Second)
	c.Stop("n2")
	c.S.RunFor(3 * time.Second)
	wantLeader(t, c, "n3", "n3", "n4")
}

// TestLeaderPerConnectedComponent: the defining property (§5.3) — a unique
// leader in every connected set of nodes, and one again once they merge.
func TestLeaderPerConnectedComponent(t *testing.T) {
	c := newTestCluster(t, Aggressive, "n1", "n2", "n3", "n4")
	c.S.RunFor(time.Second)
	c.partition([]string{"n1", "n2"}, []string{"n3", "n4"}, c.mesh.CutLink)
	c.S.RunFor(8 * time.Second)
	wantLeader(t, c, "n1", "n1", "n2")
	wantLeader(t, c, "n3", "n3", "n4")
	c.partition([]string{"n1", "n2"}, []string{"n3", "n4"}, c.mesh.HealLink)
	c.S.RunFor(10 * time.Second)
	wantLeader(t, c, "n1", "n1", "n2", "n3", "n4")
}

// TestPartitionedLeader cuts every path between the leader and the rest:
// the majority follows the next name, the isolated old leader leads only
// itself, and healing reunites everyone under the smallest name.
func TestPartitionedLeader(t *testing.T) {
	names := []string{"n1", "n2", "n3", "n4", "n5"}
	c := newTestCluster(t, Aggressive, names...)
	c.S.RunFor(time.Second)
	c.partition(names[:1], names[1:], c.mesh.CutLink)
	c.S.RunFor(8 * time.Second)
	wantLeader(t, c, "n2", names[1:]...)
	if v := c.Members["n1"].View(); len(v) != 1 || v[0] != "n1" {
		t.Fatalf("isolated n1's view = %v, want [n1]", v)
	}
	c.partition(names[:1], names[1:], c.mesh.HealLink)
	c.S.RunFor(10 * time.Second)
	wantLeader(t, c, "n1", names...)
}

func TestRecoveredNodeAcceptsCurrentLeader(t *testing.T) {
	c := newTestCluster(t, Aggressive, "n1", "n2", "n3")
	c.S.RunFor(time.Second)
	c.Stop("n2")
	c.S.RunFor(3 * time.Second)
	c.Restart("n2")
	c.S.RunFor(8 * time.Second)
	wantLeader(t, c, "n1", "n1", "n2", "n3")
}

func (c *testCluster) partition(groupA, groupB []string, set func(a, b string)) {
	for _, a := range groupA {
		for _, b := range groupB {
			set(a, b)
		}
	}
}
