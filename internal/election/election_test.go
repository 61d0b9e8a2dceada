package election

import (
	"testing"
	"time"

	"rain/internal/rudp"
	"rain/internal/sim"
)

// testCluster is the election on a simulated two-path RUDP mesh. Stop and
// Restart freeze a node's endpoint together with its engine; Partition and
// Heal cut and restore every bundled path between two groups.
type testCluster struct {
	*MeshCluster
	mesh *rudp.Mesh
}

func newTestCluster(t *testing.T, names ...string) *testCluster {
	t.Helper()
	s := sim.New(555)
	net := sim.NewNetwork(s)
	sim.ApplyProfile(net, names, 2, sim.ProfileLAN)
	mesh, err := rudp.NewMesh(s, net, names, rudp.Config{Paths: 2})
	if err != nil {
		t.Fatal(err)
	}
	return &testCluster{MeshCluster: NewMeshCluster(s, mesh, names, Config{}, mesh.Backlog), mesh: mesh}
}

func (c *testCluster) Stop(name string) {
	c.MeshCluster.Stop(name)
	c.mesh.StopNode(name)
}

func (c *testCluster) Restart(name string) {
	c.mesh.StartNode(name)
	c.MeshCluster.Restart(name)
}

func (c *testCluster) Partition(groupA, groupB []string) { c.setLinks(groupA, groupB, c.mesh.CutLink) }
func (c *testCluster) Heal(groupA, groupB []string)      { c.setLinks(groupA, groupB, c.mesh.HealLink) }

func (c *testCluster) setLinks(groupA, groupB []string, set func(a, b string)) {
	for _, a := range groupA {
		for _, b := range groupB {
			set(a, b)
		}
	}
}

// TestSteadyStateHeartbeatAllocsNothing pins the election hot path: with
// every peer heard and the leader settled, a heartbeat and a tick recompute
// the leader without allocating.
func TestSteadyStateHeartbeatAllocsNothing(t *testing.T) {
	peers := []string{"n1", "n2", "n3", "n5", "n6"}
	n := NewNode("n4", peers, Config{})
	now := int64(0)
	beat := func() {
		now += int64(time.Millisecond)
		for _, p := range peers {
			n.OnHeartbeat(Heartbeat{From: p, Epoch: n.Epoch(), Leader: "n1"}, now)
		}
		n.Tick(now)
	}
	beat()
	if allocs := testing.AllocsPerRun(100, beat); allocs != 0 {
		t.Fatalf("steady-state heartbeat and tick allocate %.1f times per round, want 0", allocs)
	}
	if n.Leader() != "n1" {
		t.Fatalf("leader %s, want n1", n.Leader())
	}
}

func TestUniqueLeaderFaultFree(t *testing.T) {
	c := newTestCluster(t, "n1", "n2", "n3", "n4")
	c.S.RunFor(time.Second)
	leaders := c.Leaders([]string{"n1", "n2", "n3", "n4"})
	if len(leaders) != 1 || leaders[0] != "n1" {
		t.Fatalf("leaders = %v, want [n1] (smallest id)", leaders)
	}
}

func TestLeaderFailover(t *testing.T) {
	c := newTestCluster(t, "n1", "n2", "n3", "n4")
	c.S.RunFor(time.Second)
	c.Stop("n1")
	c.S.RunFor(time.Second)
	leaders := c.Leaders([]string{"n2", "n3", "n4"})
	if len(leaders) != 1 || leaders[0] != "n2" {
		t.Fatalf("leaders after failover = %v, want [n2]", leaders)
	}
	// The epoch advanced to mark the new generation.
	if c.Members["n2"].Epoch() == 0 {
		t.Fatal("epoch did not advance on re-election")
	}
}

func TestCascadingFailures(t *testing.T) {
	c := newTestCluster(t, "n1", "n2", "n3", "n4")
	c.S.RunFor(500 * time.Millisecond)
	c.Stop("n1")
	c.S.RunFor(500 * time.Millisecond)
	c.Stop("n2")
	c.S.RunFor(500 * time.Millisecond)
	leaders := c.Leaders([]string{"n3", "n4"})
	if len(leaders) != 1 || leaders[0] != "n3" {
		t.Fatalf("leaders = %v, want [n3]", leaders)
	}
}

func TestLeaderPerConnectedComponent(t *testing.T) {
	// The protocol's defining property (§5.3): a unique leader in EVERY
	// connected set of nodes.
	c := newTestCluster(t, "n1", "n2", "n3", "n4")
	c.S.RunFor(500 * time.Millisecond)
	c.Partition([]string{"n1", "n2"}, []string{"n3", "n4"})
	c.S.RunFor(time.Second)
	if l := c.Leaders([]string{"n1", "n2"}); len(l) != 1 || l[0] != "n1" {
		t.Fatalf("component {n1,n2} leaders = %v", l)
	}
	if l := c.Leaders([]string{"n3", "n4"}); len(l) != 1 || l[0] != "n3" {
		t.Fatalf("component {n3,n4} leaders = %v", l)
	}
	// Healing the partition merges back to a single leader.
	c.Heal([]string{"n1", "n2"}, []string{"n3", "n4"})
	c.S.RunFor(time.Second)
	if l := c.Leaders([]string{"n1", "n2", "n3", "n4"}); len(l) != 1 || l[0] != "n1" {
		t.Fatalf("healed leaders = %v, want [n1]", l)
	}
}

func TestRecoveredNodeAcceptsCurrentLeader(t *testing.T) {
	c := newTestCluster(t, "n1", "n2", "n3")
	c.S.RunFor(500 * time.Millisecond)
	c.Stop("n2")
	c.S.RunFor(500 * time.Millisecond)
	c.Restart("n2")
	c.S.RunFor(time.Second)
	if l := c.Leaders([]string{"n1", "n2", "n3"}); len(l) != 1 || l[0] != "n1" {
		t.Fatalf("leaders after recovery = %v", l)
	}
}

func TestLeaderChangeHookFires(t *testing.T) {
	c := newTestCluster(t, "n1", "n2")
	var changes []string
	c.Members["n2"].OnLeaderChange(func(leader string, epoch uint64) {
		changes = append(changes, leader)
	})
	c.S.RunFor(500 * time.Millisecond)
	c.Stop("n1")
	c.S.RunFor(time.Second)
	// n2 first adopted n1 as leader, then took over after the crash.
	if len(changes) < 2 || changes[0] != "n1" || changes[len(changes)-1] != "n2" {
		t.Fatalf("leader change sequence = %v", changes)
	}
}

func TestAliveSet(t *testing.T) {
	n := NewNode("a", []string{"b", "c"}, Config{Timeout: 100 * time.Millisecond})
	n.OnHeartbeat(Heartbeat{From: "b", Leader: "b"}, 0)
	alive := n.Alive(int64(50 * time.Millisecond))
	if len(alive) != 2 || alive[0] != "a" || alive[1] != "b" {
		t.Fatalf("alive = %v", alive)
	}
	// b expires after the timeout.
	alive = n.Alive(int64(200 * time.Millisecond))
	if len(alive) != 1 || alive[0] != "a" {
		t.Fatalf("alive after expiry = %v", alive)
	}
}

func TestEngineLeaderIsMinOfAlive(t *testing.T) {
	n := NewNode("m", []string{"a", "z"}, Config{Timeout: 100 * time.Millisecond})
	n.Tick(0)
	if !n.IsLeader() {
		t.Fatal("isolated node must lead itself")
	}
	n.OnHeartbeat(Heartbeat{From: "z", Leader: "z"}, 10)
	if n.Leader() != "m" {
		t.Fatalf("leader = %s, want m (m < z)", n.Leader())
	}
	n.OnHeartbeat(Heartbeat{From: "a", Leader: "a"}, 20)
	if n.Leader() != "a" {
		t.Fatalf("leader = %s, want a", n.Leader())
	}
}
