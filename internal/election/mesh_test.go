package election

import (
	"testing"
	"time"
)

func TestHeartbeatRoundTrip(t *testing.T) {
	hb := Heartbeat{From: "n3", Epoch: 17, Leader: "n1"}
	got, ok := UnmarshalHeartbeat(MarshalHeartbeat(hb))
	if !ok || got != hb {
		t.Fatalf("round trip: %+v ok=%v", got, ok)
	}
	for _, junk := range [][]byte{nil, {0x80}, {1, 5, 'a'}} {
		if _, ok := UnmarshalHeartbeat(junk); ok {
			t.Fatalf("decoded junk %v", junk)
		}
	}
}

// TestMeshElectionConverges runs the election as a live mesh service and
// expects every node to settle on the smallest identity.
func TestMeshElectionConverges(t *testing.T) {
	names := []string{"n1", "n2", "n3", "n4", "n5"}
	c := newTestCluster(t, names...)
	c.S.RunFor(time.Second)
	if l := c.Leaders(names); len(l) != 1 || l[0] != "n1" {
		t.Fatalf("leaders = %v, want [n1]", l)
	}
}

// TestMeshElectionPartitionedLeader cuts every bundled path between the
// leader and the rest: the majority side must elect the next identity, the
// isolated old leader leads only itself, and healing the partition must
// reunify on the smallest identity again.
func TestMeshElectionPartitionedLeader(t *testing.T) {
	names := []string{"n1", "n2", "n3", "n4", "n5"}
	c := newTestCluster(t, names...)
	c.S.RunFor(time.Second)

	c.Partition(names[:1], names[1:])
	c.S.RunFor(2 * time.Second)
	if l := c.Leaders(names[1:]); len(l) != 1 || l[0] != "n2" {
		t.Fatalf("majority leaders = %v, want [n2]", l)
	}
	if l := c.Members["n1"].Leader(); l != "n1" {
		t.Fatalf("isolated node's leader = %s, want itself", l)
	}
	// The reliable mesh would queue heartbeats to the unreachable leader
	// forever; the backlog cap must keep the queues bounded during a long
	// partition.
	for _, p := range names[1:] {
		if b := c.mesh.Backlog(p, "n1"); b > meshHeartbeatBacklog+2 {
			t.Fatalf("%s->n1 backlog %d: heartbeats accumulating past the cap", p, b)
		}
	}

	c.Heal(names[:1], names[1:])
	c.S.RunFor(2 * time.Second)
	if l := c.Leaders(names); len(l) != 1 || l[0] != "n1" {
		t.Fatalf("post-heal leaders = %v, want [n1]", l)
	}
	// Re-election happened: epochs moved past the initial generation.
	if e := c.Members["n2"].Epoch(); e == 0 {
		t.Fatal("no epoch bump across the re-election")
	}
}
