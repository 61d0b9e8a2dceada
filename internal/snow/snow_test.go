package snow

import (
	"fmt"
	"testing"
	"time"

	"rain/internal/membership"
	"rain/internal/sim"
)

func newTestCluster(t *testing.T, names ...string) *Cluster {
	t.Helper()
	s := sim.New(808)
	c, err := New(s, sim.NewNetwork(s), names, Config{MaxPerHold: 4})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func submitBatch(c *Cluster, names []string, n int, prefix string) []string {
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("%s-%04d", prefix, i)
		c.Submit(names[i%len(names)], ids[i])
	}
	return ids
}

// TestExactlyOneReply: the headline §5.2 guarantee — one and only one
// server replies to each request (E18).
func TestExactlyOneReply(t *testing.T) {
	names := []string{"A", "B", "C", "D"}
	c := newTestCluster(t, names...)
	c.M.S.RunFor(500 * time.Millisecond)
	ids := submitBatch(c, names, 200, "req")
	c.M.S.RunFor(5 * time.Second)
	replies := c.Replies()
	for _, id := range ids {
		if got := len(replies[id]); got != 1 {
			t.Fatalf("request %s replied to %d times by %v", id, got, replies[id])
		}
	}
}

// TestLoadSpreadsAcrossServers: MaxPerHold forces the queue to drain across
// successive token holders, so every server does a share of the work.
func TestLoadSpreadsAcrossServers(t *testing.T) {
	names := []string{"A", "B", "C", "D"}
	c := newTestCluster(t, names...)
	c.M.S.RunFor(500 * time.Millisecond)
	submitBatch(c, names, 400, "req")
	c.M.S.RunFor(10 * time.Second)
	total := 0
	for _, n := range names {
		served := c.Servers[n].Served()
		total += served
		if served == 0 {
			t.Fatalf("server %s served nothing", n)
		}
	}
	if total != 400 {
		t.Fatalf("total served = %d, want 400", total)
	}
}

// TestServerFailureDoesNotDuplicate: killing a (non-holder) server after its
// inbox has been merged loses no requests and duplicates none — the
// remaining servers answer everything exactly once (E18).
func TestServerFailureDoesNotDuplicate(t *testing.T) {
	names := []string{"A", "B", "C", "D"}
	c := newTestCluster(t, names...)
	c.M.S.RunFor(500 * time.Millisecond)
	ids := submitBatch(c, names, 200, "req")
	// Give the cluster a moment to merge inboxes onto the token, then
	// crash a server that is not holding the token.
	c.M.S.RunFor(300 * time.Millisecond)
	victim := ""
	for _, n := range names {
		if !c.M.Members[n].HasToken() {
			victim = n
			break
		}
	}
	c.Stop(victim)
	c.M.S.RunFor(10 * time.Second)
	replies := c.Replies()
	for _, id := range ids {
		if got := len(replies[id]); got != 1 {
			t.Fatalf("after killing %s: request %s replied %d times", victim, id, got)
		}
	}
}

// TestContinuousServiceAcrossFailure: requests submitted after a failure are
// still served — the cluster reconfigures and keeps answering.
func TestContinuousServiceAcrossFailure(t *testing.T) {
	names := []string{"A", "B", "C", "D"}
	c := newTestCluster(t, names...)
	c.M.S.RunFor(500 * time.Millisecond)
	c.Stop("D")
	c.M.S.RunFor(3 * time.Second) // membership reconfigures to {A,B,C}
	live := []string{"A", "B", "C"}
	ids := submitBatch(c, live, 90, "late")
	c.M.S.RunFor(6 * time.Second)
	replies := c.Replies()
	for _, id := range ids {
		if got := len(replies[id]); got != 1 {
			t.Fatalf("request %s replied %d times after reconfiguration", id, got)
		}
	}
}

// TestQueueSurvivesTokenTravel: the queue is really on the token — requests
// submitted to one server get served by others.
func TestQueueSurvivesTokenTravel(t *testing.T) {
	names := []string{"A", "B", "C"}
	c := newTestCluster(t, names...)
	c.M.S.RunFor(500 * time.Millisecond)
	// Everything goes to A, MaxPerHold=4 means A alone cannot drain it in
	// one hold: others must pick work off the token.
	for i := 0; i < 60; i++ {
		c.Submit("A", fmt.Sprintf("toA-%02d", i))
	}
	c.M.S.RunFor(5 * time.Second)
	if c.Servers["B"].Served() == 0 && c.Servers["C"].Served() == 0 {
		t.Fatal("queue did not travel: only the receiving server served")
	}
	total := c.Servers["A"].Served() + c.Servers["B"].Served() + c.Servers["C"].Served()
	if total != 60 {
		t.Fatalf("total served = %d, want 60", total)
	}
}

// TestDuplicateSubmissionDeduplicated: a client retrying into a different
// server does not cause a duplicate reply (dedup against pending+done).
func TestDuplicateSubmissionDeduplicated(t *testing.T) {
	names := []string{"A", "B", "C"}
	c := newTestCluster(t, names...)
	c.M.S.RunFor(500 * time.Millisecond)
	c.Submit("A", "dup-1")
	c.Submit("B", "dup-1") // client retry to another server
	c.M.S.RunFor(3 * time.Second)
	c.Submit("C", "dup-1") // late retry after it was served
	c.M.S.RunFor(3 * time.Second)
	if got := len(c.Replies()["dup-1"]); got != 1 {
		t.Fatalf("duplicate submission served %d times", got)
	}
}

func TestMembershipConfigPassthrough(t *testing.T) {
	s := sim.New(9)
	net := sim.NewNetwork(s)
	cfg := Config{Membership: membership.Config{Detection: membership.Conservative}, MaxPerHold: 2}
	c, err := New(s, net, []string{"A", "B"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second)
	c.Submit("A", "one")
	s.RunFor(2 * time.Second)
	if got := len(c.Replies()["one"]); got != 1 {
		t.Fatalf("request served %d times", got)
	}
}
