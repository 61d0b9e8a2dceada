package dstore_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rain/internal/dstore"
	"rain/internal/sim"
)

// newJoinCluster is the join harness of the mover tests: a 12-node mesh
// running RS(4,2), count objects of size bytes stored over the first 11
// nodes, then every client's view widened to all 12, so the pass the test
// starts copies each moved slot onto the joiner (the last node). It returns
// the harness, the joiner and the stored objects.
func newJoinCluster(t *testing.T, count, size int) (*placedCluster, string, map[string][]byte) {
	t.Helper()
	const m, n, k = 12, 4, 2
	joiner := fmt.Sprintf("n%02d", m-1)
	c := newPlacedCluster(t, 42, m, n, k, sim.ProfileLAN, func(cfg *dstore.Config) {
		cfg.Nodes = cfg.Nodes[:m-1]
	})
	objects := c.putObjects(count, size)
	for _, node := range c.nodes {
		if err := c.clients[node].SetNodes(c.nodes); err != nil {
			t.Fatal(err)
		}
	}
	return c, joiner, objects
}

// openSessions sums the daemons' open get sessions and the clients'
// registered response handlers: what a finished operation must not leave.
func (c *placedCluster) openSessions() (gets, pending int) {
	for _, node := range c.nodes {
		gets += c.daemons[node].GetSessions()
		pending += c.clients[node].PendingRequests()
	}
	return gets, pending
}

// TestMoverFrozenDestinationEndsBothLegs freezes the joiner's endpoint while
// every view still lists it: each move's outgoing transfer stalls and fails,
// and the mover must end the read leg with it. One second after the pass
// returns, no daemon may still serve a get session to it and no client may
// hold a response handler: an orphaned read would keep hedging to spares.
func TestMoverFrozenDestinationEndsBothLegs(t *testing.T) {
	c, joiner, _ := newJoinCluster(t, 12, 512<<10)
	c.mesh.StopNode(joiner)

	finished := false
	var passErr error
	c.clients[c.nodes[0]].RebalanceAsync(nil, func(_ dstore.RebalanceStats, err error) {
		passErr, finished = err, true
	})
	for !finished && c.s.Step() {
	}
	if !finished {
		t.Fatal("pass did not return")
	}
	if passErr == nil {
		t.Fatal("pass onto a frozen joiner reported success")
	}
	c.s.RunFor(time.Second)
	if gets, pending := c.openSessions(); gets != 0 || pending != 0 {
		t.Fatalf("1 s after the pass: %d daemon get sessions and %d client handlers open, want 0 and 0", gets, pending)
	}
}

// TestMoverCopySourceLeavesView removes a copy source from the view (and the
// mesh) 2 ms into a join pass. The copy's read must notice its one source is
// gone within a stall timeout, so the mover falls back to a rebuild and the
// pass ends within 2 s of the removal, instead of waiting out the copy's
// 15 s operation deadline.
func TestMoverCopySourceLeavesView(t *testing.T) {
	c, joiner, objects := newJoinCluster(t, 24, 1<<20)

	finished := false
	var stats dstore.RebalanceStats
	var passErr error
	c.clients[c.nodes[0]].RebalanceAsync(nil, func(s dstore.RebalanceStats, err error) {
		stats, passErr, finished = s, err, true
	})
	c.s.RunFor(2 * time.Millisecond)
	source := ""
	for _, node := range c.nodes {
		if node != joiner && c.daemons[node].GetSessions() > 0 {
			source = node
			break
		}
	}
	if finished || source == "" {
		t.Fatalf("2 ms into the pass: finished %v, copy source %q", finished, source)
	}
	removed := c.s.Now()
	c.kill(source)
	for !finished && c.s.Step() {
	}
	if !finished {
		t.Fatal("pass did not return")
	}
	if took := time.Duration(c.s.Now() - removed); took > 2*time.Second {
		t.Fatalf("pass ended %v after the copy source left, want within 2s (%+v)", took, stats)
	}
	if passErr != nil {
		t.Fatalf("pass: %v (%+v)", passErr, stats)
	}
	if stats.Rebuilt == 0 {
		t.Fatalf("no move fell back to a rebuild: %+v", stats)
	}
	for id, want := range objects {
		got, err := c.clients[joiner].Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after the pass: %v", id, err)
		}
	}
}
