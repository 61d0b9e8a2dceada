package dstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"rain/internal/dstore"
	"rain/internal/placement"
	"rain/internal/sim"
	"rain/internal/storage"
)

// TestCorruptShardTreatedAsErasure flips bits in one holder's shard at
// rest and reads the object: the holder NAKs with corruption, the client
// swaps the shard out for a survivor exactly as if the node were down, the
// read comes back bit-exact, and the reconciliation pass the holder's
// corruption report starts re-creates the quarantined shard on its original
// holder.
func TestCorruptShardTreatedAsErasure(t *testing.T) {
	c := newCluster(t, 31, 6, 4, sim.ProfileLAN, nil)
	data := randBytes(20, 64<<10)
	if _, err := c.clients["a"].Put("obj", data); err != nil {
		t.Fatal(err)
	}
	b := c.holder("obj", 1) // among the first k the read asks
	if err := c.backends[b].CorruptShard("obj", 1); err != nil {
		t.Fatal(err)
	}
	// The owner's answer to a quarantine is a pass (core pokes its self-heal
	// controllers; here one client runs it).
	c.daemons[b].OnCorrupt(func() {
		c.clients["a"].RebalanceAsync(nil, func(dstore.RebalanceStats, error) {})
	})
	got, err := c.clients["a"].Get("obj")
	if err != nil {
		t.Fatalf("get with one corrupt shard: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrupt shard leaked into the decode")
	}
	if c.backends[b].Quarantined() != 1 {
		t.Fatalf("quarantined on the holder = %d, want 1", c.backends[b].Quarantined())
	}
	// The holder's report started a pass; let it land and audit the
	// holder: the shard must be back, verified clean.
	c.s.RunFor(5 * time.Second)
	if _, err := c.backends[b].Info("obj"); err != nil {
		t.Fatalf("shard not repaired in place on %s: %v", b, err)
	}
	if _, _, err := c.backends[b].Verify("obj"); err != nil {
		t.Fatalf("repaired shard fails verification: %v", err)
	}
	got, err = c.clients["b"].Get("obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after repair: %v", err)
	}
}

// TestCorruptionBeyondMarginSurfacesErrCorrupt damages more shards than
// the code can absorb: the retrieve must fail with the typed ErrCorrupt
// (naming the object), not masquerade as a missing object or a quorum
// problem — the gateway turns exactly this into a 502.
func TestCorruptionBeyondMarginSurfacesErrCorrupt(t *testing.T) {
	c := newCluster(t, 32, 6, 4, sim.ProfileLAN, nil)
	data := randBytes(21, 32<<10)
	if _, err := c.clients["a"].Put("doomed", data); err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"b", "d", "f"} {
		if err := c.backends[node].CorruptShard("doomed", 0); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.clients["a"].Get("doomed")
	if !errors.Is(err, dstore.ErrCorrupt) {
		t.Fatalf("get with 3 corrupt shards: %v, want ErrCorrupt", err)
	}
	if errors.Is(err, dstore.ErrNotFound) {
		t.Fatal("corruption misreported as absence")
	}
	if !strings.Contains(err.Error(), "doomed") {
		t.Fatalf("error does not name the object: %v", err)
	}
}

// TestScrubStepFindsAndRepairs drives the daemon's scrub directly: a
// corruption nothing ever reads is found by the background walk, the
// OnCorrupt hook starts a reconciliation pass on the co-located client, and
// the shard is re-created in place.
func TestScrubStepFindsAndRepairs(t *testing.T) {
	c := newCluster(t, 33, 6, 4, sim.ProfileLAN, nil)
	for i, id := range []string{"one", "two", "three"} {
		if _, err := c.clients["a"].Put(id, randBytes(int64(40+i), 24<<10)); err != nil {
			t.Fatal(err)
		}
	}
	c.daemons["c"].OnCorrupt(func() {
		c.clients["c"].RebalanceAsync(nil, func(dstore.RebalanceStats, error) {})
	})
	if err := c.backends["c"].CorruptShard("two", 7); err != nil {
		t.Fatal(err)
	}
	var found int
	var verified int64
	// One full pass may take several budgeted steps; walk until the wrap.
	for i := 0; i < 10; i++ {
		n, corruptions := c.daemons["c"].ScrubStep(1 << 20)
		verified += n
		found += corruptions
	}
	if found != 1 {
		t.Fatalf("scrub found %d corruptions, want 1", found)
	}
	if verified == 0 {
		t.Fatal("scrub verified no bytes")
	}
	if c.backends["c"].Quarantined() != 1 {
		t.Fatalf("quarantined = %d, want 1", c.backends["c"].Quarantined())
	}
	c.s.RunFor(5 * time.Second)
	if _, _, err := c.backends["c"].Verify("two"); err != nil {
		t.Fatalf("shard not repaired in place: %v", err)
	}
	// Scrubbing again over the repaired set is clean.
	for i := 0; i < 10; i++ {
		if _, corruptions := c.daemons["c"].ScrubStep(1 << 20); corruptions != 0 {
			t.Fatal("repaired shard still scrubs corrupt")
		}
	}
}

// TestCorruptReadReportsOnce checks that a daemon reports a quarantine it
// makes while serving a shard stream, exactly once per corrupt shard,
// whoever reads: a client GET, and a reconciliation pass whose copy source
// is rotten (the pass then rebuilds the shard from k survivors instead).
func TestCorruptReadReportsOnce(t *testing.T) {
	const m, n, k = 8, 6, 4
	c := newPlacedCluster(t, 35, m, n, k, sim.ProfileLAN, nil)
	var reports []string // the reporting daemons' nodes, in order
	for _, node := range c.nodes {
		node := node
		c.daemons[node].OnCorrupt(func() { reports = append(reports, node) })
	}
	expect := func(step string, want ...string) {
		t.Helper()
		if !slices.Equal(reports, want) {
			t.Fatalf("%s: reports from %v, want %v", step, reports, want)
		}
	}

	// A client GET through a rotten holder among the first k asked.
	data := randBytes(36, 40<<10)
	if _, err := c.clients[c.nodes[0]].Put("read", data); err != nil {
		t.Fatal(err)
	}
	peers := placement.Assign("read", c.nodes, n)
	if err := c.backends[peers[1]].CorruptShard("read", 7); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second read finds the shard gone, not rotten
		if got, err := c.clients[c.nodes[0]].Get("read"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	first := peers[1]
	expect("get", first)
	if got := c.backends[first].Quarantined(); got != 1 {
		t.Fatalf("reporting holder %s quarantined %d shards, want 1", first, got)
	}
	// The quarantine left a hole a pass fills without reading the rotten
	// shard again.
	if st, err := c.clients[c.nodes[0]].Rebalance(); err != nil || st.Rebuilt != 1 {
		t.Fatalf("repair pass after the get: %+v, %v", st, err)
	}
	expect("repair pass", first)

	// A pass whose copy source is rotten: a join hands the newcomer one old
	// holder's slot, and that holder's shard has rotted.
	old, newcomer := c.nodes[:m-1], c.nodes[m-1]
	var id, holder string
	slot := -1
	for i := 0; slot < 0; i++ {
		id = fmt.Sprintf("copy-%d", i)
		before, after := placement.Assign(id, old, n), placement.Assign(id, c.nodes, n)
		if s := placement.ShardOf(after, newcomer); s >= 0 && placement.Moves(before, after) == 1 {
			slot, holder = s, before[s]
		}
	}
	setNodes := func(nodes []string) {
		for _, node := range c.nodes {
			if err := c.clients[node].SetNodes(nodes); err != nil {
				t.Fatal(err)
			}
		}
	}
	setNodes(old)
	moved := randBytes(37, 20<<10)
	if _, err := c.clients[old[0]].Put(id, moved); err != nil {
		t.Fatal(err)
	}
	setNodes(c.nodes)
	if err := c.backends[holder].CorruptShard(id, 5); err != nil {
		t.Fatal(err)
	}
	st, err := c.clients[old[0]].Rebalance()
	if err != nil || st.Moved != 0 || st.Rebuilt != 1 {
		t.Fatalf("pass over a rotten copy source: %+v, %v; want one rebuilt shard", st, err)
	}
	expect("pass", first, holder)
	if _, err := c.backends[holder].Info(id); err == nil {
		t.Fatalf("reporting holder %s still lists its rotten shard of %s", holder, id)
	}
	if info, err := c.backends[newcomer].Info(id); err != nil || info.Shard != slot {
		t.Fatalf("newcomer %s: %+v, %v; want shard %d", newcomer, info, err, slot)
	}
	if _, _, err := c.backends[newcomer].Verify(id); err != nil {
		t.Fatalf("rebuilt shard fails verification: %v", err)
	}
}

// TestDaemonEndsCorruptGetSession sends a raw GetReq for a shard that has
// rotted at rest and never cancels it: the daemon NAKs the read with the
// corruption, and the NAK ends its get session, so nothing is left open for
// the orphan sweep.
func TestDaemonEndsCorruptGetSession(t *testing.T) {
	c := newCluster(t, 33, 5, 3, sim.ProfileLAN, nil)
	if _, err := c.clients["a"].Put("obj", randBytes(22, 32<<10)); err != nil {
		t.Fatal(err)
	}
	holder := c.holder("obj", 1)
	if err := c.backends[holder].CorruptShard("obj", 3); err != nil {
		t.Fatal(err)
	}
	d := c.daemons[holder]
	errs := d.Stats().Errors
	c.mesh.SendService("a", holder, dstore.ServiceDaemon, dstore.Msg{
		Kind: dstore.KindGetReq,
		Req:  993,
		ID:   "obj",
		Win:  2,
	}.Marshal())
	c.s.RunFor(time.Second)
	if d.Stats().Errors != errs+1 || c.backends[holder].Quarantined() != 1 {
		t.Fatalf("no corruption NAK: errors %d -> %d, quarantined %d", errs, d.Stats().Errors, c.backends[holder].Quarantined())
	}
	if n := d.GetSessions(); n != 0 {
		t.Fatalf("%d get sessions open 1 s after the NAK, want 0", n)
	}
}

// TestStalledReadHedges arms a stalled-disk fault under one daemon (the
// chaos wrapper's trick, inlined here): the daemon drops reads silently,
// so only the client's hedging can complete the retrieve — and it must.
func TestStalledReadHedges(t *testing.T) {
	c := newCluster(t, 34, 6, 4, sim.ProfileLAN, nil)
	data := randBytes(50, 48<<10)
	if _, err := c.clients["a"].Put("slow", data); err != nil {
		t.Fatal(err)
	}
	// Rebuild one of the first k holders' daemon over a store whose reads
	// stall (the new handler displaces the old one on the mesh).
	b := c.holder("slow", 1)
	st := &stallStore{Backend: c.backends[b]}
	c.daemons[b] = dstore.NewDaemon(c.mesh, b, 0, st, 4<<10)
	got, err := c.clients["a"].Get("slow")
	if err != nil {
		t.Fatalf("get with one stalled disk: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stalled-disk read not bit-exact")
	}
}

// stallStore is a minimal fault wrapper: every ReadAt stalls.
type stallStore struct {
	*storage.Backend
}

func (s *stallStore) ReadAt(id string, p []byte, off int64) error {
	return storage.ErrStalled
}
