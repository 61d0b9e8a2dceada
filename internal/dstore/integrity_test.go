package dstore_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"rain/internal/dstore"
	"rain/internal/sim"
	"rain/internal/storage"
)

// TestCorruptShardTreatedAsErasure flips bits in one holder's shard at
// rest and reads the object: the holder NAKs with corruption, the client
// swaps the shard out for a survivor exactly as if the node were down, the
// read comes back bit-exact, and the asynchronous repair-in-place
// re-creates the quarantined shard on its original holder.
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
	// The corrupt NAK queued a repair-in-place; drain it and audit the
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
// OnCorrupt hook queues a repair on the co-located client (the platform's
// wiring), and the shard is re-created in place.
func TestScrubStepFindsAndRepairs(t *testing.T) {
	c := newCluster(t, 33, 6, 4, sim.ProfileLAN, nil)
	for i, id := range []string{"one", "two", "three"} {
		if _, err := c.clients["a"].Put(id, randBytes(int64(40+i), 24<<10)); err != nil {
			t.Fatal(err)
		}
	}
	c.daemons["c"].OnCorrupt(func(id string, _ int) {
		c.clients["c"].QueueRepair(id, "c")
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
