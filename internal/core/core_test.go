package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/linkstate"
)

var sixNodes = []string{"n1", "n2", "n3", "n4", "n5", "n6"}

func newPlatform(t *testing.T, opts Options) *Platform {
	t.Helper()
	p, err := New(sixNodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlatformBootsToConsensus(t *testing.T) {
	p := newPlatform(t, Options{Seed: 1})
	p.Run(2 * time.Second)
	view, ok := p.Consensus()
	if !ok || len(view) != 6 {
		t.Fatalf("no 6-node consensus: %v ok=%v", view, ok)
	}
	if leader := p.Leader("n3"); leader != "n1" {
		t.Fatalf("leader = %s, want n1", leader)
	}
	if p.Code().Name() != "bcode(6,4)" {
		t.Fatalf("default code = %s, want bcode(6,4)", p.Code().Name())
	}
}

func TestPlatformStorageSurvivesCrashes(t *testing.T) {
	p := newPlatform(t, Options{Seed: 2})
	p.Run(time.Second)
	data := []byte("platform-level distributed store")
	if err := p.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	if err := p.Pause("n2"); err != nil {
		t.Fatal(err)
	}
	if err := p.Pause("n5"); err != nil {
		t.Fatal(err)
	}
	p.Run(3 * time.Second)
	got, err := p.Get("obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after two crashes: %v", err)
	}
	// Membership reconfigured around the crashes.
	view, ok := p.Consensus()
	if !ok || len(view) != 4 {
		t.Fatalf("consensus after crashes: %v ok=%v", view, ok)
	}
}

func TestPlatformRecovery(t *testing.T) {
	p := newPlatform(t, Options{Seed: 3})
	p.Run(time.Second)
	if err := p.Pause("n4"); err != nil {
		t.Fatal(err)
	}
	p.Run(3 * time.Second)
	if err := p.Resume("n4"); err != nil {
		t.Fatal(err)
	}
	p.Run(10 * time.Second)
	view, ok := p.Consensus()
	if !ok || len(view) != 6 {
		t.Fatalf("consensus after recovery: %v ok=%v", view, ok)
	}
}

func TestPlatformMessagingMasksPathCut(t *testing.T) {
	p := newPlatform(t, Options{Seed: 4})
	got := 0
	p.OnMessage("n2", func(from string, payload []byte) { got++ })
	p.Run(300 * time.Millisecond)
	p.CutPath("n1", "n2", 0)
	p.Run(500 * time.Millisecond)
	for i := 0; i < 20; i++ {
		p.Send("n1", "n2", []byte("x"))
	}
	p.Run(2 * time.Second)
	if got != 20 {
		t.Fatalf("delivered %d of 20 with one path cut", got)
	}
	if p.Mesh.Conn("n1", "n2").PathStatus(0) != linkstate.Down {
		t.Fatal("cut path not detected Down")
	}
	p.HealPath("n1", "n2", 0)
	p.Run(time.Second)
	if p.Mesh.Conn("n1", "n2").PathStatus(0) != linkstate.Up {
		t.Fatal("healed path not detected Up")
	}
}

func TestPlatformLeaderFailover(t *testing.T) {
	p := newPlatform(t, Options{Seed: 5})
	p.Run(time.Second)
	if err := p.Pause("n1"); err != nil {
		t.Fatal(err)
	}
	p.Run(2 * time.Second)
	if leader := p.Leader("n3"); leader != "n2" {
		t.Fatalf("leader after crash = %s, want n2", leader)
	}
}

func TestPlatformValidation(t *testing.T) {
	if _, err := New([]string{"solo"}, Options{}); err == nil {
		t.Fatal("single-node platform accepted")
	}
	wide, err := ecc.NewReedSolomon(8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(sixNodes, Options{Code: wide}); err == nil {
		t.Fatal("code wider than the cluster accepted")
	}
	// A code narrower than the cluster is the placement-mapped layout.
	narrow, err := ecc.NewBCode(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(sixNodes, Options{Code: narrow}); err != nil {
		t.Fatalf("placement-mapped narrow code rejected: %v", err)
	}
	if _, err := New(sixNodes, Options{}); err != nil {
		t.Fatalf("valid platform rejected: %v", err)
	}
	if err := func() error { p := newPlatform(t, Options{Seed: 9}); return p.Pause("ghost") }(); err == nil {
		t.Fatal("crashing unknown node accepted")
	}
}

// TestPlatformHotSwap crashes a node, hot-swaps a blank replacement in, and
// checks the replacement's shards were rebuilt over the mesh and that the
// cluster regains full fault tolerance.
func TestPlatformHotSwap(t *testing.T) {
	p := newPlatform(t, Options{Seed: 8})
	p.Run(time.Second)
	objects := map[string][]byte{}
	for _, id := range []string{"x", "y", "z"} {
		data := []byte("object " + id + " payload for the hot-swap test")
		objects[id] = data
		if err := p.Put(id, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Pause("n3"); err != nil {
		t.Fatal(err)
	}
	p.Run(3 * time.Second) // membership excises n3
	preStats := p.Daemons["n3"].Stats()
	rebuilt, err := p.ReplaceNode("n3")
	if err != nil {
		t.Fatalf("replace: %v", err)
	}
	if rebuilt != len(objects) {
		t.Fatalf("rebuilt %d objects, want %d", rebuilt, len(objects))
	}
	post := p.Daemons["n3"].Stats()
	if post.Commits-preStats.Commits != len(objects) {
		t.Fatalf("replacement daemon commits %d->%d — shards did not arrive via mesh", preStats.Commits, post.Commits)
	}
	// The cluster tolerates n-k fresh failures again, including reads that
	// must lean on the rebuilt node's shards.
	p.Run(10 * time.Second) // n3 readmitted via 911
	for _, n := range []string{"n1", "n2"} {
		if err := p.Pause(n); err != nil {
			t.Fatal(err)
		}
	}
	p.Run(2 * time.Second)
	for id, want := range objects {
		got, err := p.Get(id)
		if err != nil {
			t.Fatalf("get %s after swap: %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("get %s after swap: corrupted", id)
		}
	}
}

// TestReplaceNodeRebuildsEachShardOnce hot-swaps a node while the leader's
// controller is armed to fire within a millisecond of the node's return.
// ReplaceNode is a request to that controller, so the pass the view change
// arms and the hot swap's pass are one pass: the 40 missing shards are
// rebuilt exactly once, and no second pass runs.
func TestReplaceNodeRebuildsEachShardOnce(t *testing.T) {
	p, err := New([]string{"n6", "n5", "n4", "n3", "n2", "n1"}, Options{
		Seed:              31,
		RebalanceDebounce: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(time.Second)
	const objects, size = 40, 256 << 10
	for i := 0; i < objects; i++ {
		if err := p.Put(fmt.Sprintf("obj-%d", i), selfHealPayload(i, size)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := p.Pause("n4"); err != nil {
		t.Fatal(err)
	}
	p.Run(3 * time.Second) // membership excises n4
	counter := func(name string) uint64 { return telemetryCounterTotal(p.Telemetry.Snapshot(), name) }
	passes, rebuiltShards := counter("rebalance.passes"), counter("rebalance.shards_rebuilt")
	rebuilt, err := p.ReplaceNode("n4")
	if err != nil || rebuilt != objects {
		t.Fatalf("replace: rebuilt %d, %v; want %d", rebuilt, err, objects)
	}
	if got := p.Backends["n4"].Objects(); got != objects {
		t.Fatalf("replacement holds %d shards, want %d", got, objects)
	}
	p.Run(5 * time.Second)
	if got := counter("rebalance.passes") - passes; got != 1 {
		t.Fatalf("rebalance.passes rose by %d across the hot swap, want 1", got)
	}
	if got := counter("rebalance.shards_rebuilt") - rebuiltShards; got != objects {
		t.Fatalf("rebalance.shards_rebuilt rose by %d for %d missing shards", got, objects)
	}
}

// TestPlatformRepairsRevivedNodeWithoutRebalance revives a node that missed
// writes on a default-options Platform: the view change that readmits it
// arms the leader's controller, whose pass rebuilds the node's shard of
// every object written while it was down, with no caller Rebalance.
func TestPlatformRepairsRevivedNodeWithoutRebalance(t *testing.T) {
	p := newPlatform(t, Options{Seed: 37})
	p.Run(time.Second)
	if err := p.Pause("n4"); err != nil {
		t.Fatal(err)
	}
	p.Run(3 * time.Second) // membership excises n4
	const objects, size = 8, 16 << 10
	for i := 0; i < objects; i++ {
		if err := p.Put(fmt.Sprintf("obj-%d", i), selfHealPayload(i, size)); err != nil {
			t.Fatalf("put %d with n4 down: %v", i, err)
		}
	}
	if got := p.Backends["n4"].Objects(); got != 0 {
		t.Fatalf("crashed n4 holds %d shards", got)
	}
	if err := p.Resume("n4"); err != nil {
		t.Fatal(err)
	}
	p.Run(6 * time.Second) // readmission, then past the 1s debounce
	for i := 0; i < objects; i++ {
		id := fmt.Sprintf("obj-%d", i)
		if _, err := p.Backends["n4"].Info(id); err != nil {
			t.Fatalf("revived n4 lacks its shard of %s: %v", id, err)
		}
		if got, err := p.Get(id); err != nil || !bytes.Equal(got, selfHealPayload(i, size)) {
			t.Fatalf("get %s after the repair: %v", id, err)
		}
	}
}

// TestPlatformRebalanceRequestsQueueBehindTheRunningPass wipes a live node's
// shards and asks for two passes back to back. The first runs at once on the
// leader's controller; the second waits for it to end and then runs, so it
// finds nothing left, and neither pass counts as the controller's own.
func TestPlatformRebalanceRequestsQueueBehindTheRunningPass(t *testing.T) {
	p := newPlatform(t, Options{Seed: 53})
	p.Run(time.Second)
	const objects = 8
	for i := 0; i < objects; i++ {
		if err := p.Put(fmt.Sprintf("obj-%d", i), selfHealPayload(i, 16<<10)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	p.Backends["n3"].Wipe()
	var order []dstore.RebalanceStats
	for i := 0; i < 2; i++ {
		err := p.RebalanceAsync(func(st dstore.RebalanceStats, err error) {
			if err != nil {
				t.Errorf("pass %d: %v", len(order), err)
			}
			order = append(order, st)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for len(order) < 2 && p.Scheduler.Step() {
	}
	if len(order) != 2 || order[0].Rebuilt != objects || order[1].Objects != 0 {
		t.Fatalf("passes answered %+v; want %d shards rebuilt, then nothing left", order, objects)
	}
	if got := telemetryCounterTotal(p.Telemetry.Snapshot(), "rebalance.passes"); got != 2 {
		t.Fatalf("rebalance.passes = %d, want 2", got)
	}
	if st := p.SelfHealStats("n1"); st.Passes != 0 || st.Moves.Rebuilt != 0 {
		t.Fatalf("requested passes counted as the controller's own: %+v", st)
	}
}

func TestPlatformCustomCode(t *testing.T) {
	rs, err := ecc.NewReedSolomon(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(sixNodes, Options{Seed: 6, Code: rs})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(500 * time.Millisecond)
	if err := p.Put("obj", []byte("rs-backed")); err != nil {
		t.Fatal(err)
	}
	// n-k = 3 crashes tolerated with rs(6,3).
	for _, n := range []string{"n1", "n2", "n3"} {
		if err := p.Pause(n); err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.Get("obj")
	if err != nil || string(got) != "rs-backed" {
		t.Fatalf("rs(6,3) get after 3 crashes: %v", err)
	}
}

// TestPlatformStreamingStore pushes an object through the streaming put/get
// path on file-backed storage, crashes a node, hot-swaps it back, and checks
// the rebuilt blocked shards still serve streaming reads.
func TestPlatformStreamingStore(t *testing.T) {
	p := newPlatform(t, Options{
		Seed:       9,
		BlockSize:  8 << 10,
		StorageDir: t.TempDir(),
	})
	p.Run(500 * time.Millisecond)
	data := make([]byte, 200<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := p.PutStream("stream-obj", bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatalf("putstream: %v", err)
	}
	var out bytes.Buffer
	if n, err := p.GetStream("stream-obj", &out); err != nil || n != int64(len(data)) {
		t.Fatalf("getstream: n=%d err=%v", n, err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("streaming roundtrip corrupted")
	}
	// Crash a shard holder; the streaming read must hedge around it.
	if err := p.Pause("n2"); err != nil {
		t.Fatal(err)
	}
	p.Run(2 * time.Second) // membership excises the node
	out.Reset()
	if _, err := p.GetStream("stream-obj", &out); err != nil || !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("getstream after crash: %v", err)
	}
	// Hot-swap the node back in: the block-wise rebuild restores its shard
	// stream, after which a streaming read through the full cluster works.
	rebuilt, err := p.ReplaceNode("n2")
	if err != nil || rebuilt != 1 {
		t.Fatalf("replace: n=%d err=%v", rebuilt, err)
	}
	p.Run(2 * time.Second)
	out.Reset()
	if _, err := p.GetStream("stream-obj", &out); err != nil || !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("getstream after hot swap: %v", err)
	}
}
