package dstore_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/placement"
	"rain/internal/rudp"
	"rain/internal/sim"
	"rain/internal/storage"
	"rain/internal/telemetry"
)

// placedCluster is the placement-mode test harness: m mesh nodes each
// running a storage daemon, with every client mapping objects onto n-of-m
// placements by rendezvous hashing. down simulates the membership view fed
// to Config.Alive.
type placedCluster struct {
	t        *testing.T
	s        *sim.Scheduler
	net      *sim.Network
	mesh     *rudp.Mesh
	nodes    []string
	code     ecc.Code
	down     map[string]bool
	backends map[string]*storage.Backend
	daemons  map[string]*dstore.Daemon
	clients  map[string]*dstore.Client
}

func newPlacedCluster(t *testing.T, seed int64, m, n, k int, link sim.LinkConfig, tweak func(*dstore.Config)) *placedCluster {
	return newPlacedClusterDir(t, seed, m, n, k, link, "", tweak)
}

// newPlacedClusterDir is newPlacedCluster with file-backed shard stores
// under dir when dir is non-empty — the harness for heap-bound tests, where
// stored shards must not occupy client or daemon memory.
func newPlacedClusterDir(t *testing.T, seed int64, m, n, k int, link sim.LinkConfig, dir string, tweak func(*dstore.Config)) *placedCluster {
	t.Helper()
	code, err := ecc.NewReedSolomon(n, k)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]string, m)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%02d", i)
	}
	s := sim.New(seed)
	net := sim.NewNetwork(s)
	sim.ApplyProfile(net, nodes, 2, link)
	mesh, err := rudp.NewMesh(s, net, nodes, rudp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := &placedCluster{
		t: t, s: s, net: net, mesh: mesh, nodes: nodes, code: code,
		down:     make(map[string]bool),
		backends: make(map[string]*storage.Backend),
		daemons:  make(map[string]*dstore.Daemon),
		clients:  make(map[string]*dstore.Client),
	}
	simClock := func() time.Time { return time.Unix(0, int64(s.Now())) }
	for i, node := range nodes {
		if dir == "" {
			c.backends[node] = storage.NewBackend()
		} else {
			b, err := storage.NewFileBackend(filepath.Join(dir, node))
			if err != nil {
				t.Fatal(err)
			}
			c.backends[node] = b
		}
		c.daemons[node] = dstore.NewDaemon(mesh, node, i, c.backends[node], 4<<10, dstore.WithDaemonClock(simClock))
		cfg := dstore.Config{
			Code:      code,
			Nodes:     nodes,
			ChunkSize: 4 << 10,
			Alive:     func(peer string) bool { return !c.down[peer] },
		}
		if tweak != nil {
			tweak(&cfg)
		}
		cl, err := dstore.NewClient(s, mesh, node, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.clients[node] = cl
	}
	s.RunFor(100 * time.Millisecond) // let path monitors come up
	return c
}

// kill takes a node off the mesh and out of every client's liveness view.
func (c *placedCluster) kill(node string) {
	c.down[node] = true
	c.mesh.StopNode(node)
}

// totalShards counts shards held across the whole cluster.
func (c *placedCluster) totalShards() int {
	total := 0
	for _, b := range c.backends {
		total += b.Objects()
	}
	return total
}

// putObjects stores count objects of size bytes each from the first node's
// client and returns their contents by id.
func (c *placedCluster) putObjects(count, size int) map[string][]byte {
	c.t.Helper()
	objects := make(map[string][]byte, count)
	for i := 0; i < count; i++ {
		id := fmt.Sprintf("obj%03d", i)
		data := randBytes(int64(1000+i), size)
		if _, err := c.clients[c.nodes[0]].Put(id, data); err != nil {
			c.t.Fatalf("put %s: %v", id, err)
		}
		objects[id] = data
	}
	return objects
}

// expectedMoves sums the placement deltas between two universes.
func (c *placedCluster) expectedMoves(objects map[string][]byte, oldNodes, newNodes []string) int {
	n := c.code.N()
	moves := 0
	for id := range objects {
		moves += placement.Moves(placement.Assign(id, oldNodes, n), placement.Assign(id, newNodes, n))
	}
	return moves
}

// TestRebalanceLeaveDeltaMinimal removes one node from a 12-node universe
// and checks the rebalancer moves only the ~1/m of shard placements the
// rendezvous delta demands — and that no object loses availability while
// the move is in flight.
func TestRebalanceLeaveDeltaMinimal(t *testing.T) {
	const m, n, k, objectCount = 12, 4, 2, 48
	// Budget 1 serialises the move pipeline so the rebalance spans enough
	// virtual time for the availability probes to race it.
	c := newPlacedCluster(t, 41, m, n, k, sim.ProfileLAN, func(cfg *dstore.Config) { cfg.RebuildBudget = 1 })
	objects := c.putObjects(objectCount, 8<<10)
	if got := c.totalShards(); got != objectCount*n {
		t.Fatalf("placed %d shards, want %d", got, objectCount*n)
	}

	// The leaver stays up (graceful decommission): its shards must still be
	// deleted once their replacements commit.
	leaver := c.nodes[m-1]
	remaining := c.nodes[:m-1]
	for _, node := range c.nodes {
		if err := c.clients[node].SetNodes(remaining); err != nil {
			t.Fatal(err)
		}
	}
	expected := c.expectedMoves(objects, c.nodes, remaining)
	if limit := 2 * objectCount * n / m; expected > limit {
		t.Fatalf("placement delta %d above the ~1/m bound %d", expected, limit)
	}

	// Probe availability from another node's client while the move runs.
	probeFailures, probes := 0, 0
	var probe func(i int)
	rebalancing := true
	probe = func(i int) {
		if !rebalancing {
			return
		}
		id := fmt.Sprintf("obj%03d", i%objectCount)
		probes++
		c.clients[c.nodes[1]].GetAsync(id, func(data []byte, err error) {
			if err != nil || !bytes.Equal(data, objects[id]) {
				probeFailures++
			}
		})
		c.s.After(200*time.Microsecond, func() { probe(i + 7) })
	}
	probe(0)

	var stats dstore.RebalanceStats
	var rbErr error
	c.clients[c.nodes[2]].RebalanceAsync([]string{leaver}, func(s dstore.RebalanceStats, err error) {
		stats, rbErr = s, err
		rebalancing = false
	})
	deadline := c.s.Now().Add(2 * time.Minute)
	for rebalancing && c.s.Now() < deadline && c.s.Step() {
	}
	if rebalancing {
		t.Fatal("rebalance did not finish")
	}
	if rbErr != nil {
		t.Fatalf("rebalance: %v", rbErr)
	}
	if probes < 20 {
		t.Fatalf("only %d availability probes ran", probes)
	}
	c.s.RunFor(time.Second) // let in-flight probes resolve
	if probeFailures > 0 {
		t.Fatalf("%d of %d reads failed during the rebalance", probeFailures, probes)
	}

	// Delta-exactness: the rebalancer did precisely the placement delta's
	// work, and — with the leaver drained gracefully — every move was a
	// holder-to-holder copy at repair bandwidth 1, never a k-read
	// reconstruction.
	if stats.Moved != expected || stats.Rebuilt != 0 {
		t.Fatalf("moved %d rebuilt %d shards, placement delta is %d", stats.Moved, stats.Rebuilt, expected)
	}
	if c.backends[leaver].Objects() != 0 {
		t.Fatalf("leaver still holds %d shards after rebalance", c.backends[leaver].Objects())
	}
	if got := c.totalShards(); got != objectCount*n {
		t.Fatalf("%d shards after rebalance, want %d (stale copies left?)", got, objectCount*n)
	}
	// Every object must survive the leaver actually disappearing.
	c.kill(leaver)
	for id, want := range objects {
		got, err := c.clients[c.nodes[3]].Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after decommission: %v", id, err)
		}
	}
}

// TestRebalanceCrashLeaveReconstructs is the abrupt form of a leave: the
// node is dead before the view changes, so the rebalancer must reconstruct
// its slots from k survivors while still moving only the placement delta.
func TestRebalanceCrashLeaveReconstructs(t *testing.T) {
	const m, n, k, objectCount = 10, 4, 2, 32
	c := newPlacedCluster(t, 45, m, n, k, sim.ProfileLAN, nil)
	objects := c.putObjects(objectCount, 8<<10)

	dead := c.nodes[m-1]
	c.kill(dead)
	remaining := c.nodes[:m-1]
	for _, node := range remaining {
		if err := c.clients[node].SetNodes(remaining); err != nil {
			t.Fatal(err)
		}
	}
	expected := c.expectedMoves(objects, c.nodes, remaining)

	stats, err := c.clients[c.nodes[0]].Rebalance()
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if stats.Moved+stats.Rebuilt != expected {
		t.Fatalf("moved %d + rebuilt %d, placement delta is %d", stats.Moved, stats.Rebuilt, expected)
	}
	if stats.Rebuilt == 0 {
		t.Fatal("nothing reconstructed; the dead node's slots went nowhere")
	}
	for id, want := range objects {
		got, err := c.clients[c.nodes[1]].Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after crash-leave rebalance: %v", id, err)
		}
	}
}

// TestRebalanceJoinDeltaMinimal starts with an 11-node universe on a
// 12-node mesh, then admits the 12th node: only ~1/m of shard placements
// may move, every move must be a holder-to-holder copy (no reconstruction
// — all sources are alive), and the newcomer ends up with its fair share.
func TestRebalanceJoinDeltaMinimal(t *testing.T) {
	const m, n, k, objectCount = 12, 4, 2, 48
	joiner := fmt.Sprintf("n%02d", m-1)
	c := newPlacedCluster(t, 42, m, n, k, sim.ProfileLAN, func(cfg *dstore.Config) {
		initial := make([]string, 0, m-1)
		for _, node := range cfg.Nodes {
			if node != joiner {
				initial = append(initial, node)
			}
		}
		cfg.Nodes = initial
	})
	objects := c.putObjects(objectCount, 8<<10)
	if c.backends[joiner].Objects() != 0 {
		t.Fatal("joiner holds shards before joining")
	}

	initial := make([]string, 0, m-1)
	for _, node := range c.nodes {
		if node != joiner {
			initial = append(initial, node)
		}
	}
	for _, node := range c.nodes {
		if err := c.clients[node].SetNodes(c.nodes); err != nil {
			t.Fatal(err)
		}
	}
	expected := c.expectedMoves(objects, initial, c.nodes)
	if limit := 2 * objectCount * n / m; expected > limit {
		t.Fatalf("placement delta %d above the ~1/m bound %d", expected, limit)
	}

	stats, err := c.clients[c.nodes[0]].Rebalance()
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if stats.Moved != expected || stats.Rebuilt != 0 {
		t.Fatalf("moved %d rebuilt %d, want exactly %d copies (all sources alive)", stats.Moved, stats.Rebuilt, expected)
	}
	joined := c.backends[joiner].Objects()
	if mean := objectCount * n / m; joined == 0 || joined > 2*mean {
		t.Fatalf("joiner holds %d shards, want ~%d", joined, mean)
	}
	if got := c.totalShards(); got != objectCount*n {
		t.Fatalf("%d shards after rebalance, want %d", got, objectCount*n)
	}
	for id, want := range objects {
		got, err := c.clients[joiner].Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after join: %v", id, err)
		}
	}
	// A second pass must find nothing to do — the map has converged.
	again, err := c.clients[c.nodes[5]].Rebalance()
	if err != nil {
		t.Fatalf("second rebalance: %v", err)
	}
	if again.Moved+again.Rebuilt+again.Deleted != 0 {
		t.Fatalf("second pass still moved work: %+v", again)
	}
}

// TestRebalanceAtMinimumRedundancy is the worst tolerated case: n-k nodes
// die at once, so many objects sit at exactly k live shards when the view
// shrinks. Every object must stay readable the moment the view changes
// (streams carry their true shard index, so not-yet-moved entries still
// serve), the rebalance must reconcile without error — rebuilding missing
// shards onto destinations that hold stale entries consumes those entries
// before overwriting them — and repeated passes must converge to a clean
// map with no shard ever lost.
func TestRebalanceAtMinimumRedundancy(t *testing.T) {
	const m, n, k, objectCount = 8, 6, 4, 40
	c := newPlacedCluster(t, 47, m, n, k, sim.ProfileLAN, nil)
	objects := c.putObjects(objectCount, 8<<10)

	dead := []string{c.nodes[m-1], c.nodes[m-2]}
	for _, node := range dead {
		c.kill(node)
	}
	remaining := c.nodes[:m-2]
	for _, node := range remaining {
		if err := c.clients[node].SetNodes(remaining); err != nil {
			t.Fatal(err)
		}
	}
	// Readable immediately after the view change, before any rebalance.
	for id, want := range objects {
		got, err := c.clients[c.nodes[0]].Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s unreadable after view change, before rebalance: %v", id, err)
		}
	}

	var stats dstore.RebalanceStats
	for pass := 0; pass < 4; pass++ {
		s, err := c.clients[c.nodes[pass%len(remaining)]].Rebalance()
		if err != nil {
			t.Fatalf("rebalance pass %d: %v", pass, err)
		}
		stats = s
		if s.Moved+s.Rebuilt+s.Deleted == 0 {
			break
		}
	}
	if stats.Moved+stats.Rebuilt+stats.Deleted != 0 {
		t.Fatalf("rebalance did not converge in 4 passes: %+v", stats)
	}
	// Full redundancy restored on the survivors, nothing lost.
	live := 0
	for _, node := range remaining {
		live += c.backends[node].Objects()
	}
	if live != objectCount*n {
		t.Fatalf("%d shards on survivors after convergence, want %d", live, objectCount*n)
	}
	for id, want := range objects {
		place := placement.Assign(id, remaining, n)
		for i, node := range place {
			info, err := c.backends[node].Info(id)
			if err != nil || info.Shard != i {
				t.Fatalf("%s slot %d on %s: info=%+v err=%v", id, i, node, info, err)
			}
		}
		got, err := c.clients[c.nodes[1]].Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after convergence: %v", id, err)
		}
	}
}

// TestRebalanceKeepsStaleCopyWhileDestDown pins the delete-safety rule:
// when a shard's new target holder is down, the rebalancer must not drop
// the stale copy — it may be the shard's only instance — and a later pass
// with the holder back finishes the move.
func TestRebalanceKeepsStaleCopyWhileDestDown(t *testing.T) {
	const m, n, k, objectCount = 6, 4, 2, 24
	joiner := fmt.Sprintf("n%02d", m-1)
	initial := make([]string, 0, m-1)
	for i := 0; i < m-1; i++ {
		initial = append(initial, fmt.Sprintf("n%02d", i))
	}
	c := newPlacedCluster(t, 46, m, n, k, sim.ProfileLAN, func(cfg *dstore.Config) {
		cfg.Nodes = initial
	})
	objects := c.putObjects(objectCount, 8<<10)
	for _, node := range c.nodes {
		if err := c.clients[node].SetNodes(c.nodes); err != nil {
			t.Fatal(err)
		}
	}
	// Old holders of the slots the joiner is about to take.
	displaced := map[string]string{} // object id -> old holder
	for id := range objects {
		newPlace := placement.Assign(id, c.nodes, n)
		if i := placement.ShardOf(newPlace, joiner); i >= 0 {
			displaced[id] = placement.Assign(id, initial, n)[i]
		}
	}
	if len(displaced) == 0 {
		t.Fatal("joiner took no slots; pick another seed")
	}

	c.kill(joiner)
	if _, err := c.clients[c.nodes[0]].Rebalance(); err != nil {
		t.Fatalf("rebalance with dest down: %v", err)
	}
	for id, holder := range displaced {
		if _, err := c.backends[holder].Info(id); err != nil {
			t.Fatalf("stale copy of %s on %s was deleted while its target %s is down", id, holder, joiner)
		}
	}
	// Holder recovers: the next pass finishes the move and cleans up.
	c.down[joiner] = false
	c.mesh.StartNode(joiner)
	c.s.RunFor(time.Second)
	stats, err := c.clients[c.nodes[1]].Rebalance()
	if err != nil {
		t.Fatalf("rebalance after recovery: %v", err)
	}
	// Displaced copies that sat on nodes which themselves took a new slot
	// were overwritten by pass 1's swap chain, so pass 2 reconstructs those
	// slots and copies the rest — together exactly the joiner's slots.
	if stats.Moved+stats.Rebuilt != len(displaced) {
		t.Fatalf("moved %d + rebuilt %d slots after recovery, want %d", stats.Moved, stats.Rebuilt, len(displaced))
	}
	if got := c.totalShards(); got != objectCount*n {
		t.Fatalf("%d shards after convergence, want %d", got, objectCount*n)
	}
	for id, want := range objects {
		got, err := c.clients[joiner].Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after convergence: %v", id, err)
		}
	}
}

// TestRebalanceScrubRestoresMissingShard deletes one shard behind the
// cluster's back and checks a rebalance pass re-materialises it on the
// right node — reconciliation as self-healing scrub.
func TestRebalanceScrubRestoresMissingShard(t *testing.T) {
	const m, n, k = 8, 6, 4
	c := newPlacedCluster(t, 43, m, n, k, sim.ProfileLAN, nil)
	objects := c.putObjects(6, 32<<10)

	victimID := "obj002"
	place := placement.Assign(victimID, c.nodes, n)
	c.backends[place[3]].Delete(victimID)

	stats, err := c.clients[c.nodes[0]].Rebalance()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if stats.Rebuilt != 1 || stats.Moved != 0 {
		t.Fatalf("scrub stats %+v, want exactly one rebuilt shard", stats)
	}
	info, err := c.backends[place[3]].Info(victimID)
	if err != nil || info.Shard != 3 {
		t.Fatalf("restored shard: info=%+v err=%v", info, err)
	}
	for id, want := range objects {
		got, err := c.clients[c.nodes[1]].Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after scrub: %v", id, err)
		}
	}
}

// TestRebuildPagedInventory stores enough objects that every daemon's
// inventory spans multiple ListResp pages, then rebuilds a wiped node and
// checks nothing was lost to truncation — the dstore-scale regression the
// paging protocol exists for.
func TestRebuildPagedInventory(t *testing.T) {
	const m, n, k, objectCount = 5, 4, 2, 900
	c := newPlacedCluster(t, 44, m, n, k, sim.ProfileLAN, nil)

	// Seed the backends directly (900 networked puts would dominate the
	// test): shard layout exactly as the placed put path records it, with
	// long ids so per-node inventories clear the 32 KiB page bound.
	objects := make(map[string][]byte, objectCount)
	target := c.nodes[2]
	expectOnTarget := 0
	for i := 0; i < objectCount; i++ {
		id := fmt.Sprintf("a-rather-long-object-identifier-%05d", i)
		data := randBytes(int64(3000+i), 64)
		objects[id] = data
		shards, err := c.code.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		place := placement.Assign(id, c.nodes, n)
		for shard, node := range place {
			if err := c.backends[node].Put(id, shards[shard], shard, len(data), dstore.DefaultBlockSize); err != nil {
				t.Fatal(err)
			}
		}
		if placement.ShardOf(place, target) >= 0 {
			expectOnTarget++
		}
	}

	c.backends[target].Wipe()
	stats, err := c.clients[c.nodes[0]].Rebalance()
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if rebuilt := stats.Moved + stats.Rebuilt; rebuilt != expectOnTarget {
		t.Fatalf("rebuilt %d objects, want %d — inventory truncated?", rebuilt, expectOnTarget)
	}
	if got := c.backends[target].Objects(); got != expectOnTarget {
		t.Fatalf("target holds %d objects, want %d", got, expectOnTarget)
	}
	// The walk must actually have paged.
	paged := false
	for _, node := range c.nodes {
		if node != target && c.daemons[node].Stats().Lists >= 2 {
			paged = true
		}
	}
	if !paged {
		t.Fatal("no daemon served more than one inventory page; test is not exercising paging")
	}
	for _, id := range []string{"a-rather-long-object-identifier-00000", "a-rather-long-object-identifier-00899"} {
		got, err := c.clients[c.nodes[1]].Get(id)
		if err != nil || !bytes.Equal(got, objects[id]) {
			t.Fatalf("%s after rebuild: %v", id, err)
		}
	}
}

// TestDigestSurvivesShardMovement moves one object's shards the three ways
// the store re-creates a shard — a replaced node's rebuild, a rebalance
// copy off a draining node, and a repair in place — and checks that every
// holder still records the digest the put computed, and that a read which
// cannot agree on a version without the new holder's first chunk reports it.
func TestDigestSurvivesShardMovement(t *testing.T) {
	const m, n, k = 8, 6, 4
	c := newPlacedCluster(t, 47, m, n, k, sim.ProfileLAN, nil)
	data := randBytes(470, 40<<10) // three 4 KiB chunks per shard
	want := storage.Digest(sha256.Sum256(data))
	if _, err := c.clients[c.nodes[0]].Put("obj", data); err != nil {
		t.Fatal(err)
	}
	// probeWith probes the object through a view in which node and k-1
	// other holders are the only live ones: the probe adopts a version only
	// when k first chunks agree on it, so node's first chunk must be one.
	probeWith := func(node string) storage.Digest {
		live := map[string]bool{node: true}
		for _, other := range c.nodes {
			if _, err := c.backends[other].Info("obj"); err == nil && len(live) < k {
				live[other] = true
			}
		}
		for _, other := range c.nodes {
			c.down[other] = !live[other]
		}
		defer clear(c.down)
		var meta dstore.ObjectMeta
		var err error
		finished := false
		c.clients[node].HeadAsync("obj", func(m dstore.ObjectMeta, e error) { meta, err, finished = m, e, true })
		for !finished && c.s.Step() {
		}
		if err != nil || meta.DataLen != int64(len(data)) {
			t.Fatalf("probe through %s: %+v, %v", node, meta, err)
		}
		return meta.Digest
	}
	check := func(step, moved string, universe []string) {
		t.Helper()
		holders := 0
		for node, b := range c.backends {
			info, err := b.Info("obj")
			if err != nil {
				continue
			}
			holders++
			if info.Digest != want {
				t.Fatalf("after the %s, %s records digest %x, want %x", step, node, info.Digest, want)
			}
		}
		if holders != n {
			t.Fatalf("after the %s, %d nodes hold a shard, want %d", step, holders, n)
		}
		if placement.ShardOf(placement.Assign("obj", universe, n), moved) < 0 {
			t.Fatalf("after the %s, %s is not a holder", step, moved)
		}
		if got := probeWith(moved); got != want {
			t.Fatalf("after the %s, a read that needs %s's first chunk reports digest %x, want %x", step, moved, got, want)
		}
		if got, err := c.clients[c.nodes[1]].Get("obj"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("after the %s: get %v", step, err)
		}
	}

	peers := placement.Assign("obj", c.nodes, n)
	victim := peers[0]
	c.backends[victim].Wipe()
	if st, err := c.clients[c.nodes[0]].Rebalance(); err != nil || st.Moved+st.Rebuilt != 1 {
		t.Fatalf("rebuild: %d objects, %v", st.Moved+st.Rebuilt, err)
	}
	check("rebuild", victim, c.nodes)

	leaver := peers[1]
	var remaining []string
	for _, node := range c.nodes {
		if node != leaver {
			remaining = append(remaining, node)
		}
	}
	for _, node := range c.nodes {
		if err := c.clients[node].SetNodes(remaining); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := c.clients[c.nodes[0]].Rebalance(leaver)
	if err != nil || stats.Moved != 1 || stats.Rebuilt != 0 {
		t.Fatalf("rebalance: %+v, %v; want one copied shard", stats, err)
	}
	newPeers := placement.Assign("obj", remaining, n)
	arrival := ""
	for _, node := range newPeers {
		if placement.ShardOf(peers, node) < 0 {
			arrival = node
		}
	}
	check("rebalance copy", arrival, remaining)

	target := newPeers[2]
	if err := c.backends[target].CorruptShard("obj", 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.backends[target].Verify("obj"); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("verify of the damaged shard: %v", err)
	}
	if _, err := c.clients[c.nodes[0]].Rebalance(); err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	check("repair in place", target, remaining)
}

// TestRepairRelocatesWhenPlacementMoved quarantines a corrupt shard on a
// holder whose slot a join has since given to the newcomer, before any
// rebalance pass ran. The repair is a reconciliation of the object, so the
// shard is re-created where the placement now puts it, not refused.
func TestRepairRelocatesWhenPlacementMoved(t *testing.T) {
	const m, n, k = 8, 6, 4
	reg := telemetry.NewRegistry()
	c := newPlacedCluster(t, 49, m, n, k, sim.ProfileLAN, func(cfg *dstore.Config) { cfg.Telemetry = reg })
	old, newcomer := c.nodes[:m-1], c.nodes[m-1]
	// An object whose only placement change is the newcomer taking over
	// one old holder's slot.
	var id, holder string
	slot := -1
	for i := 0; slot < 0; i++ {
		id = fmt.Sprintf("obj-%d", i)
		before, after := placement.Assign(id, old, n), placement.Assign(id, c.nodes, n)
		if s := placement.ShardOf(after, newcomer); s >= 0 && placement.Moves(before, after) == 1 {
			slot, holder = s, before[s]
		}
	}
	for _, node := range c.nodes {
		if err := c.clients[node].SetNodes(old); err != nil {
			t.Fatal(err)
		}
	}
	data := randBytes(490, 20<<10)
	if _, err := c.clients[old[0]].Put(id, data); err != nil {
		t.Fatal(err)
	}
	for _, node := range c.nodes {
		if err := c.clients[node].SetNodes(c.nodes); err != nil {
			t.Fatal(err)
		}
	}
	// The old holder's scrub finds its shard rotten and quarantines it.
	if err := c.backends[holder].CorruptShard(id, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.backends[holder].Verify(id); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("verify of the damaged shard: %v", err)
	}
	st, err := c.clients[holder].Rebalance()
	if err != nil || st.Rebuilt != 1 {
		t.Fatalf("repair pass: %+v, %v; want one rebuilt shard", st, err)
	}

	info, err := c.backends[newcomer].Info(id)
	if err != nil || info.Shard != slot {
		t.Fatalf("newcomer %s: info %+v, %v; want shard %d", newcomer, info, err, slot)
	}
	if rebuilt := counterTotal(t, reg.Snapshot(), "rebalance.shards_rebuilt"); rebuilt != 1 {
		t.Fatalf("shards rebuilt %d, want 1", rebuilt)
	}
	if got, err := c.clients[c.nodes[1]].Get(id); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after the relocating repair: %v", err)
	}
}

// TestReadFindsShardsThePlacementLeftBehind reads an object after nodes
// joined the universe but before any rebalance pass moved a shard: the new
// placement names more newcomers (who hold nothing) than the code can
// spare, so only the old holders outside it can complete the read. The
// retrieve must find them there, and a missing object must still cost no
// more than its placement.
func TestReadFindsShardsThePlacementLeftBehind(t *testing.T) {
	const m, n, k = 12, 6, 4
	c := newPlacedCluster(t, 48, m, n, k, sim.ProfileLAN, nil)
	old := c.nodes[:n]
	id := ""
	for i := 0; id == ""; i++ {
		cand := fmt.Sprintf("obj-%d", i)
		kept := 0
		for _, node := range placement.Assign(cand, c.nodes, n) {
			if placement.ShardOf(old, node) >= 0 {
				kept++
			}
		}
		if kept > 0 && kept < k { // some holder left to say the object exists
			id = cand
		}
	}
	for _, node := range c.nodes {
		if err := c.clients[node].SetNodes(old); err != nil {
			t.Fatal(err)
		}
	}
	data := randBytes(480, 20<<10)
	if _, err := c.clients[old[0]].Put(id, data); err != nil {
		t.Fatal(err)
	}
	reader := c.clients[c.nodes[m-1]]
	if err := reader.SetNodes(c.nodes); err != nil {
		t.Fatal(err)
	}
	if got, err := reader.Get(id); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get across the moved placement: %v", err)
	}
	before := reader.Loads()
	if _, err := reader.Get("never-stored"); !errors.Is(err, dstore.ErrNotFound) {
		t.Fatalf("get of a missing object: %v, want ErrNotFound", err)
	}
	asked := 0
	for node, l := range reader.Loads() {
		asked += l - before[node]
	}
	if asked != n {
		t.Fatalf("a missing object asked %d nodes, want its %d placed ones", asked, n)
	}
}

// TestMixedBlockLayouts pins that an object's stored BlockLen, never the
// reader's configured block size, drives every decode. Node n00's client
// runs at the old 64 KiB block and every other client at the default; an
// object written by one side is read by the other whole, in hinted and
// unhinted ranges across the 64 KiB boundaries, and by HEAD, then rebuilt
// onto a wiped holder and reconstructed by a crash-leave rebalance. This is
// what lets nodes run with different -block values share a cluster.
func TestMixedBlockLayouts(t *testing.T) {
	const m, n, k, old = 8, 6, 4, 64 << 10
	configured := 0
	c := newPlacedCluster(t, 62, m, n, k, sim.ProfileLAN, func(cfg *dstore.Config) {
		if configured == 0 { // the harness configures n00 first
			cfg.BlockSize = old
		}
		configured++
	})
	oldCl, newCl := c.clients["n00"], c.clients["n01"]
	if oldCl.BlockSize() != old || newCl.BlockSize() != dstore.DefaultBlockSize {
		t.Fatalf("block sizes %d and %d, want %d and %d", oldCl.BlockSize(), newCl.BlockSize(), old, dstore.DefaultBlockSize)
	}
	universe := c.nodes
	for i, dir := range []struct{ writer, reader *dstore.Client }{{oldCl, newCl}, {newCl, oldCl}} {
		id := fmt.Sprintf("mixed-%d", i)
		data := randBytes(int64(70+i), 3*dstore.DefaultBlockSize+5000)
		size := int64(len(data))
		if _, err := dir.writer.PutStream(id, bytes.NewReader(data), size); err != nil {
			t.Fatalf("%s: put: %v", id, err)
		}
		check := func(stage string) {
			t.Helper()
			got, err := dir.reader.Get(id)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s %s: whole get: err %v, equal %v", id, stage, err, bytes.Equal(got, data))
			}
		}
		check("as written")

		var meta dstore.ObjectMeta
		var headErr error
		finished := false
		dir.reader.HeadAsync(id, func(mt dstore.ObjectMeta, err error) { meta, headErr, finished = mt, err, true })
		for !finished && c.s.Step() {
		}
		if headErr != nil || meta.DataLen != size || meta.BlockLen != int64(dir.writer.BlockSize()) || meta.Digest != sha256.Sum256(data) {
			t.Fatalf("%s: head: %+v, %v; want length %d, block %d", id, meta, headErr, size, dir.writer.BlockSize())
		}
		for _, hint := range []*dstore.ObjectMeta{nil, &meta} {
			for b := int64(1); b*old < size; b++ {
				for _, r := range [][2]int64{{b*old - 1, 2}, {b*old + 1, old}} {
					var buf bytes.Buffer
					var err error
					finished = false
					dir.reader.GetRangeAsync(id, &buf, dstore.GetOptions{Off: r[0], Length: r[1], Meta: hint},
						func(_ int64, e error) { err, finished = e, true })
					for !finished && c.s.Step() {
					}
					want := data[r[0]:min(r[0]+r[1], size)]
					if err != nil || !bytes.Equal(buf.Bytes(), want) {
						t.Fatalf("%s: range off=%d len=%d hint=%v: err %v, %d bytes, want %d",
							id, r[0], r[1], hint != nil, err, buf.Len(), len(want))
					}
				}
			}
		}

		streams := shardStreams(t, c.code, data, dir.writer.BlockSize())
		holdersHoldTheLayout := func(stage string) {
			t.Helper()
			for s, node := range placement.Assign(id, universe, n) {
				shard, _, err := c.backends[node].Get(id)
				if err != nil || !bytes.Equal(shard, streams[s]) {
					t.Fatalf("%s %s: shard %d on %s: err %v, equal %v", id, stage, s, node, err, bytes.Equal(shard, streams[s]))
				}
				if info, _ := c.backends[node].Info(id); info.BlockLen != dir.writer.BlockSize() {
					t.Fatalf("%s %s: shard %d on %s records block %d, want %d", id, stage, s, node, info.BlockLen, dir.writer.BlockSize())
				}
			}
		}
		wiped := placement.Assign(id, universe, n)[0]
		c.backends[wiped].Wipe()
		if _, err := dir.reader.Rebalance(); err != nil {
			t.Fatalf("%s: rebuild %s: %v", id, wiped, err)
		}
		holdersHoldTheLayout("after rebuild")

		var dead string // a holder, but neither client's node
		for _, node := range placement.Assign(id, universe, n) {
			if node != oldCl.Node() && node != newCl.Node() {
				dead = node
				break
			}
		}
		c.kill(dead)
		var remaining []string
		for _, node := range universe {
			if node != dead {
				remaining = append(remaining, node)
			}
		}
		universe = remaining
		for _, node := range universe {
			if err := c.clients[node].SetNodes(universe); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := dir.reader.Rebalance()
		if err != nil || stats.Rebuilt == 0 {
			t.Fatalf("%s: crash-leave rebalance: %+v, %v; want a reconstruction", id, stats, err)
		}
		holdersHoldTheLayout("after rebalance")
		check("after rebalance")
	}
}
