package dstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/placement"
	"rain/internal/rudp"
	"rain/internal/sim"
	"rain/internal/storage"
)

// cluster is the dstore test harness: n nodes on a simulated mesh, each
// running a storage daemon, plus one client session per node.
type cluster struct {
	t        *testing.T
	s        *sim.Scheduler
	net      *sim.Network
	mesh     *rudp.Mesh
	nodes    []string
	code     ecc.Code
	backends map[string]*storage.Backend
	daemons  map[string]*dstore.Daemon
	clients  map[string]*dstore.Client
}

func newCluster(t *testing.T, seed int64, n, k int, link sim.LinkConfig, tweak func(*dstore.Config)) *cluster {
	t.Helper()
	code, err := ecc.NewReedSolomon(n, k)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = string(rune('a' + i))
	}
	s := sim.New(seed)
	net := sim.NewNetwork(s)
	sim.ApplyProfile(net, nodes, 2, link)
	mesh, err := rudp.NewMesh(s, net, nodes, rudp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{
		t: t, s: s, net: net, mesh: mesh, nodes: nodes, code: code,
		backends: make(map[string]*storage.Backend),
		daemons:  make(map[string]*dstore.Daemon),
		clients:  make(map[string]*dstore.Client),
	}
	simClock := func() time.Time { return time.Unix(0, int64(s.Now())) }
	for i, node := range nodes {
		c.backends[node] = storage.NewBackend()
		c.daemons[node] = dstore.NewDaemon(mesh, node, i, c.backends[node], 4<<10, dstore.WithDaemonClock(simClock))
		cfg := dstore.Config{Code: code, Nodes: nodes, ChunkSize: 4 << 10}
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

// holder returns the node the placement gives shard i of id.
func (c *cluster) holder(id string, i int) string {
	return placement.Assign(id, c.nodes, c.code.N())[i]
}

// shardOn returns the shard index of id the placement gives node.
func (c *cluster) shardOn(id, node string) int {
	for i, n := range placement.Assign(id, c.nodes, c.code.N()) {
		if n == node {
			return i
		}
	}
	c.t.Fatalf("%s holds no shard of %s", node, id)
	return -1
}

// shardStreams returns the n shard streams the block-codeword encoder makes
// of data at the given block size: what every holder of the object stores.
func shardStreams(t *testing.T, code ecc.Code, data []byte, block int) [][]byte {
	t.Helper()
	streams := make([][]byte, code.N())
	if err := ecc.EncodeReader(code, bytes.NewReader(data), block, func(_ int, shards [][]byte, _ int) error {
		for i, s := range shards {
			streams[i] = append(streams[i], s...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return streams
}

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestPutGetRoundtrip(t *testing.T) {
	c := newCluster(t, 1, 6, 4, sim.ProfileLAN, nil)
	for _, size := range []int{0, 1, 1023, 100 << 10} {
		id := string(rune('A' + size%26))
		data := randBytes(int64(size), size)
		stored, err := c.clients["a"].Put(id, data)
		if err != nil {
			t.Fatalf("put %d bytes: %v", size, err)
		}
		if stored != 6 {
			t.Fatalf("put %d bytes: stored %d of 6", size, stored)
		}
		// Retrieve through a different node's client, which has no local
		// size metadata: the daemons' recorded object length must serve.
		got, err := c.clients["b"].Get(id)
		if err != nil {
			t.Fatalf("get %d bytes: %v", size, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("roundtrip %d bytes: corrupted", size)
		}
	}
	// Every daemon committed one shard per object.
	for node, b := range c.backends {
		if b.Objects() != 4 {
			t.Fatalf("backend %s holds %d objects, want 4", node, b.Objects())
		}
	}
}

// TestAcceptanceEndToEnd is the PR's acceptance scenario: store through the
// mesh, kill n-k daemons mid-read, still retrieve bit-exact, hot-swap a
// replacement node, and verify its shards were rebuilt entirely via mesh
// messages.
func TestAcceptanceEndToEnd(t *testing.T) {
	dead := map[string]bool{}
	c := newCluster(t, 2, 6, 4, sim.ProfileLAN, func(cfg *dstore.Config) {
		cfg.Alive = func(peer string) bool { return !dead[peer] }
	})
	objects := map[string][]byte{
		"alpha": randBytes(10, 200<<10),
		"beta":  randBytes(11, 37<<10),
		"gamma": randBytes(12, 1<<10),
	}
	for id, data := range objects {
		if _, err := c.clients["a"].Put(id, data); err != nil {
			t.Fatalf("put %s: %v", id, err)
		}
	}

	// Kill n-k = 2 daemons mid-read: start the retrieve, let the first
	// chunks fly, then freeze two of the daemons serving it (b and c:
	// checked below to hold two of the first k shards FirstK reads). The
	// read must hedge to the spares and still decode bit-exact.
	if i, j := c.shardOn("alpha", "b"), c.shardOn("alpha", "c"); i >= 4 || j >= 4 {
		t.Fatalf("b and c hold shards %d and %d of alpha: not both among the first k", i, j)
	}
	var got []byte
	var gotErr error
	finished := false
	c.clients["a"].GetAsync("alpha", func(d []byte, e error) { got, gotErr, finished = d, e, true })
	c.s.RunFor(300 * time.Microsecond) // requests issued, streams starting
	if finished {
		t.Fatal("read finished before the kill — not mid-read")
	}
	c.mesh.StopNode("b")
	c.mesh.StopNode("c")
	for !finished && c.s.Step() {
	}
	if gotErr != nil {
		t.Fatalf("get with 2 daemons killed mid-read: %v", gotErr)
	}
	if !bytes.Equal(got, objects["alpha"]) {
		t.Fatal("mid-read-kill retrieve corrupted")
	}

	// Hot-swap node b: blank replacement joins under the same name and a
	// survivor's client rebuilds its shards by streaming reads from k
	// survivors across the mesh. Node c stays dead throughout, and the
	// liveness view now says so.
	dead["c"] = true
	c.backends["b"].Wipe()
	c.mesh.StartNode("b")
	c.s.RunFor(200 * time.Millisecond) // links re-detected Up
	if c.backends["b"].Objects() != 0 {
		t.Fatal("replacement node not blank")
	}
	preStats := c.daemons["b"].Stats()
	_, deliveredBefore, _, _ := c.net.Stats()
	stats, err := c.clients["d"].Rebalance()
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if rebuilt := stats.Moved + stats.Rebuilt; rebuilt != len(objects) {
		t.Fatalf("rebuilt %d objects, want %d", rebuilt, len(objects))
	}
	// The shards arrived as mesh messages: the replacement daemon committed
	// them chunk by chunk and the network moved the traffic.
	post := c.daemons["b"].Stats()
	if post.Commits-preStats.Commits != len(objects) || post.ChunksStored == preStats.ChunksStored {
		t.Fatalf("replacement daemon commits=%+v->%+v — shards did not arrive via mesh", preStats, post)
	}
	if _, deliveredAfter, _, _ := c.net.Stats(); deliveredAfter == deliveredBefore {
		t.Fatal("no network traffic during rebuild")
	}
	// Bit-exact shards: what b holds must equal what encoding produces.
	for id, data := range objects {
		want := shardStreams(t, c.code, data, dstore.DefaultBlockSize)
		shard, dataLen, err := c.backends["b"].Get(id)
		if err != nil {
			t.Fatalf("replacement missing %s: %v", id, err)
		}
		if !bytes.Equal(shard, want[c.shardOn(id, "b")]) {
			t.Fatalf("rebuilt shard of %s differs", id)
		}
		if dataLen != len(data) {
			t.Fatalf("rebuilt %s recorded size %d, want %d", id, dataLen, len(data))
		}
	}

	// Rebuild restored read availability: with c still dead, kill d too
	// (back to n-k dead) — reads now need the rebuilt b shard to reach
	// quorum on some subsets, and must succeed for every object.
	c.mesh.StopNode("d")
	for id, data := range objects {
		got, err := c.clients["a"].Get(id)
		if err != nil {
			t.Fatalf("get %s after swap: %v", id, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("get %s after swap: corrupted", id)
		}
	}
}

// TestRetrieveUnderLoss sweeps packet loss from 1% to 10% with asymmetric
// latency on some links: put/get/rebuild must all succeed, with quorum reads
// tolerating n-k dead daemons.
func TestRetrieveUnderLoss(t *testing.T) {
	for _, loss := range []float64{0.01, 0.05, 0.10} {
		dead := map[string]bool{}
		c := newCluster(t, int64(1000*loss), 5, 3, sim.Lossy(sim.ProfileLAN, loss), func(cfg *dstore.Config) {
			cfg.Alive = func(peer string) bool { return !dead[peer] }
		})
		// Responses from d crawl back over a WAN-ish return path while
		// requests arrive quickly: the asymmetric regime.
		sim.ApplyAsymmetric(c.net, "a", "d", 2, sim.Lossy(sim.ProfileLAN, loss), sim.Lossy(sim.ProfileWAN, loss))
		data := randBytes(7, 64<<10)
		if _, err := c.clients["a"].Put("obj", data); err != nil {
			t.Fatalf("loss %.0f%%: put: %v", loss*100, err)
		}
		// n-k = 2 daemons die; quorum reads must still succeed.
		c.mesh.StopNode("b")
		c.mesh.StopNode("e")
		got, err := c.clients["a"].Get("obj")
		if err != nil {
			t.Fatalf("loss %.0f%%: get with n-k dead: %v", loss*100, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("loss %.0f%%: corrupted", loss*100)
		}
		// Hot-swap e and verify the rebuild also survives the loss; b stays
		// dead, and the liveness view says so.
		dead["b"] = true
		c.backends["e"].Wipe()
		c.mesh.StartNode("e")
		c.s.RunFor(200 * time.Millisecond)
		if st, err := c.clients["c"].Rebalance(); err != nil || st.Moved+st.Rebuilt != 1 {
			t.Fatalf("loss %.0f%%: rebuild: n=%d err=%v", loss*100, st.Moved+st.Rebuilt, err)
		}
		shard, _, err := c.backends["e"].Get("obj")
		if err != nil {
			t.Fatalf("loss %.0f%%: rebuilt shard missing: %v", loss*100, err)
		}
		want, _ := c.code.Encode(data)
		if !bytes.Equal(shard, want[c.shardOn("obj", "e")]) {
			t.Fatalf("loss %.0f%%: rebuilt shard differs", loss*100)
		}
	}
}

func TestGetFailsBelowQuorum(t *testing.T) {
	c := newCluster(t, 4, 5, 3, sim.ProfileLAN, func(cfg *dstore.Config) {
		cfg.OpTimeout = 2 * time.Second
	})
	data := randBytes(3, 8<<10)
	if _, err := c.clients["a"].Put("obj", data); err != nil {
		t.Fatal(err)
	}
	// n-k+1 = 3 daemons dead: below quorum, the read must fail.
	c.mesh.StopNode("c")
	c.mesh.StopNode("d")
	c.mesh.StopNode("e")
	if _, err := c.clients["a"].Get("obj"); !errors.Is(err, dstore.ErrNotEnoughDaemons) {
		t.Fatalf("get below quorum: err=%v, want ErrNotEnoughDaemons", err)
	}
}

func TestPutQuorum(t *testing.T) {
	c := newCluster(t, 5, 5, 3, sim.ProfileLAN, func(cfg *dstore.Config) {
		cfg.ReqTimeout = 200 * time.Millisecond
		cfg.OpTimeout = 3 * time.Second
	})
	// With n-k dead, Put still reaches quorum and reports the shortfall.
	c.mesh.StopNode("d")
	c.mesh.StopNode("e")
	data := randBytes(9, 16<<10)
	stored, err := c.clients["a"].Put("obj", data)
	if err != nil {
		t.Fatalf("put with n-k dead: %v", err)
	}
	if stored != 3 {
		t.Fatalf("stored %d shards, want 3", stored)
	}
	got, err := c.clients["b"].Get("obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get of quorum-put object: %v", err)
	}
	// One more death and Put cannot reach quorum.
	c.mesh.StopNode("c")
	if _, err := c.clients["a"].Put("obj2", data); !errors.Is(err, dstore.ErrNotEnoughDaemons) {
		t.Fatalf("put below quorum: err=%v, want ErrNotEnoughDaemons", err)
	}
}

// TestMembershipLivenessSkipsDeadPeers verifies the client uses the supplied
// liveness view: peers reported dead are never asked, so no hedging delay is
// paid for them.
func TestMembershipLivenessSkipsDeadPeers(t *testing.T) {
	dead := map[string]bool{}
	c := newCluster(t, 6, 5, 3, sim.ProfileLAN, func(cfg *dstore.Config) {
		cfg.Alive = func(peer string) bool { return !dead[peer] }
	})
	data := randBytes(13, 32<<10)
	if _, err := c.clients["a"].Put("obj", data); err != nil {
		t.Fatal(err)
	}
	c.mesh.StopNode("b")
	c.mesh.StopNode("c")
	dead["b"], dead["c"] = true, true
	start := c.s.Now()
	got, err := c.clients["a"].Get("obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get with view-dead peers: %v", err)
	}
	// No request went to b or c, so the read never waited out a hedge
	// timeout (500ms default): it completed at LAN speed.
	if elapsed := time.Duration(c.s.Now() - start); elapsed > 100*time.Millisecond {
		t.Fatalf("read took %v — the dead peers were asked despite the view", elapsed)
	}
	loads := c.clients["a"].Loads()
	if loads["b"] != 0 || loads["c"] != 0 {
		t.Fatalf("dead peers were sent requests: %v", loads)
	}
}

// TestGetMissingObjectFailsFast checks a read of an id nobody holds fails
// as soon as every daemon has answered "not found" — not at the operation
// deadline — and maps to the typed ErrNotFound sentinel (the gateway's 404),
// not the retryable quorum error.
func TestGetMissingObjectFailsFast(t *testing.T) {
	c := newCluster(t, 8, 5, 3, sim.ProfileLAN, nil)
	start := c.s.Now()
	_, err := c.clients["a"].Get("ghost")
	if !errors.Is(err, dstore.ErrNotFound) {
		t.Fatalf("err=%v, want ErrNotFound", err)
	}
	if !strings.Contains(err.Error(), "not found") {
		t.Fatalf("error %q lost the not-found detail", err)
	}
	if elapsed := time.Duration(c.s.Now() - start); elapsed > time.Second {
		t.Fatalf("missing-object read took %v — waited out the deadline instead of failing fast", elapsed)
	}
}

// TestGetFailsFastBelowQuorumView checks that when the liveness view leaves
// fewer than k candidates and all of them answer, the read fails as soon as
// the last stream completes instead of idling until the deadline.
func TestGetFailsFastBelowQuorumView(t *testing.T) {
	dead := map[string]bool{"c": true, "d": true, "e": true}
	c := newCluster(t, 12, 5, 3, sim.ProfileLAN, func(cfg *dstore.Config) {
		cfg.Alive = func(peer string) bool { return !dead[peer] }
	})
	data := randBytes(23, 16<<10)
	dead["c"], dead["d"], dead["e"] = false, false, false
	if _, err := c.clients["a"].Put("obj", data); err != nil {
		t.Fatal(err)
	}
	dead["c"], dead["d"], dead["e"] = true, true, true
	start := c.s.Now()
	_, err := c.clients["a"].Get("obj")
	if !errors.Is(err, dstore.ErrNotEnoughDaemons) {
		t.Fatalf("err=%v, want ErrNotEnoughDaemons", err)
	}
	if elapsed := time.Duration(c.s.Now() - start); elapsed > time.Second {
		t.Fatalf("below-quorum read took %v — waited out the deadline instead of failing fast", elapsed)
	}
}

// TestClientReleasesPendingHandlers checks that operations against dead or
// missing peers do not leak response handlers in the client.
func TestClientReleasesPendingHandlers(t *testing.T) {
	dead := map[string]bool{}
	c := newCluster(t, 9, 5, 3, sim.ProfileLAN, func(cfg *dstore.Config) {
		cfg.ReqTimeout = 150 * time.Millisecond
		cfg.OpTimeout = 2 * time.Second
		cfg.Alive = func(peer string) bool { return !dead[peer] }
	})
	data := randBytes(21, 16<<10)
	if _, err := c.clients["a"].Put("obj", data); err != nil {
		t.Fatal(err)
	}
	if c.shardOn("obj", "b") >= 3 {
		t.Fatal("b holds none of the first k shards of obj: the read would never ask it")
	}
	c.mesh.StopNode("b") // a chosen peer that will never answer
	cl := c.clients["a"]
	if _, err := cl.Get("obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("ghost"); err == nil {
		t.Fatal("missing object read succeeded")
	}
	if _, err := cl.Put("obj2", data); err != nil {
		t.Fatal(err)
	}
	// The rebuild pass leaves b's slots alone once the view drops it.
	dead["b"] = true
	c.backends["e"].Wipe()
	if _, err := cl.Rebalance(); err != nil {
		t.Fatal(err)
	}
	// Let every straggling per-request deadline fire, then nothing may
	// remain registered.
	c.s.RunFor(5 * time.Second)
	if n := cl.PendingRequests(); n != 0 {
		t.Fatalf("%d pending request handlers leaked", n)
	}
}

// TestOverwriteByAnotherClient checks the daemons' recorded size wins over
// a stale local cache: a client that wrote 100 bytes must read back the 50
// another client overwrote the object with.
func TestOverwriteByAnotherClient(t *testing.T) {
	c := newCluster(t, 10, 5, 3, sim.ProfileLAN, nil)
	first := randBytes(31, 100)
	second := randBytes(32, 50)
	if _, err := c.clients["a"].Put("obj", first); err != nil {
		t.Fatal(err)
	}
	if _, err := c.clients["b"].Put("obj", second); err != nil {
		t.Fatal(err)
	}
	got, err := c.clients["a"].Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, second) {
		t.Fatalf("read %d bytes, want the overwritten 50 (stale size cache)", len(got))
	}
}

// TestSlowStreamDoesNotHedge puts the mesh on rate-limited links so one
// shard takes longer than ReqTimeout to stream while chunks keep flowing:
// the client must not treat the slow stream as stalled and fan out to the
// spare daemons.
func TestSlowStreamDoesNotHedge(t *testing.T) {
	link := sim.LinkConfig{Delay: 2 * time.Millisecond, Jitter: 500 * time.Microsecond, RateMbps: 4}
	c := newCluster(t, 11, 5, 3, link, nil)
	data := randBytes(41, 2<<20) // ~683 KiB shards: >500ms at 4 Mbps
	if _, err := c.clients["a"].Put("obj", data); err != nil {
		t.Fatal(err)
	}
	start := c.s.Now()
	got, err := c.clients["a"].Get("obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("slow get: %v", err)
	}
	if elapsed := time.Duration(c.s.Now() - start); elapsed < 500*time.Millisecond {
		t.Fatalf("read finished in %v — links not slow enough to exercise the stall watcher", elapsed)
	}
	total := 0
	for _, n := range c.clients["a"].Loads() {
		total += n
	}
	if total != 3 {
		t.Fatalf("issued %d shard reads, want k=3 (spurious hedging on a flowing stream)", total)
	}
}

// TestPolicyLoadAccounting drives many reads under each §4.2 selection
// policy and checks its shape where the reads land: the holders' backend
// read counters.
func TestPolicyLoadAccounting(t *testing.T) {
	const n, k, reads = 6, 3, 120
	for _, policy := range []storage.Policy{storage.FirstK, storage.LeastLoaded, storage.Nearest, storage.RandomK} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			c := newCluster(t, 7, n, k, sim.ProfileLAN, func(cfg *dstore.Config) {
				cfg.Policy = policy
				// Nearest: the last node in the roster is the closest.
				cfg.Distance = func(peer string) int { return int('z' - peer[0]) }
			})
			data := randBytes(17, 12<<10)
			if _, err := c.clients["a"].Put("obj", data); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < reads; i++ {
				if got, err := c.clients["a"].Get("obj"); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("get %d: %v", i, err)
				}
			}
			load := map[string]int{}
			for _, node := range c.nodes {
				load[node], _ = c.backends[node].Loads()
			}
			want := map[string]int{} // exact expectation, for the skewing policies
			switch policy {
			case storage.FirstK:
				// Hammers the holders of shards 0..k-1, never the rest.
				for i := 0; i < k; i++ {
					want[c.holder("obj", i)] = reads
				}
			case storage.Nearest:
				// The k closest serve everything, the far ones nothing.
				for _, node := range c.nodes[n-k:] {
					want[node] = reads
				}
			case storage.LeastLoaded:
				// Self-balancing: everyone near reads*k/n.
				for node, r := range load {
					if mean := reads * k / n; r < mean*3/4 || r > mean*5/4 {
						t.Fatalf("least-loaded: %s served %d reads, mean %d: %v", node, r, mean, load)
					}
				}
				return
			case storage.RandomK:
				for node, r := range load {
					if r == 0 {
						t.Fatalf("random policy never read from %s: %v", node, load)
					}
				}
				return
			}
			for _, node := range c.nodes {
				if load[node] != want[node] {
					t.Fatalf("%v: %s served %d reads, want %d: %v", policy, node, load[node], want[node], load)
				}
			}
		})
	}
}

// TestQuickRandomObjectsAndFailures is a seed-pinned sweep of the §4.2
// contract: objects of random size and content, each read back bit-exact
// with up to n-k random daemons frozen (none of them known dead to the
// client, so every dead candidate costs a hedge).
func TestQuickRandomObjectsAndFailures(t *testing.T) {
	c := newCluster(t, 77, 6, 4, sim.ProfileLAN, func(cfg *dstore.Config) {
		cfg.Policy = storage.RandomK
	})
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 50; i++ {
		data := randBytes(rng.Int63(), 1+rng.Intn(20<<10))
		id := fmt.Sprintf("q%d", i)
		if _, err := c.clients[c.nodes[rng.Intn(6)]].Put(id, data); err != nil {
			t.Fatalf("put %s: %v", id, err)
		}
		order := rng.Perm(6)
		downs, reader := order[:rng.Intn(3)], c.nodes[order[5]]
		for _, d := range downs {
			c.mesh.StopNode(c.nodes[d])
		}
		got, err := c.clients[reader].Get(id)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("get %s (%d bytes) with %v down: err=%v", id, len(data), downs, err)
		}
		for _, d := range downs {
			c.mesh.StartNode(c.nodes[d])
		}
		c.s.RunFor(200 * time.Millisecond) // links re-detected Up
	}
}

// reseed rewrites every holder's entry for id through fn, standing in for
// entries no writer produces any more.
func (c *cluster) reseed(id string, fn func(info *storage.ObjectInfo)) {
	c.t.Helper()
	for _, node := range c.nodes {
		b := c.backends[node]
		info, err := b.Info(id)
		if err != nil {
			continue
		}
		shard, _, err := b.Get(id)
		if err != nil {
			c.t.Fatal(err)
		}
		fn(&info)
		if err := b.Put(id, shard, info.Shard, info.DataLen, info.BlockLen); err != nil {
			c.t.Fatal(err)
		}
	}
}

// TestNoPositionalOrSizeFallback pins the removed read fallbacks. An entry
// recorded without a shard index is served with the index it has, and the
// client kills that stream and hedges rather than guess the holder's
// position; a first chunk without an object length, or without a block
// length, fails the retrieve with ErrUnknownSize, even on the client that
// put the object — as does a rebuild whose inventory lacks the block length
// and a ranged get whose layout hint does — instead of guessing a layout (or
// dividing by a zero block size on the client's loop). A hint without a
// digest is ignored, not matched against the holders' digests.
func TestNoPositionalOrSizeFallback(t *testing.T) {
	c := newCluster(t, 14, 6, 4, sim.ProfileLAN, nil)
	data := randBytes(61, 24<<10)
	if _, err := c.clients["a"].Put("obj", data); err != nil {
		t.Fatal(err)
	}
	// A layout hint without a digest names no version: the ranged get
	// ignores it and reads the version the holders agree on.
	var ranged bytes.Buffer
	var rangeErr error
	finished := false
	c.clients["a"].GetRangeAsync("obj", &ranged, dstore.GetOptions{Off: 1, Length: 2, Meta: &dstore.ObjectMeta{DataLen: int64(len(data)), BlockLen: dstore.DefaultBlockSize}},
		func(_ int64, err error) { rangeErr, finished = err, true })
	for !finished && c.s.Step() {
	}
	if rangeErr != nil || !bytes.Equal(ranged.Bytes(), data[1:3]) {
		t.Fatalf("ranged get with a hint without a digest: %v, %x", rangeErr, ranged.Bytes())
	}
	first := c.holder("obj", 0)
	c.reseed("obj", func(info *storage.ObjectInfo) {
		if info.Shard == 0 {
			info.Shard = -1
		}
	})
	before := c.clients["b"].Loads()
	got, err := c.clients["b"].Get("obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get around an unindexed entry: %v", err)
	}
	asked := 0
	for node, n := range c.clients["b"].Loads() {
		asked += n - before[node]
	}
	if asked != 5 || c.clients["b"].Loads()[first] == 0 {
		t.Fatalf("read asked %d holders (%v), want k+1: the unindexed one and a spare for it", asked, c.clients["b"].Loads())
	}

	c.reseed("obj", func(info *storage.ObjectInfo) { info.DataLen = -1 })
	if _, err := c.clients["a"].Get("obj"); !errors.Is(err, dstore.ErrUnknownSize) {
		t.Fatalf("get of entries without a length: err=%v, want ErrUnknownSize", err)
	}

	c.reseed("obj", func(info *storage.ObjectInfo) { info.DataLen, info.BlockLen = len(data), 0 })
	if _, err := c.clients["a"].Get("obj"); !errors.Is(err, dstore.ErrUnknownSize) {
		t.Fatalf("get of entries without a block length: err=%v, want ErrUnknownSize", err)
	}
	finished = false
	c.clients["a"].GetRangeAsync("obj", io.Discard, dstore.GetOptions{Off: 1, Length: 2, Meta: &dstore.ObjectMeta{DataLen: int64(len(data))}},
		func(_ int64, err error) { rangeErr, finished = err, true })
	for !finished && c.s.Step() {
	}
	if !errors.Is(rangeErr, dstore.ErrUnknownSize) {
		t.Fatalf("ranged get with a hint without a block length: err=%v, want ErrUnknownSize", rangeErr)
	}
	c.backends[first].Wipe()
	if _, err := c.clients["a"].Rebalance(); !errors.Is(err, dstore.ErrUnknownSize) {
		t.Fatalf("rebuild from an inventory without a block length: err=%v, want ErrUnknownSize", err)
	}
}
