package storage_test

// The §4.2 store/retrieve/hot-swap behaviours this package's backends and
// selection policies exist for, checked where the operations run: on a
// core.Platform, shards crossing the mesh to daemons, liveness from the
// membership ring. They ran against an in-process store front end until
// that was deleted; nothing it proved is lost.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rain/internal/core"
	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/placement"
	"rain/internal/storage"
)

func nodeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node%d", i)
	}
	return out
}

// newCluster boots n nodes (the default (6,4) B-Code when code is nil) and
// lets the membership ring settle.
func newCluster(t *testing.T, n int, code ecc.Code, policy storage.Policy) *core.Platform {
	t.Helper()
	p, err := core.New(nodeNames(n), core.Options{Seed: 42, Code: code, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(time.Second)
	return p
}

// crash takes nodes down and gives membership time to excise them.
func crash(t *testing.T, p *core.Platform, nodes ...string) {
	t.Helper()
	for _, n := range nodes {
		if err := p.Pause(n); err != nil {
			t.Fatal(err)
		}
	}
	p.Run(3 * time.Second)
}

// revive brings nodes back and waits for the 911 readmission.
func revive(t *testing.T, p *core.Platform, nodes ...string) {
	t.Helper()
	for _, n := range nodes {
		if err := p.Resume(n); err != nil {
			t.Fatal(err)
		}
	}
	p.Run(3 * time.Second)
}

func mustPut(t *testing.T, p *core.Platform, id string, data []byte) {
	t.Helper()
	if err := p.Put(id, data); err != nil {
		t.Fatalf("put %s: %v", id, err)
	}
}

func mustGet(t *testing.T, p *core.Platform, id string, want []byte, when string) {
	t.Helper()
	got, err := p.Get(id)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("get %s %s: err=%v, bytes equal=%v", id, when, err, bytes.Equal(got, want))
	}
}

// holders counts the nodes holding a shard of id.
func holders(p *core.Platform, id string) int {
	n := 0
	for _, b := range p.Backends {
		if _, err := b.Info(id); err == nil {
			n++
		}
	}
	return n
}

func TestPutGetRoundTrip(t *testing.T) {
	p := newCluster(t, 6, nil, storage.FirstK)
	data := []byte("distributed store and retrieve operations, RAIN §4.2")
	mustPut(t, p, "obj", data)
	// One symbol per node, each entry recording the index its placement
	// gave it.
	for i, node := range placement.Assign("obj", p.Nodes, 6) {
		info, err := p.Backends[node].Info("obj")
		if err != nil || info.Shard != i || info.DataLen != len(data) {
			t.Fatalf("%s holds %+v (%v), want shard %d of a %d-byte object", node, info, err, i, len(data))
		}
	}
	mustGet(t, p, "obj", data, "after put")
}

func TestSurvivesMaxNodeFailures(t *testing.T) {
	p := newCluster(t, 6, nil, storage.FirstK)
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	mustPut(t, p, "obj", data)
	// n-k = 2 failures: every pair of crashed nodes must still decode —
	// first while the ring still lists them (hedging), then once excised.
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			a, b := p.Nodes[i], p.Nodes[j]
			if err := errors.Join(p.Pause(a), p.Pause(b)); err != nil {
				t.Fatal(err)
			}
			mustGet(t, p, "obj", data, "right after crashing "+a+","+b)
			p.Run(3 * time.Second)
			mustGet(t, p, "obj", data, "with "+a+","+b+" excised")
			revive(t, p, a, b)
		}
	}
}

func TestTooManyFailures(t *testing.T) {
	p := newCluster(t, 6, nil, storage.FirstK)
	mustPut(t, p, "obj", []byte("data"))
	crash(t, p, "node0", "node1", "node2")
	if _, err := p.Get("obj"); !errors.Is(err, dstore.ErrQuorum) {
		t.Fatalf("want ErrQuorum with 3 of 6 nodes down, got %v", err)
	}
}

func TestGetUnknownObject(t *testing.T) {
	p := newCluster(t, 6, nil, storage.FirstK)
	if _, err := p.Get("ghost"); !errors.Is(err, dstore.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestPutWithSomeNodesDown(t *testing.T) {
	p := newCluster(t, 6, nil, storage.FirstK)
	crash(t, p, "node1", "node4")
	data := []byte("partial placement")
	mustPut(t, p, "obj", data)
	if n := holders(p, "obj"); n != 4 {
		t.Fatalf("stored on %d nodes, want 4", n)
	}
	crash(t, p, "node0") // only 3 of the 4 placed symbols reachable: below k
	if _, err := p.Get("obj"); !errors.Is(err, dstore.ErrQuorum) {
		t.Fatalf("want ErrQuorum with 3 of 4 symbols, got %v", err)
	}
	revive(t, p, "node0")
	mustGet(t, p, "obj", data, "after recovery")
}

func TestPutFailsBelowK(t *testing.T) {
	p := newCluster(t, 6, nil, storage.FirstK)
	crash(t, p, "node0", "node1", "node2")
	if err := p.Put("obj", []byte("x")); !errors.Is(err, dstore.ErrQuorum) {
		t.Fatalf("want ErrQuorum, got %v", err)
	}
	if _, err := p.Get("obj"); err == nil {
		t.Fatal("a put that failed below k is readable")
	}
}

func TestHotSwapRebuild(t *testing.T) {
	p := newCluster(t, 6, nil, storage.FirstK)
	var want [][]byte
	for i := 0; i < 10; i++ {
		data := make([]byte, 100+i*37)
		rand.New(rand.NewSource(int64(i))).Read(data)
		want = append(want, data)
		mustPut(t, p, fmt.Sprintf("obj%d", i), data)
	}
	// Node 2 dies and is replaced by blank hardware.
	crash(t, p, "node2")
	rebuilt, err := p.ReplaceNode("node2")
	if err != nil || rebuilt != 10 || p.Backends["node2"].Objects() != 10 {
		t.Fatalf("replacement rebuilt %d objects (%v), holds %d, want 10", rebuilt, err, p.Backends["node2"].Objects())
	}
	p.Run(3 * time.Second) // node2 readmitted
	// Kill two other nodes and decode through the replacement.
	crash(t, p, "node0", "node1")
	for i, data := range want {
		mustGet(t, p, fmt.Sprintf("obj%d", i), data, "after hot swap")
	}
}

func TestRebuildFailsWithoutK(t *testing.T) {
	p := newCluster(t, 6, nil, storage.FirstK)
	mustPut(t, p, "obj", []byte("x"))
	crash(t, p, "node0", "node1", "node2")
	if _, err := p.ReplaceNode("node5"); !errors.Is(err, dstore.ErrQuorum) {
		t.Fatalf("want ErrQuorum rebuilding from 2 survivors, got %v", err)
	}
}

// TestServerCountMismatch: a store client refuses a node universe narrower
// than its code, at construction and on every later view change.
func TestServerCountMismatch(t *testing.T) {
	p := newCluster(t, 6, nil, storage.FirstK)
	if _, err := dstore.NewClient(p.Scheduler, p.Mesh, "node0", dstore.Config{Code: p.Code(), Nodes: p.Nodes[:1]}); err == nil {
		t.Fatal("one node accepted for an n=6 code")
	}
	if err := p.Clients["node0"].SetNodes(p.Nodes[:5]); err == nil {
		t.Fatal("five-node view accepted for an n=6 code")
	}
	mustPut(t, p, "obj", []byte("the refused view left the client usable"))
}

func TestObjectsListing(t *testing.T) {
	p := newCluster(t, 6, nil, storage.FirstK)
	for _, id := range []string{"c", "a", "b"} {
		mustPut(t, p, id, []byte(id))
	}
	got, err := p.Clients["node3"].List()
	if err != nil || len(got) != 3 {
		t.Fatalf("list = %v, %v", got, err)
	}
	for i, id := range []string{"a", "b", "c"} {
		if got[i].ID != id || got[i].DataLen != 1 || got[i].Shards != 6 {
			t.Fatalf("listing[%d] = %+v, want %s with 6 shards", i, got[i], id)
		}
	}
}

func newRSCluster(t *testing.T, policy storage.Policy) *core.Platform {
	t.Helper()
	code, err := ecc.NewReedSolomon(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	return newCluster(t, 10, code, policy)
}

// readCounts snapshots every backend's cumulative read counter.
func readCounts(p *core.Platform) map[string]int {
	out := make(map[string]int, len(p.Nodes))
	for _, n := range p.Nodes {
		out[n], _ = p.Backends[n].Loads()
	}
	return out
}

// TestHotSwapUnderLoadPolicies: a read workload on RS(10,8) is interrupted
// by n-k = 2 node deaths, reads keep succeeding degraded, both nodes are
// hot-swapped with blank replacements and rebuilt over the mesh, the rebuilt
// symbols are byte-identical to the originals, and afterwards each read
// policy still balances load according to its own contract.
func TestHotSwapUnderLoadPolicies(t *testing.T) {
	for _, policy := range []storage.Policy{storage.RandomK, storage.LeastLoaded, storage.Nearest} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			p := newRSCluster(t, policy)
			rng := rand.New(rand.NewSource(int64(policy)))
			// Objects of assorted sizes, including one large enough (1 MiB)
			// to exercise the chunked kernel path end to end.
			want := map[string][]byte{}
			var ids []string
			for i := 0; i < 6; i++ {
				size := 1 + rng.Intn(8<<10)
				if i == 0 {
					size = 1 << 20
				}
				data := make([]byte, size)
				rng.Read(data)
				id := fmt.Sprintf("obj%d", i)
				ids = append(ids, id)
				want[id] = data
				mustPut(t, p, id, data)
			}
			// Record the symbols the doomed nodes hold so the rebuild can be
			// checked byte for byte.
			doomed := []string{"node2", "node5"}
			orig := map[string]map[string][]byte{}
			for _, node := range doomed {
				orig[node] = map[string][]byte{}
				for _, id := range ids {
					shard, _, err := p.Backends[node].Get(id)
					if err != nil {
						t.Fatal(err)
					}
					orig[node][id] = shard
				}
			}
			readAll := func(rounds int, when string) {
				for i := 0; i < rounds; i++ {
					id := ids[i%len(ids)]
					mustGet(t, p, id, want[id], when)
				}
			}
			readAll(40, "before failure")
			// Mid-workload: kill n-k nodes. Reads must keep succeeding, at
			// first around holders the ring still lists.
			if err := errors.Join(p.Pause(doomed[0]), p.Pause(doomed[1])); err != nil {
				t.Fatal(err)
			}
			readAll(40, "degraded")
			// Hot swap: blank replacements, rebuilt from the survivors.
			for _, node := range doomed {
				rebuilt, err := p.ReplaceNode(node)
				if err != nil || rebuilt != len(ids) || p.Backends[node].Objects() != len(ids) {
					t.Fatalf("replacing %s: rebuilt %d (%v), holds %d, want %d", node, rebuilt, err, p.Backends[node].Objects(), len(ids))
				}
				for id, shard := range orig[node] {
					got, _, err := p.Backends[node].Get(id)
					if err != nil || !bytes.Equal(got, shard) {
						t.Fatalf("rebuilt symbol for %s on %s differs from the original (%v)", id, node, err)
					}
				}
			}
			p.Run(3 * time.Second) // both readmitted
			readAll(len(ids), "after hot swap")

			// Policy phase: read deltas over a fresh batch, against the
			// policy's own balance contract.
			const reads = 200
			before := readCounts(p)
			readAll(reads, "in the policy phase")
			delta := readCounts(p)
			for n := range delta {
				delta[n] -= before[n]
			}
			n, k := p.Code().N(), p.Code().K()
			switch policy {
			case storage.RandomK:
				for node, d := range delta {
					if d == 0 {
						t.Fatalf("random policy never read from %s: %v", node, delta)
					}
				}
			case storage.LeastLoaded:
				// k of n holders per read, self-balancing: every node should
				// sit near mean = reads*k/n, within a 2x band.
				mean := reads * k / n
				for node, d := range delta {
					if d < mean/2 || d > mean*2 {
						t.Fatalf("least-loaded %s served %d reads, mean %d: %v", node, d, mean, delta)
					}
				}
			case storage.Nearest:
				// Distance defaults to the shard index: each object's k
				// nearest holders serve all its reads, the n-k farthest none.
				expect := map[string]int{}
				for i := 0; i < reads; i++ {
					for _, node := range placement.Assign(ids[i%len(ids)], p.Nodes, n)[:k] {
						expect[node]++
					}
				}
				for _, node := range p.Nodes {
					if delta[node] != expect[node] {
						t.Fatalf("nearest: %s served %d reads, want %d: %v", node, delta[node], expect[node], delta)
					}
				}
			}
		})
	}
}

// TestLargeObjectRoundTripRS pushes a 1 MiB object through store, retrieve
// and a single-node rebuild on RS(10,8) — the §4.2 path on top of the
// parallel encode pipeline.
func TestLargeObjectRoundTripRS(t *testing.T) {
	p := newRSCluster(t, storage.FirstK)
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(99)).Read(data)
	mustPut(t, p, "big", data)
	mustGet(t, p, "big", data, "after put")
	holder := placement.Assign("big", p.Nodes, 10) // holder[i] has shard i
	crash(t, p, holder[0])
	if rebuilt, err := p.ReplaceNode(holder[0]); err != nil || rebuilt != 1 {
		t.Fatalf("rebuild of %s: %d objects, %v", holder[0], rebuilt, err)
	}
	p.Run(3 * time.Second)
	// Force the read through the replacement by downing two other data
	// shard holders.
	crash(t, p, holder[1], holder[2])
	mustGet(t, p, "big", data, "via the rebuilt node")
}
