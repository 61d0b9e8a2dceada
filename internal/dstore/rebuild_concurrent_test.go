package dstore_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/placement"
	"rain/internal/sim"
)

// putStreamed stores count objects of size bytes through the block-codeword
// streaming layout and returns their contents by id.
func (c *placedCluster) putStreamed(count, size, blockSize int) map[string][]byte {
	c.t.Helper()
	objects := make(map[string][]byte, count)
	for i := 0; i < count; i++ {
		id := fmt.Sprintf("obj%03d", i)
		data := randBytes(int64(7000+i), size)
		if _, err := c.clients[c.nodes[0]].PutStream(id, bytes.NewReader(data), int64(len(data))); err != nil {
			c.t.Fatalf("putstream %s: %v", id, err)
		}
		objects[id] = data
	}
	return objects
}

// onTarget returns the ids (among objects) whose placement includes node.
func (c *placedCluster) onTarget(objects map[string][]byte, node string) []string {
	var ids []string
	for id := range objects {
		if placement.ShardOf(placement.Assign(id, c.nodes, c.code.N()), node) >= 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestConcurrentRebuildChaos kills a survivor in the middle of a concurrent
// rebuild of 20 objects and requires every object to recover bit-exact —
// while the pipeline's admitted memory stays inside the configured budget
// and measured live heap stays in its neighbourhood. File-backed stores
// keep the 20 MiB of shards off the heap, so what the test measures is the
// rebuild pipeline's working set.
func TestConcurrentRebuildChaos(t *testing.T) {
	const (
		m, n, k     = 8, 6, 4
		objectCount = 20
		objectSize  = 1 << 20
		blockSize   = 64 << 10
		budget      = int64(2 << 20) // admits ~5 of the 20 objects at once
	)
	c := newPlacedClusterDir(t, 51, m, n, k, sim.ProfileLAN, t.TempDir(), func(cfg *dstore.Config) {
		cfg.BlockSize = blockSize
		cfg.RebuildBudget = budget
	})
	objects := c.putStreamed(objectCount, objectSize, blockSize)

	target := c.nodes[1]
	rebuilder := c.nodes[0]
	casualty := c.nodes[5]
	expect := len(c.onTarget(objects, target))
	if expect < 12 {
		t.Fatalf("only %d of %d objects placed on the target; placement is skewed", expect, objectCount)
	}
	c.backends[target].Wipe()

	baseline := liveHeap()
	peak := baseline
	sampling := true
	var sample func()
	sample = func() {
		if !sampling {
			return
		}
		if h := liveHeap(); h > peak {
			peak = h
		}
		c.s.After(10*time.Millisecond, sample)
	}
	sample()

	var rebuilt int
	var rbErr error
	finished := false
	c.clients[rebuilder].RebalanceAsync(nil, func(st dstore.RebalanceStats, err error) {
		rebuilt, rbErr = st.Moved+st.Rebuilt, err
		finished = true
	})
	// Chaos: once the pipeline is demonstrably mid-flight (a quarter of the
	// target's objects committed), a survivor drops dead.
	killed := false
	deadline := c.s.Now().Add(5 * time.Minute)
	for !finished && c.s.Now() < deadline && c.s.Step() {
		if !killed && c.backends[target].Objects() >= expect/4 {
			killed = true
			c.kill(casualty)
		}
	}
	sampling = false
	if !finished {
		t.Fatal("rebuild did not finish")
	}
	if !killed {
		t.Fatal("rebuild finished before the chaos kill fired")
	}
	if rbErr != nil {
		t.Fatalf("rebuild with mid-flight casualty: %v", rbErr)
	}
	if rebuilt != expect {
		t.Fatalf("rebuilt %d objects, want %d", rebuilt, expect)
	}

	// The budget was honoured exactly at the admission level...
	if hw := c.clients[rebuilder].TaskBytesHighWater(); hw > budget {
		t.Fatalf("pipeline admitted %d bytes of work, budget %d", hw, budget)
	}
	// ...and the measured live heap stayed in the budget's neighbourhood —
	// nowhere near the ~7.5 MiB an unbounded 20-object pipeline would
	// admit, let alone the 20 MiB of object data.
	if peak-baseline > 2*uint64(budget) {
		t.Fatalf("live heap grew %d bytes during rebuild, budget %d", peak-baseline, budget)
	}

	// Every rebuilt shard landed with its correct index and length, and
	// every object reads back bit-exact with the casualty still dead.
	for _, id := range c.onTarget(objects, target) {
		place := placement.Assign(id, c.nodes, n)
		info, err := c.backends[target].Info(id)
		if err != nil {
			t.Fatalf("%s missing on target: %v", id, err)
		}
		if want := placement.ShardOf(place, target); info.Shard != want {
			t.Fatalf("%s on target holds shard %d, want %d", id, info.Shard, want)
		}
		if want := int(ecc.StreamShardLen(c.code, int64(objectSize), blockSize)); info.ShardLen != want {
			t.Fatalf("%s shard stream is %d bytes, want %d", id, info.ShardLen, want)
		}
	}
	for id, want := range objects {
		var buf bytes.Buffer
		if _, err := c.clients[c.nodes[2]].GetStream(id, &buf); err != nil {
			t.Fatalf("%s after chaos rebuild: %v", id, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s corrupted by chaos rebuild", id)
		}
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestConcurrentRebuildSpeedupAndBalance is the acceptance bar for the
// rebuild pipeline: on an 8-node cluster with 32 objects, the concurrent
// rebuild must finish in at most half the sequential path's cluster time,
// and its survivor read load must stay balanced within 2x across the
// policy-ranked k-subsets.
func TestConcurrentRebuildSpeedupAndBalance(t *testing.T) {
	const (
		m, n, k     = 8, 6, 4
		objectCount = 32
		objectSize  = 128 << 10
		blockSize   = 32 << 10
	)
	link := sim.LinkConfig{Delay: 2 * time.Millisecond, Jitter: 200 * time.Microsecond}
	run := func(budget int64) (dur time.Duration, reads map[string]int, rebuilt int) {
		c := newPlacedCluster(t, 52, m, n, k, link, func(cfg *dstore.Config) {
			cfg.BlockSize = blockSize
			cfg.RebuildBudget = budget
		})
		objects := c.putStreamed(objectCount, objectSize, blockSize)
		target := c.nodes[3]
		c.backends[target].Wipe()
		before := make(map[string]int, m)
		for _, node := range c.nodes {
			r, _ := c.backends[node].Loads()
			before[node] = r
		}
		start := c.s.Now()
		stats, err := c.clients[c.nodes[0]].Rebalance()
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		rebuilt = stats.Moved + stats.Rebuilt
		if want := len(c.onTarget(objects, target)); rebuilt != want {
			t.Fatalf("rebuilt %d, want %d", rebuilt, want)
		}
		reads = make(map[string]int, m)
		for _, node := range c.nodes {
			if node == target {
				continue
			}
			r, _ := c.backends[node].Loads()
			reads[node] = r - before[node]
		}
		return time.Duration(c.s.Now() - start), reads, rebuilt
	}

	seqDur, _, seqN := run(1)       // budget 1: one object in flight at a time
	concDur, reads, concN := run(0) // default budget: the pipeline
	if seqN != concN {
		t.Fatalf("runs diverged: %d vs %d objects", seqN, concN)
	}
	t.Logf("sequential %v, concurrent %v (%.1fx), reads %v", seqDur, concDur, float64(seqDur)/float64(concDur), reads)
	if concDur*2 > seqDur {
		t.Fatalf("concurrent rebuild %v not 2x faster than sequential %v", concDur, seqDur)
	}
	minR, maxR := -1, -1
	for _, r := range reads {
		if minR < 0 || r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	if minR <= 0 {
		t.Fatalf("a survivor served no rebuild reads: %v", reads)
	}
	if maxR > 2*minR {
		t.Fatalf("survivor read load unbalanced: max %d > 2x min %d (%v)", maxR, minR, reads)
	}
}
