package dstore_test

// The heap-bounded streaming smoke: a 256 MiB object travels
// encode -> dstore put -> streaming get -> hot-swap rebuild with a Go
// runtime memory limit far below the object size, enforcing the
// O(BlockSize x n) bound of the streaming contract instead of merely
// documenting it. The test is gated behind RAIN_SMOKE=1 (CI runs it as its
// own step, without the race detector) because it pushes ~400 MiB of shard
// traffic through the simulated mesh.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/placement"
	"rain/internal/rudp"
	"rain/internal/sim"
	"rain/internal/storage"
)

// patternFill writes the deterministic content of the smoke object at
// offsets [off, off+len(p)): cheap to generate on both ends, so neither side
// ever holds the object. Byte q is byte q%8 of a mixed counter q/8, so any
// split of the stream into reads yields the same bytes.
func patternFill(p []byte, off int64) {
	var w [8]byte
	for i := 0; i < len(p); {
		q := off + int64(i)
		x := uint64(q) / 8
		x = (x + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
		x ^= x >> 27
		binary.LittleEndian.PutUint64(w[:], x)
		i += copy(p[i:], w[q%8:])
	}
}

// patternReader streams the deterministic object without materialising it.
type patternReader struct {
	off, total int64
	heap       *heapWatch
}

func (r *patternReader) Read(p []byte) (int, error) {
	if r.off >= r.total {
		return 0, io.EOF
	}
	n := int64(len(p))
	if rest := r.total - r.off; rest < n {
		n = rest
	}
	patternFill(p[:n], r.off)
	r.off += n
	r.heap.sample()
	return int(n), nil
}

// patternVerifier checks a decoded stream against the pattern on the fly.
type patternVerifier struct {
	off  int64
	want []byte
	heap *heapWatch
}

func (v *patternVerifier) Write(p []byte) (int, error) {
	if cap(v.want) < len(p) {
		v.want = make([]byte, len(p))
	}
	w := v.want[:len(p)]
	patternFill(w, v.off)
	if !bytes.Equal(p, w) {
		return 0, fmt.Errorf("stream differs at offset %d", v.off)
	}
	v.off += int64(len(p))
	v.heap.sample()
	return len(p), nil
}

// heapWatch samples the live heap as the streams flow and records the peak.
type heapWatch struct {
	calls int
	peak  uint64
}

func (h *heapWatch) sample() {
	h.calls++
	if h.calls%64 != 0 {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.peak {
		h.peak = ms.HeapAlloc
	}
}

func TestStreamSmoke256MiB(t *testing.T) {
	if os.Getenv("RAIN_SMOKE") == "" {
		t.Skip("set RAIN_SMOKE=1 to run the 256 MiB heap-bounded smoke")
	}
	const (
		objectSize = 256 << 20
		blockSize  = 1 << 20
		memLimit   = 128 << 20 // half the object: whole-shard code cannot pass
	)
	prev := debug.SetMemoryLimit(memLimit)
	defer debug.SetMemoryLimit(prev)

	code, err := ecc.NewReedSolomon(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(26)
	net := sim.NewNetwork(s)
	nodes := []string{"a", "b", "c", "d", "e", "f"}
	sim.ApplyProfile(net, nodes, 2, sim.ProfileLAN)
	mesh, err := rudp.NewMesh(s, net, nodes, rudp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	backends := make(map[string]*storage.Backend)
	clients := make(map[string]*dstore.Client)
	for i, node := range nodes {
		// File-backed: stored shards live on disk, not in daemon heap.
		b, err := storage.NewFileBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		backends[node] = b
		dstore.NewDaemon(mesh, node, i, b, 0)
		cl, err := dstore.NewClient(s, mesh, node, dstore.Config{
			Code:      code,
			Nodes:     nodes,
			BlockSize: blockSize,
			OpTimeout: 10 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[node] = cl
	}
	s.RunFor(100 * time.Millisecond)

	heap := &heapWatch{}
	src := &patternReader{total: objectSize, heap: heap}
	if _, err := clients["a"].PutStream("big", src, objectSize); err != nil {
		t.Fatalf("putstream: %v", err)
	}
	// Flip one bit of one shard on disk mid-run: the 64 MiB data shard 2
	// silently rots deep inside. The streaming read must detect it through
	// the block checksums, swap the holder out as an erasure and still
	// deliver every byte bit-exact.
	holder := placement.Assign("big", nodes, code.N()) // holder[i] has shard i
	rot, swap := holder[2], holder[1]
	if err := backends[rot].CorruptShard("big", 32<<20); err != nil {
		t.Fatalf("corrupting shard on %s: %v", rot, err)
	}
	verify := &patternVerifier{heap: heap}
	n, err := clients[holder[0]].GetStream("big", verify)
	if err != nil {
		t.Fatalf("getstream: %v", err)
	}
	if n != objectSize {
		t.Fatalf("getstream read %d of %d bytes", n, objectSize)
	}
	if backends[rot].Quarantined() != 1 {
		t.Fatalf("quarantined on %s = %d, want the rotten shard sidelined", rot, backends[rot].Quarantined())
	}

	// The holder quarantined the rotten shard, which left its inventory.
	// One reconciliation pass re-creates it before the hot swap, so the
	// swap's pass has exactly one slot to fill.
	if st, err := clients[holder[0]].Rebalance(); err != nil || st.Moved+st.Rebuilt != 1 {
		t.Fatalf("repair pass: %+v, %v", st, err)
	}
	if info, err := backends[rot].Info("big"); err != nil || info.Shard != 2 {
		t.Fatalf("rotten shard on %s not repaired: %+v, %v", rot, info, err)
	}

	// Hot-swap rebuild: wipe shard 1's holder and stream its 64 MiB shard
	// back from four survivors, block codeword by block codeword.
	backends[swap].Wipe()
	if st, err := clients[holder[3]].Rebalance(); err != nil || st.Moved+st.Rebuilt != 1 {
		t.Fatalf("rebuild: n=%d err=%v", st.Moved+st.Rebuilt, err)
	}
	// Verify the rebuilt shard stream against a regenerated encode, block by
	// block, through bounded ReadAt windows.
	info, err := backends[swap].Info("big")
	if err != nil {
		t.Fatalf("rebuilt shard missing: %v", err)
	}
	if int64(info.ShardLen) != ecc.StreamShardLen(code, objectSize, blockSize) || info.BlockLen != blockSize {
		t.Fatalf("rebuilt layout wrong: %+v", info)
	}
	rsrc := &patternReader{total: objectSize, heap: heap}
	var off int64
	cmp := make([]byte, code.ShardSize(blockSize))
	if err := ecc.EncodeReader(code, rsrc, blockSize, func(blk int, shards [][]byte, dataLen int) error {
		piece := shards[1]
		if err := backends[swap].ReadAt("big", cmp[:len(piece)], off); err != nil {
			return err
		}
		if !bytes.Equal(cmp[:len(piece)], piece) {
			return fmt.Errorf("rebuilt shard differs at block %d", blk)
		}
		off += int64(len(piece))
		heap.sample()
		return nil
	}); err != nil {
		t.Fatalf("rebuilt shard verification: %v", err)
	}

	// Push mode: the same object through a PutFeed in odd-sized offers, the
	// way the gateway feeds an HTTP body. The feed holds one block plus the
	// offer in hand; an append-only buffer would need the whole object.
	fsrc := &patternReader{total: objectSize, heap: heap}
	piece := make([]byte, 100003)
	fed, room := false, true
	var fedErr error
	feed, err := clients["b"].NewPutFeed("fed", objectSize, func(_ int, e error) { fedErr, fed = e, true })
	if err != nil {
		t.Fatal(err)
	}
	feed.OnRoom(func() { room = true })
	hash := sha256.New()
	for !fed {
		n, rerr := fsrc.Read(piece)
		if n > 0 {
			hash.Write(piece[:n])
			room = feed.Offer(piece[:n])
		}
		if rerr == io.EOF {
			feed.Close(storage.Digest(hash.Sum(nil)))
			break
		}
		for !room && !fed && s.Step() {
		}
	}
	for !fed && s.Step() {
	}
	if fedErr != nil {
		t.Fatalf("feed put: %v", fedErr)
	}
	if n, err := clients["c"].GetStream("fed", &patternVerifier{heap: heap}); err != nil || n != objectSize {
		t.Fatalf("getstream of fed object: %d bytes, %v", n, err)
	}

	// The bound: live heap must stay far below the object size. With the
	// runtime limit at 128 MiB, any path that materialised the object or a
	// whole 64 MiB shard set would have pinned it live and blown past this.
	const heapBound = 160 << 20
	t.Logf("peak sampled heap: %.1f MiB over a %d MiB object", float64(heap.peak)/(1<<20), objectSize>>20)
	if heap.peak > heapBound {
		t.Fatalf("peak heap %d exceeds %d: streaming is not bounded", heap.peak, heapBound)
	}
}
