package dstore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"rain/internal/ecc"
	"rain/internal/rt"
	"rain/internal/rudp"
	"rain/internal/sim"
	"rain/internal/storage"
	"rain/internal/telemetry"
)

// maxSmallOpAllocs and maxSmallOpBytes bound what one warmed-up 4 KiB put
// plus get allocates on a simulated six-node cluster — client, daemons,
// backends and the simulated mesh together. The put feed encodes into the
// client's shard scratch from a recycled pipe, and a storage commit makes no
// error value: 271 objects and about 20 KB per op. With a stream encoder
// and a fresh pipe per put, and an error made per commit, the same op
// allocated 289 objects and about 35 KB.
const (
	maxSmallOpAllocs = 280
	maxSmallOpBytes  = 26 << 10
)

// TestSmallPutGetAllocs pins the allocations of a 4 KiB put plus get.
func TestSmallPutGetAllocs(t *testing.T) {
	s, clients := newClients(t, 33, Config{}, "a")
	cl := clients[0]
	data := bytes.Repeat([]byte("4KiB"), 1<<10)
	op := func() {
		put := false
		cl.PutAsync("small", data, func(_ int, err error) {
			if err != nil {
				t.Errorf("put: %v", err)
			}
			put = true
		})
		for !put && s.Step() {
		}
		got := false
		cl.GetAsync("small", func(b []byte, err error) {
			if err != nil || !bytes.Equal(b, data) {
				t.Errorf("get: %d bytes, %v", len(b), err)
			}
			got = true
		})
		for !got && s.Step() {
		}
	}
	for i := 0; i < 32; i++ { // warm pools, recycle lists, maps
		op()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := testing.AllocsPerRun(200, op) // 201 runs: one warm-up, then 200
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / 201
	t.Logf("4 KiB put+get: %.1f allocations, %d bytes per op", n, perOp)
	if raceEnabled {
		return
	}
	if n > maxSmallOpAllocs {
		t.Errorf("4 KiB put+get allocated %.1f objects per op, want <= %d", n, maxSmallOpAllocs)
	}
	if perOp > maxSmallOpBytes {
		t.Errorf("4 KiB put+get allocated %d bytes per op, want <= %d", perOp, maxSmallOpBytes)
	}
}

// maxDegradedGetBytes bounds what one warmed 1 MiB GetAsync allocates on a
// simulated six-node cluster with the holder of data shard 0 out of the
// view, so every block restores that piece. The caller's 1 MiB copy of the
// object is most of it: rs(6,4) reads 1052 KiB per op and bcode(6) 1075
// KiB. When a decoder restored each lost piece into a fresh buffer, rs(6,4)
// read 1321 KiB (a 32 KiB piece per 128 KiB block), and when each decoder
// held a block buffer of its own, bcode(6) read 1256 KiB.
const maxDegradedGetBytes = 1152 << 10

// TestDegradedGetAllocs pins the bytes a degraded 1 MiB get allocates, for
// Reed-Solomon and for the B-Code rainnode serves.
func TestDegradedGetAllocs(t *testing.T) {
	for _, mk := range []func() (ecc.Code, error){
		func() (ecc.Code, error) { return ecc.NewReedSolomon(6, 4) },
		func() (ecc.Code, error) { return ecc.NewBCode(6) },
	} {
		code, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(code.Name(), func(t *testing.T) {
			down := ""
			s, clients := newClients(t, 35, Config{Code: code, Alive: func(peer string) bool { return peer != down }}, "a")
			cl := clients[0]
			data := make([]byte, 1<<20)
			for i := range data {
				data[i] = byte(i*31 + i>>11)
			}
			put := false
			cl.PutAsync("degraded", data, func(_ int, err error) {
				if err != nil {
					t.Errorf("put: %v", err)
				}
				put = true
			})
			for !put && s.Step() {
			}
			down = cl.peersFor("degraded")[0] // the holder of data shard 0
			op := func() {
				got := false
				cl.GetAsync("degraded", func(b []byte, err error) {
					if err != nil || !bytes.Equal(b, data) {
						t.Errorf("get: %d bytes, %v", len(b), err)
					}
					got = true
				})
				for !got && s.Step() {
				}
			}
			for i := 0; i < 8; i++ { // warm pools, plans and recycle lists
				op()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const runs = 32
			for i := 0; i < runs; i++ {
				op()
			}
			runtime.ReadMemStats(&after)
			perOp := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("degraded 1 MiB get: %d bytes per op", perOp)
			if raceEnabled {
				return
			}
			if perOp > maxDegradedGetBytes {
				t.Errorf("degraded 1 MiB get allocated %d bytes per op, want <= %d", perOp, maxDegradedGetBytes)
			}
		})
	}
}

// TestPutFeedScratchNotShared interleaves two feeds' blocks through the
// client's one shard scratch — full blocks of one between full and short
// blocks of the other — and reads both objects back bit-exact: no feed's
// pump exposes bytes another feed's encode left in the scratch.
func TestPutFeedScratchNotShared(t *testing.T) {
	s, clients := newClients(t, 34, Config{}, "a", "b")
	cl := clients[0]
	objects := map[string][]byte{
		"first":  bytes.Repeat([]byte{0xA5}, 3*DefaultBlockSize+1000),
		"second": bytes.Repeat([]byte{0x3C}, 2*DefaultBlockSize+77),
	}
	type feedState struct {
		f    *PutFeed
		data []byte
		off  int
		room bool
		done bool
		err  error
	}
	var feeds []*feedState
	for _, id := range []string{"first", "second"} {
		st := &feedState{data: objects[id], room: true}
		f, err := cl.NewPutFeed(id, int64(len(st.data)), func(_ int, err error) { st.err, st.done = err, true })
		if err != nil {
			t.Fatal(err)
		}
		f.OnRoom(func() { st.room = true })
		st.f = f
		feeds = append(feeds, st)
	}
	// One block of each feed in turn; a feed whose pipe is full waits.
	for pending := true; pending; {
		pending = false
		for _, st := range feeds {
			if st.off == len(st.data) {
				continue
			}
			pending = true
			for !st.room && !st.done && s.Step() {
			}
			end := min(st.off+DefaultBlockSize, len(st.data))
			st.room = st.f.Offer(st.data[st.off:end])
			st.off = end
			if st.off == len(st.data) {
				st.f.Close(sha256.Sum256(st.data))
			}
		}
	}
	for _, st := range feeds {
		for !st.done && s.Step() {
		}
		if st.err != nil {
			t.Fatal(st.err)
		}
	}
	for id, want := range objects {
		got, err := clients[1].Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s read back: err %v, %s", id, err, firstDiff(got, want))
		}
	}
}

// firstDiff describes where got first departs from want.
func firstDiff(got, want []byte) string {
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("byte %d is %#x, want %#x", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d bytes, want %d", len(got), len(want))
}

// newLoopClient starts an RS(6,4) daemon on each of six simulated nodes
// a..f joined by link, driven by a started rt.Loop in wall time, and a
// client configured by cfg on node a. The loop stops when the test ends.
func newLoopClient(t *testing.T, seed int64, link sim.LinkConfig, cfg Config) (*rt.Loop, *Client) {
	t.Helper()
	loop := rt.New(seed)
	loop.Start()
	t.Cleanup(loop.Stop)
	var cl *Client
	var err error
	loop.Call(func() {
		s := loop.Scheduler()
		code, cerr := ecc.NewReedSolomon(6, 4)
		if cerr != nil {
			err = cerr
			return
		}
		nodes := []string{"a", "b", "c", "d", "e", "f"}
		net := sim.NewNetwork(s)
		sim.ApplyProfile(net, nodes, 2, link)
		mesh, merr := rudp.NewMesh(s, net, nodes, rudp.Config{})
		if merr != nil {
			err = merr
			return
		}
		for i, n := range nodes {
			NewDaemon(mesh, n, i, storage.NewBackend(), 0)
		}
		cfg.Code, cfg.Nodes = code, nodes
		cl, err = NewClient(s, mesh, "a", cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	return loop, cl
}

// TestBridgePutStreamLoopCalls pins the bridge's hand-offs: PutStream fills
// its read buffer to a block (or to EOF) before each loop call, so an object
// of at most one block is opened, offered and closed in a single call, and a
// longer one costs one call per block.
func TestBridgePutStreamLoopCalls(t *testing.T) {
	loop, cl := newLoopClient(t, 35, sim.ProfileLAN, Config{})
	calls := 0
	b := NewBridge(func(fn func()) bool {
		calls++
		return loop.Call(fn)
	}, cl)
	data := make([]byte, 2*DefaultBlockSize+5)
	for i := range data {
		data[i] = byte(i * 31)
	}
	for _, tc := range []struct {
		size, calls int
	}{
		{0, 1},
		{4 << 10, 1},
		{DefaultBlockSize, 1},
		{DefaultBlockSize + 1, 2},
		{2*DefaultBlockSize + 5, 3},
	} {
		id := fmt.Sprintf("obj-%d", tc.size)
		want := data[:tc.size]
		calls = 0
		digest, err := b.PutStream(context.Background(), id, bytes.NewReader(want), int64(tc.size))
		if err != nil {
			t.Fatalf("%d-byte put: %v", tc.size, err)
		}
		if calls != tc.calls {
			t.Errorf("%d-byte put made %d loop calls, want %d", tc.size, calls, tc.calls)
		}
		if digest != sha256.Sum256(want) {
			t.Errorf("%d-byte put returned digest %x, want the body's", tc.size, digest)
		}
		got, err := b.Get(context.Background(), id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d-byte object read back: err %v, %s", tc.size, err, firstDiff(got, want))
		}
	}
	// An over-long source fails and a short one too, each without hanging.
	if _, err := b.PutStream(context.Background(), "long", bytes.NewReader(data[:100]), 99); !errors.Is(err, ErrLongSource) {
		t.Errorf("over-long source: %v, want ErrLongSource", err)
	}
	if _, err := b.PutStream(context.Background(), "short", bytes.NewReader(data[:100]), DefaultBlockSize+1); !errors.Is(err, ErrShortSource) {
		t.Errorf("short source: %v, want ErrShortSource", err)
	}
}

// TestBridgePutStreamHoldsOneBlock pins the bridge's one-block bound under
// backpressure: over 10 ms links a 40-block put fills its credit windows and
// parks the request goroutine on full blocks, and each wake-up must answer a
// pause, not an earlier pump. A stale wake-up let the bridge offer a block
// on top of one not yet encoded; the feed's pipe grew to two blocks, the
// recycle list refused it, and every large put allocated a fresh one.
func TestBridgePutStreamHoldsOneBlock(t *testing.T) {
	loop, cl := newLoopClient(t, 36, sim.LinkConfig{Delay: 10 * time.Millisecond}, Config{Telemetry: telemetry.NewRegistry()})
	b := NewBridge(loop.Call, cl)
	data := make([]byte, 40*DefaultBlockSize)
	for i := range data {
		data[i] = byte(i*13 + i>>11)
	}
	var pipes []int // capacities on the recycle list
	var fresh uint64
	put := func(id string) {
		t.Helper()
		if _, err := b.PutStream(context.Background(), id, bytes.NewReader(data), int64(len(data))); err != nil {
			t.Fatalf("put %s: %v", id, err)
		}
		loop.Call(func() {
			pipes = pipes[:0]
			for _, p := range cl.pipes {
				pipes = append(pipes, cap(p))
			}
			fresh = cl.met.pipesFresh.Value()
		})
	}
	put("first")
	stalls := cl.met.creditStalls.Value()
	t.Logf("first put: %d credit stalls, %d fresh pipes", stalls, fresh)
	if stalls == 0 {
		t.Fatal("the credit windows never filled: the bound went untested")
	}
	if len(pipes) != 1 || pipes[0] > DefaultBlockSize {
		t.Fatalf("after one put the recycle list holds pipes of capacity %v, want one of at most %d", pipes, DefaultBlockSize)
	}
	before := fresh
	put("second")
	if fresh != before {
		t.Errorf("the second put allocated %d fresh pipes, want its pipe from the recycle list", fresh-before)
	}
	if len(pipes) != 1 || pipes[0] > DefaultBlockSize {
		t.Errorf("after two puts the recycle list holds pipes of capacity %v, want one of at most %d", pipes, DefaultBlockSize)
	}
	got, err := b.Get(context.Background(), "second")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: err %v, %s", err, firstDiff(got, data))
	}
}

// TestPutChunksFillTheChunk pins the default layout's datagram count: a
// block's shard piece fills one chunk, so an object of m full blocks reaches
// each daemon as m PutChunk datagrams — the fewest its shard stream fits —
// under both k = 4 codes the product runs. A 64 KiB block sent two
// half-empty datagrams per 128 KiB of object.
func TestPutChunksFillTheChunk(t *testing.T) {
	const m = 5
	rs, err := ecc.NewReedSolomon(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	bcode, err := ecc.NewBCode(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range []ecc.Code{rs, bcode} {
		reg := telemetry.NewRegistry()
		_, clients := newClients(t, 37, Config{Code: code, Telemetry: reg}, "a")
		cl := clients[0]
		piece := code.ShardSize(cl.BlockSize())
		if piece > DefaultChunkSize {
			t.Fatalf("%s: a %d-byte block makes %d-byte pieces, over the %d-byte chunk", code.Name(), cl.BlockSize(), piece, DefaultChunkSize)
		}
		data := bytes.Repeat([]byte{0x5A}, m*cl.BlockSize())
		if _, err := cl.Put("obj", data); err != nil {
			t.Fatalf("%s: %v", code.Name(), err)
		}
		want := uint64((m*piece + DefaultChunkSize - 1) / DefaultChunkSize)
		stored := 0
		for _, f := range reg.Snapshot().Families {
			if f.Name != "dstore.daemon.chunks_stored" {
				continue
			}
			for _, series := range f.Series {
				stored++
				if series.Counter != want {
					t.Errorf("%s: a daemon took %d PutChunk datagrams for its %d-byte shard stream, want %d",
						code.Name(), series.Counter, m*piece, want)
				}
			}
		}
		if stored != code.N() {
			t.Errorf("%s: %d daemons reported stored chunks, want %d", code.Name(), stored, code.N())
		}
	}
}
