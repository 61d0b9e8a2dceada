package ecc

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// planTestCodes builds the (default, scalar-twin) pairs the differential
// suite sweeps: every array-code family, including the xcode(13,11) shape
// the perf trajectory tracks.
func planTestCodes(t testing.TB) [][2]Code {
	t.Helper()
	var out [][2]Code
	for _, ctor := range []func(opts ...ArrayOption) (Code, error){
		func(opts ...ArrayOption) (Code, error) { return NewXCode(5, opts...) },
		func(opts ...ArrayOption) (Code, error) { return NewXCode(7, opts...) },
		func(opts ...ArrayOption) (Code, error) { return NewXCode(13, opts...) },
		func(opts ...ArrayOption) (Code, error) { return NewBCode(6, opts...) },
		func(opts ...ArrayOption) (Code, error) { return NewEvenOdd(5, opts...) },
		func(opts ...ArrayOption) (Code, error) { return NewSingleParity(4, opts...) },
	} {
		planned, err := ctor()
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := ctor(ArrayScalar())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]Code{planned, scalar})
	}
	return out
}

// erasurePatterns enumerates every pattern of at most m erased columns out
// of n (including the empty pattern).
func erasurePatterns(n, m int) [][]int {
	out := [][]int{{}}
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) > 0 {
			out = append(out, append([]int(nil), cur...))
		}
		if len(cur) == m {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	return out
}

// TestPlannedReconstructMatchesGeneric is the differential gate of the plan
// cache: for every code family, message length and 0/1/2-erasure pattern,
// the planned Reconstruct, the seed scalar Reconstruct (which for EVENODD
// includes the zigzag), and the raw generic Gaussian solver must produce
// bit-identical shards.
func TestPlannedReconstructMatchesGeneric(t *testing.T) {
	lengths := []int{0, 1, 1000, 1 << 20}
	if raceEnabled || testing.Short() {
		lengths = []int{0, 1, 1000, 64 << 10} // full sweep at 1 MiB is for the plain run
	}
	for _, pair := range planTestCodes(t) {
		planned, scalar := pair[0], pair[1]
		for _, size := range lengths {
			msg := make([]byte, size)
			rand.New(rand.NewSource(int64(size))).Read(msg)
			shards, err := planned.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			// Cross-check the encoders while we are here.
			scalarShards, err := scalar.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			for col := range shards {
				if !bytes.Equal(shards[col], scalarShards[col]) {
					t.Fatalf("%s len %d: fused and scalar encode differ at column %d", planned.Name(), size, col)
				}
			}
			for _, pat := range erasurePatterns(planned.N(), planned.N()-planned.K()) {
				a := make([][]byte, len(shards))
				b := make([][]byte, len(shards))
				g := make([][]byte, len(shards))
				copy(a, shards)
				copy(b, shards)
				copy(g, shards)
				for _, e := range pat {
					a[e], b[e], g[e] = nil, nil, nil
				}
				if err := planned.Reconstruct(a); err != nil {
					t.Fatalf("%s len %d pat %v: planned: %v", planned.Name(), size, pat, err)
				}
				if err := scalar.Reconstruct(b); err != nil {
					t.Fatalf("%s len %d pat %v: scalar: %v", planned.Name(), size, pat, err)
				}
				if len(pat) > 0 {
					xc := scalar.(*xorCode)
					if err := xc.genericReconstruct(g, len(shards[0])/xc.rows); err != nil {
						t.Fatalf("%s len %d pat %v: generic: %v", planned.Name(), size, pat, err)
					}
				}
				for col := range shards {
					if !bytes.Equal(a[col], shards[col]) {
						t.Fatalf("%s len %d pat %v: planned wrong at column %d", planned.Name(), size, pat, col)
					}
					if !bytes.Equal(b[col], shards[col]) || !bytes.Equal(g[col], shards[col]) {
						t.Fatalf("%s len %d pat %v: reference solver wrong at column %d", planned.Name(), size, pat, col)
					}
				}
				// Decode through the strided-gather path for the same pattern.
				w := make([][]byte, len(shards))
				copy(w, shards)
				for _, e := range pat {
					w[e] = nil
				}
				got, err := planned.Decode(w, size)
				if err != nil {
					t.Fatalf("%s len %d pat %v: decode: %v", planned.Name(), size, pat, err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatalf("%s len %d pat %v: decode mismatch", planned.Name(), size, pat)
				}
			}
		}
	}
}

// TestPlannedReconstructDataLeavesParityNil pins the DataReconstructor
// contract for array codes: pure-parity columns stay nil, data-bearing
// columns are restored bit-exactly (including their in-column parity cells).
func TestPlannedReconstructDataLeavesParityNil(t *testing.T) {
	msg := make([]byte, 4001)
	rand.New(rand.NewSource(7)).Read(msg)
	for _, tc := range []struct {
		code      Code
		dataCol   int // a data-bearing column to erase, -1 to skip
		parityCol int // a pure-parity column to erase, -1 if none exists
	}{
		{mustCode(t)(NewEvenOdd(5)), 1, 5},
		{mustCode(t)(NewSingleParity(4)), 2, -1}, // 1-erasure code: one at a time
		{mustCode(t)(NewSingleParity(4)), -1, 4},
		{mustCode(t)(NewXCode(7)), 3, -1},
		{mustCode(t)(NewBCode(6)), 4, -1},
	} {
		shards, err := tc.code.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		work := make([][]byte, len(shards))
		copy(work, shards)
		if tc.dataCol >= 0 {
			work[tc.dataCol] = nil
		}
		if tc.parityCol >= 0 {
			work[tc.parityCol] = nil
		}
		dr := tc.code.(DataReconstructor)
		if err := dr.ReconstructData(work); err != nil {
			t.Fatalf("%s: %v", tc.code.Name(), err)
		}
		if tc.dataCol >= 0 && !bytes.Equal(work[tc.dataCol], shards[tc.dataCol]) {
			t.Fatalf("%s: data column %d not restored exactly", tc.code.Name(), tc.dataCol)
		}
		if tc.parityCol >= 0 && work[tc.parityCol] != nil {
			t.Fatalf("%s: pure-parity column %d restored by ReconstructData", tc.code.Name(), tc.parityCol)
		}
	}
}

// zeroAllocWriter is an io.Writer whose Write allocates nothing.
type zeroAllocWriter struct{ n int64 }

func (w *zeroAllocWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestStreamDecodeArrayAllocFree asserts the tentpole's zero-allocation
// claim: once the plan for an erasure pattern is cached and the stream
// scratch is warm, per-block reconstruction through StreamDecoder.NextBlock
// allocates nothing. Likewise for the rebuilder.
func TestStreamDecodeArrayAllocFree(t *testing.T) {
	code, err := NewXCode(13)
	if err != nil {
		t.Fatal(err)
	}
	const blockSize = 64 << 10
	const blocks = 120
	const objectSize = blockSize * blocks
	data := make([]byte, objectSize)
	rand.New(rand.NewSource(8)).Read(data)
	streams := make([][]byte, code.N())
	if err := EncodeReader(code, bytes.NewReader(data), blockSize, func(blk int, shards [][]byte, dataLen int) error {
		for i, s := range shards {
			streams[i] = append(streams[i], s...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	pieceLen := code.ShardSize(blockSize)

	feed := func(t *testing.T, next func([][]byte) error, erase ...int) {
		t.Helper()
		shards := make([][]byte, code.N())
		block := 0
		offer := func() {
			for i := range shards {
				shards[i] = streams[i][block*pieceLen : (block+1)*pieceLen]
			}
			for _, e := range erase {
				shards[e] = nil
			}
			block++
		}
		// Warm the plan cache and every scratch buffer.
		offer()
		if err := next(shards); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(blocks-20, func() {
			offer()
			if err := next(shards); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%.1f allocs per reconstructed block, want 0", allocs)
		}
	}

	t.Run("decoder-two-erasures", func(t *testing.T) {
		dec, err := NewStreamDecoder(code, &zeroAllocWriter{}, objectSize, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, dec.NextBlock, 2, 9)
	})
	t.Run("decoder-intact", func(t *testing.T) {
		dec, err := NewStreamDecoder(code, &zeroAllocWriter{}, objectSize, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, dec.NextBlock)
	})
	t.Run("rebuilder", func(t *testing.T) {
		rb, err := NewShardRebuilder(code, 4, &zeroAllocWriter{}, objectSize, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, rb.NextBlock, 4)
	})
}

// TestConcurrentStreamsSharedPlanCache hammers one shared code instance —
// and therefore one shared plan cache — from many concurrent streams, each
// with its own erasure pattern so compilation and lookup race, for an array
// code and for Reed-Solomon. Run under -race in CI.
func TestConcurrentStreamsSharedPlanCache(t *testing.T) {
	xcode, err := NewXCode(7)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewReedSolomon(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range []Code{xcode, rs} {
		const blockSize = 4 << 10
		const objectSize = 64 << 10
		data := make([]byte, objectSize)
		rand.New(rand.NewSource(9)).Read(data)
		streams := make([][]byte, code.N())
		if err := EncodeReader(code, bytes.NewReader(data), blockSize, func(blk int, shards [][]byte, dataLen int) error {
			for i, s := range shards {
				streams[i] = append(streams[i], s...)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var pats [][]int
		for _, p := range erasurePatterns(code.N(), code.N()-code.K()) {
			pats = append(pats, p)
		}
		workers := 4 * runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			pat := pats[w%len(pats)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for iter := 0; iter < 8; iter++ {
					readers := make([]io.Reader, code.N())
					for i := range streams {
						readers[i] = bytes.NewReader(streams[i])
					}
					for _, e := range pat {
						readers[e] = nil
					}
					var out bytes.Buffer
					n, err := DecodeStreams(code, &out, readers, objectSize, blockSize)
					if err != nil || n != objectSize || !bytes.Equal(out.Bytes(), data) {
						errs <- fmt.Errorf("pattern %v: n=%d err=%v", pat, n, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestEncodeIntoMatchesEncode pins BufferEncoder: encoding into reused,
// garbage-prefilled buffers must equal a fresh Encode for every family and
// length, including the padded-tail lengths where stale buffer bytes would
// leak if the pad clear were missing.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	for _, pair := range planTestCodes(t) {
		code := pair[0]
		be := code.(BufferEncoder)
		for _, size := range []int{0, 1, 3, 1000, 4096, 65537} {
			msg := make([]byte, size)
			rand.New(rand.NewSource(int64(size + 1))).Read(msg)
			want, err := code.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			bufs := make([][]byte, code.N())
			for i := range bufs {
				bufs[i] = make([]byte, code.ShardSize(size))
				for j := range bufs[i] {
					bufs[i][j] = 0xAA
				}
			}
			if err := be.EncodeInto(msg, bufs); err != nil {
				t.Fatalf("%s len %d: %v", code.Name(), size, err)
			}
			for col := range bufs {
				if !bytes.Equal(bufs[col], want[col]) {
					t.Fatalf("%s len %d: EncodeInto differs at column %d", code.Name(), size, col)
				}
			}
		}
		// Shape errors.
		if err := be.EncodeInto([]byte("xyz"), make([][]byte, code.N()+1)); err == nil {
			t.Fatalf("%s: EncodeInto accepted wrong shard count", code.Name())
		}
	}
}

// TestEncodeParallelMatchesSerial forces the goroutine fan-out (shrunken
// threshold, inflated GOMAXPROCS) and checks it against the serial kernels
// and the scalar reference bit for bit.
func TestEncodeParallelMatchesSerial(t *testing.T) {
	oldMin := rsParallelMinShard
	rsParallelMinShard = 1 << 10
	defer func() { rsParallelMinShard = oldMin }()
	oldProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(oldProcs)

	for _, ctor := range []func(opts ...ArrayOption) (Code, error){
		func(opts ...ArrayOption) (Code, error) { return NewXCode(13, opts...) },
		func(opts ...ArrayOption) (Code, error) { return NewEvenOdd(7, opts...) },
		func(opts ...ArrayOption) (Code, error) { return NewSingleParity(4, opts...) },
	} {
		par := mustCode(t)(ctor())
		ser := mustCode(t)(ctor(ArraySerial()))
		sca := mustCode(t)(ctor(ArrayScalar()))
		for _, size := range []int{100, 200 << 10, 1 << 20} {
			msg := make([]byte, size)
			rand.New(rand.NewSource(int64(size + 2))).Read(msg)
			a, err := par.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ser.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := sca.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			for col := range a {
				if !bytes.Equal(a[col], b[col]) || !bytes.Equal(a[col], c[col]) {
					t.Fatalf("%s len %d: parallel/serial/scalar encode disagree at column %d", par.Name(), size, col)
				}
			}
		}
	}
}

// TestStreamRoundTripArrayCodes runs the full streaming pipeline (reusing
// encoder buffers and the plan-cached decode path) over shifting erasure
// patterns, per block, for the array codes.
func TestStreamRoundTripArrayCodes(t *testing.T) {
	for _, pair := range planTestCodes(t) {
		code := pair[0]
		const blockSize = 4 << 10
		objectSize := blockSize*5 + 777 // short last block
		data := make([]byte, objectSize)
		rand.New(rand.NewSource(11)).Read(data)
		streams := make([][]byte, code.N())
		if err := EncodeReader(code, bytes.NewReader(data), blockSize, func(blk int, shards [][]byte, dataLen int) error {
			for i, s := range shards {
				streams[i] = append(streams[i], s...)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		dec, err := NewStreamDecoder(code, &out, int64(objectSize), blockSize)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(12))
		shards := make([][]byte, code.N())
		for b := int64(0); b < dec.Blocks(); b++ {
			pieceLen := code.ShardSize(StreamBlockLen(int64(objectSize), blockSize, b))
			off := int(StreamShardOff(code, blockSize, b))
			for i := range shards {
				shards[i] = streams[i][off : off+pieceLen]
			}
			// A different random erasure pattern for every block.
			erased := 0
			for i := range shards {
				if erased < code.N()-code.K() && rng.Intn(2) == 0 {
					shards[i] = nil
					erased++
				}
			}
			if err := dec.NextBlock(shards); err != nil {
				t.Fatalf("%s block %d: %v", code.Name(), b, err)
			}
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("%s: streamed round trip mismatch", code.Name())
		}
	}
}
