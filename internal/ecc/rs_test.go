package ecc

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rain/internal/gf"
)

// rsTestShapes are the (n, k) shapes of the ISSUE 1 round-trip matrix:
// (5,3) and (10,8) take the P+Q fast path (n-k == 2), (14,10) the general
// Vandermonde construction (n-k == 4).
var rsTestShapes = [][2]int{{5, 3}, {10, 8}, {14, 10}}

// forEachErasurePattern calls fn with every subset of {0..n-1} of size 0 up
// to maxErase, reusing one scratch slice.
func forEachErasurePattern(n, maxErase int, fn func(pattern []int)) {
	pattern := make([]int, 0, maxErase)
	var rec func(start int)
	rec = func(start int) {
		fn(pattern)
		if len(pattern) == maxErase {
			return
		}
		for i := start; i < n; i++ {
			pattern = append(pattern, i)
			rec(i + 1)
			pattern = pattern[:len(pattern)-1]
		}
	}
	rec(0)
}

// TestRSEveryErasurePattern round-trips every erasure pattern of up to n-k
// shards for each test shape at sizes 0, 1, 1000 and 1<<20 bytes. The 1<<20
// sweep subsamples multi-erasure patterns under -race or -short, where full
// coverage would take minutes; single erasures are always all covered.
func TestRSEveryErasurePattern(t *testing.T) {
	sizes := []int{0, 1, 1000, 1 << 20}
	for _, shape := range rsTestShapes {
		n, k := shape[0], shape[1]
		c, err := NewReedSolomon(n, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range sizes {
			msg := make([]byte, size)
			rand.New(rand.NewSource(int64(n*1000 + size%997))).Read(msg)
			shards, err := c.Encode(msg)
			if err != nil {
				t.Fatalf("%s: encode %d bytes: %v", c.Name(), size, err)
			}
			subsample := size == 1<<20 && (raceEnabled || testing.Short())
			idx := 0
			forEachErasurePattern(n, n-k, func(pattern []int) {
				idx++
				if subsample && len(pattern) > 1 && idx%23 != 0 {
					return
				}
				work := make([][]byte, len(shards))
				copy(work, shards)
				for _, e := range pattern {
					work[e] = nil
				}
				got, err := c.Decode(work, size)
				if err != nil {
					t.Fatalf("%s: size %d erasures %v: %v", c.Name(), size, pattern, err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatalf("%s: size %d erasures %v: wrong bytes", c.Name(), size, pattern)
				}
			})
		}
	}
}

// TestRSReconstructEveryPattern checks that Reconstruct (not just Decode)
// restores every erased shard to its encoded value for every pattern.
func TestRSReconstructEveryPattern(t *testing.T) {
	for _, shape := range rsTestShapes {
		n, k := shape[0], shape[1]
		c, err := NewReedSolomon(n, k)
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, 1000)
		rand.New(rand.NewSource(int64(n))).Read(msg)
		shards, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		forEachErasurePattern(n, n-k, func(pattern []int) {
			work := make([][]byte, len(shards))
			copy(work, shards)
			for _, e := range pattern {
				work[e] = nil
			}
			if err := c.Reconstruct(work); err != nil {
				t.Fatalf("%s: erasures %v: %v", c.Name(), pattern, err)
			}
			for i := range shards {
				if !bytes.Equal(work[i], shards[i]) {
					t.Fatalf("%s: erasures %v: shard %d not restored", c.Name(), pattern, i)
				}
			}
		})
	}
}

// TestRSModesAgree encodes the same data under the serial-kernel and
// parallel modes (same generator) and requires byte-identical shards; for
// the Vandermonde shapes (n-k > 2) the scalar seed-reference mode shares
// the generator too and must also agree bit for bit — the RS-level
// differential check that the kernels compute exactly what the seed did.
func TestRSModesAgree(t *testing.T) {
	oldMin := rsParallelMinShard
	rsParallelMinShard = 1 << 10 // force the parallel path at test sizes
	defer func() { rsParallelMinShard = oldMin }()
	for _, shape := range rsTestShapes {
		n, k := shape[0], shape[1]
		def, err := NewReedSolomon(n, k)
		if err != nil {
			t.Fatal(err)
		}
		ser, err := NewReedSolomon(n, k, RSSerial())
		if err != nil {
			t.Fatal(err)
		}
		sca, err := NewReedSolomon(n, k, RSScalar())
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{0, 1, 333, 64 << 10, 1 << 20} {
			msg := make([]byte, size)
			rand.New(rand.NewSource(int64(size + n))).Read(msg)
			want, err := ser.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			gotPar, err := def.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !bytes.Equal(want[i], gotPar[i]) {
					t.Fatalf("rs(%d,%d) size %d: parallel shard %d differs from serial", n, k, size, i)
				}
			}
			if n-k > 2 {
				gotSca, err := sca.Encode(msg)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !bytes.Equal(want[i], gotSca[i]) {
						t.Fatalf("rs(%d,%d) size %d: kernel shard %d differs from seed scalar path", n, k, size, i)
					}
				}
			}
		}
	}
}

// TestRSScalarModeIsMDS verifies the seed-reference construction stays a
// correct MDS code in its own right (it uses the pre-kernel generator for
// n-k <= 2, so it cannot be compared shard-for-shard with the P+Q path).
func TestRSScalarModeIsMDS(t *testing.T) {
	msg := make([]byte, 769)
	rand.New(rand.NewSource(42)).Read(msg)
	for _, shape := range rsTestShapes {
		c, err := NewReedSolomon(shape[0], shape[1], RSScalar())
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyMDS(c, msg); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRSConcurrentEncode hammers one code instance from many goroutines,
// covering both the small-block serial path and the forced parallel path.
// Run under -race (CI does) this proves codes are safe for concurrent use.
func TestRSConcurrentEncode(t *testing.T) {
	oldMin := rsParallelMinShard
	rsParallelMinShard = 4 << 10
	defer func() { rsParallelMinShard = oldMin }()
	c, err := NewReedSolomon(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	shared := make([]byte, 128<<10) // one buffer encoded by all goroutines
	rand.New(rand.NewSource(9)).Read(shared)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 8; iter++ {
				var data []byte
				if iter%2 == 0 {
					data = shared
				} else {
					data = make([]byte, 1+rng.Intn(32<<10))
					rng.Read(data)
				}
				shards, err := c.Encode(data)
				if err != nil {
					errs <- err
					return
				}
				for j := 0; j < c.N()-c.K(); j++ {
					shards[(g+iter+j)%c.N()] = nil
				}
				got, err := c.Decode(shards, len(data))
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("goroutine %d iter %d: round trip mismatch", g, iter)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRSEncodeAliasesFullShards pins down the documented copy-free
// contract: full data shards alias the input, and the partial tail shard
// does not.
func TestRSEncodeAliasesFullShards(t *testing.T) {
	c, err := NewReedSolomon(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 301) // shardLen 101: shards 0,1 full, shard 2 partial
	rand.New(rand.NewSource(5)).Read(data)
	shards, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if &shards[0][0] != &data[0] || &shards[1][0] != &data[101] {
		t.Fatal("full data shards must alias the input buffer")
	}
	// Parity must change if the caller mutates data and re-encodes — and the
	// previously returned aliased shard sees the mutation (the documented
	// hazard).
	data[0] ^= 0xff
	if shards[0][0] != data[0] {
		t.Fatal("aliased shard did not reflect input mutation")
	}
	// Scalar mode preserves the seed's copy-everything behaviour.
	sc, err := NewReedSolomon(5, 3, RSScalar())
	if err != nil {
		t.Fatal(err)
	}
	sShards, err := sc.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if &sShards[0][0] == &data[0] {
		t.Fatal("scalar mode must not alias the input")
	}
}

// TestRSParallelThresholdRespected checks the GOMAXPROCS-aware fan-out does
// not change results across the activation boundary.
func TestRSParallelThresholdRespected(t *testing.T) {
	oldMin := rsParallelMinShard
	defer func() { rsParallelMinShard = oldMin }()
	c, err := NewReedSolomon(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512<<10)
	rand.New(rand.NewSource(77)).Read(data)
	rsParallelMinShard = 1 << 30 // never parallel
	serial, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	rsParallelMinShard = 1 << 10 // always parallel at this size
	parallel, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Fatalf("shard %d differs across the parallel threshold", i)
		}
	}
}

// TestRSPQGeneratorShape pins the P+Q construction: identity on top, then
// an all-ones row, then ascending powers of alpha.
func TestRSPQGeneratorShape(t *testing.T) {
	c, err := NewReedSolomon(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	rs := c.(*rsCode)
	if !rs.pq {
		t.Fatal("rs(10,8) should take the P+Q fast path")
	}
	for j := 0; j < 8; j++ {
		if rs.gen.At(8, j) != 1 {
			t.Fatalf("P row entry %d = %d, want 1", j, rs.gen.At(8, j))
		}
		if rs.gen.At(9, j) != gf.Exp(j) {
			t.Fatalf("Q row entry %d = %d, want alpha^%d", j, rs.gen.At(9, j), j)
		}
	}
	g, err := NewReedSolomon(14, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.(*rsCode).pq {
		t.Fatal("rs(14,10) must use the general construction")
	}
}

// TestRSEncodeIntoMatchesEncode pins the Reed-Solomon BufferEncoder:
// encoding into reused, garbage-prefilled buffers must equal a fresh Encode
// for every shape and mode, including padded-tail lengths where stale
// buffer bytes would leak if the pad clear were missing.
func TestRSEncodeIntoMatchesEncode(t *testing.T) {
	for _, shape := range rsTestShapes {
		for _, opts := range [][]RSOption{nil, {RSScalar()}} {
			c, err := NewReedSolomon(shape[0], shape[1], opts...)
			if err != nil {
				t.Fatal(err)
			}
			be := c.(BufferEncoder)
			for _, size := range []int{1, 3, 1000, 4096, 65537} {
				msg := make([]byte, size)
				rand.New(rand.NewSource(int64(size))).Read(msg)
				want, err := c.Encode(msg)
				if err != nil {
					t.Fatal(err)
				}
				bufs := make([][]byte, c.N())
				for i := range bufs {
					bufs[i] = make([]byte, c.ShardSize(size))
					for j := range bufs[i] {
						bufs[i][j] = 0xAA
					}
				}
				if err := be.EncodeInto(msg, bufs); err != nil {
					t.Fatalf("rs%v len %d: %v", shape, size, err)
				}
				for col := range bufs {
					if !bytes.Equal(bufs[col], want[col]) {
						t.Fatalf("rs%v len %d: EncodeInto differs at shard %d", shape, size, col)
					}
				}
			}
			if err := be.EncodeInto([]byte("xyz"), make([][]byte, c.N()+1)); err == nil {
				t.Fatalf("rs%v: EncodeInto accepted wrong shard count", shape)
			}
		}
	}
}
