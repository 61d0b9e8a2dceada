package ecc

// Micro-benchmarks timing the computational side of the paper artifacts
// this package implements; the tests beside them assert the claims
// themselves. DESIGN.md's per-experiment index maps both to the paper's
// tables and figures.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// --- E12-E15: Tables 1a/1b/2 and the §4.1 code comparison ---

func benchCodes(b *testing.B) []Code {
	b.Helper()
	var out []Code
	for _, ctor := range []func() (Code, error){
		func() (Code, error) { return NewBCode(6) },
		func() (Code, error) { return NewXCode(7) },
		func() (Code, error) { return NewEvenOdd(5) },
		func() (Code, error) { return NewReedSolomon(6, 4) },
	} {
		c, err := ctor()
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// BenchmarkEncode measures encode throughput per code family (E15: the
// XOR-only array codes vs GF(256) Reed-Solomon).
func BenchmarkEncode(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	for _, c := range benchCodes(b) {
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := c.Encode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode measures worst-case (max erasures) decode throughput
// (E14/E15: Table 2's recovery, at scale).
func BenchmarkDecode(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(2)).Read(data)
	for _, c := range benchCodes(b) {
		shards, err := c.Encode(data)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				work := make([][]byte, len(shards))
				copy(work, shards)
				for j := 0; j < c.N()-c.K(); j++ {
					work[(i+j)%c.N()] = nil
				}
				if _, err := c.Decode(work, len(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReconstructOneShard measures the common repair case: a single
// lost node rebuilt (the §4.2 hot-swap path).
func BenchmarkReconstructOneShard(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(data)
	for _, c := range benchCodes(b) {
		shards, err := c.Encode(data)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				work := make([][]byte, len(shards))
				copy(work, shards)
				work[i%c.N()] = nil
				if err := c.Reconstruct(work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- GF(2^8) slice kernels + parallel Reed-Solomon pipeline ---

// rsBenchSizes are the block sizes the perf trajectory tracks.
var rsBenchSizes = []struct {
	name string
	n    int
}{
	{"4KiB", 4 << 10},
	{"64KiB", 64 << 10},
	{"1MiB", 1 << 20},
}

// BenchmarkRSEncode measures RS(10,8) encode throughput for the three
// arithmetic backends: the seed byte-at-a-time exp/log path ("scalar"), the
// fused 256-byte-table slice kernels on one goroutine ("kernel"), and the
// default chunked GOMAXPROCS fan-out on top of the kernels ("parallel").
// The kernel-vs-scalar ratio at 1 MiB is the slice kernels' speedup.
func BenchmarkRSEncode(b *testing.B) {
	for _, m := range []struct {
		name string
		opts []RSOption
	}{
		{"scalar", []RSOption{RSScalar()}},
		{"kernel", []RSOption{RSSerial()}},
		{"parallel", nil},
	} {
		c, err := NewReedSolomon(10, 8, m.opts...)
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range rsBenchSizes {
			data := make([]byte, size.n)
			rand.New(rand.NewSource(21)).Read(data)
			b.Run(fmt.Sprintf("%s/%s", m.name, size.name), func(b *testing.B) {
				b.SetBytes(int64(size.n))
				for i := 0; i < b.N; i++ {
					if _, err := c.Encode(data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRSDecode measures worst-case decode (n-k erasures, all data
// shards lost) for the same three backends.
func BenchmarkRSDecode(b *testing.B) {
	for _, m := range []struct {
		name string
		opts []RSOption
	}{
		{"scalar", []RSOption{RSScalar()}},
		{"kernel", []RSOption{RSSerial()}},
		{"parallel", nil},
	} {
		c, err := NewReedSolomon(10, 8, m.opts...)
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range rsBenchSizes {
			data := make([]byte, size.n)
			rand.New(rand.NewSource(22)).Read(data)
			shards, err := c.Encode(data)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", m.name, size.name), func(b *testing.B) {
				b.SetBytes(int64(size.n))
				for i := 0; i < b.N; i++ {
					work := make([][]byte, len(shards))
					copy(work, shards)
					work[i%c.K()] = nil
					work[(i+1)%c.K()] = nil
					if _, err := c.Decode(work, size.n); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRSRepairSingleErasure measures the §4.2 common repair case — one
// lost data shard with parity P surviving — on the default RS(10,8). The
// cached plan's row for that pattern is all ones, so the repair is one
// fused SWAR XOR pass over the k survivors with no per-call inversion.
func BenchmarkRSRepairSingleErasure(b *testing.B) {
	c, err := NewReedSolomon(10, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range rsBenchSizes {
		data := make([]byte, size.n)
		rand.New(rand.NewSource(23)).Read(data)
		shards, err := c.Encode(data)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(size.name, func(b *testing.B) {
			b.SetBytes(int64(size.n))
			for i := 0; i < b.N; i++ {
				work := make([][]byte, len(shards))
				copy(work, shards)
				work[i%c.K()] = nil
				if err := c.Reconstruct(work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- array-code fast path (fused XOR kernels + cached plans) ---

// arrayBenchModes are the three array-code backends the perf trajectory
// tracks: the seed per-term XorSlice path ("scalar"), the fused
// gf.XorVecSlice gathers on one goroutine ("kernel"), and the default
// GOMAXPROCS fan-out on top of the kernels ("parallel").
var arrayBenchModes = []struct {
	name string
	opts []ArrayOption
}{
	{"scalar", []ArrayOption{ArrayScalar()}},
	{"kernel", []ArrayOption{ArraySerial()}},
	{"parallel", nil},
}

// BenchmarkArrayEncode measures xcode(13,11) encode throughput for the
// three backends, plus the reused-buffer EncodeInto path ("into") that the
// streaming encoder rides — the buffer reuse removes the n×ShardSize
// allocate-and-zero from every block. The kernel- and into-vs-scalar ratios
// at 1 MiB are the array codes' counterpart of the RS kernel speedup.
func BenchmarkArrayEncode(b *testing.B) {
	for _, m := range arrayBenchModes {
		c, err := NewXCode(13, m.opts...)
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range rsBenchSizes[1:] { // 64KiB, 1MiB
			data := make([]byte, size.n)
			rand.New(rand.NewSource(41)).Read(data)
			b.Run(fmt.Sprintf("xcode13/%s/%s", m.name, size.name), func(b *testing.B) {
				b.SetBytes(int64(size.n))
				for i := 0; i < b.N; i++ {
					if _, err := c.Encode(data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	c, err := NewXCode(13)
	if err != nil {
		b.Fatal(err)
	}
	be := c.(BufferEncoder)
	for _, size := range rsBenchSizes[1:] {
		data := make([]byte, size.n)
		rand.New(rand.NewSource(41)).Read(data)
		shards := make([][]byte, c.N())
		for i := range shards {
			shards[i] = make([]byte, c.ShardSize(size.n))
		}
		b.Run(fmt.Sprintf("xcode13/into/%s", size.name), func(b *testing.B) {
			b.SetBytes(int64(size.n))
			for i := 0; i < b.N; i++ {
				if err := be.EncodeInto(data, shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArrayReconstruct measures two-column repair of a 1 MiB
// xcode(13,11) codeword: the seed path ("scalar": a fresh GF(2) Gaussian
// elimination per call) against the compiled-plan replay ("planned": cached
// XOR schedule, fused gathers, zero solver work per call).
func BenchmarkArrayReconstruct(b *testing.B) {
	for _, m := range []struct {
		name string
		opts []ArrayOption
	}{
		{"scalar", []ArrayOption{ArrayScalar()}},
		{"planned", nil},
	} {
		c, err := NewXCode(13, m.opts...)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, 1<<20)
		rand.New(rand.NewSource(42)).Read(data)
		shards, err := c.Encode(data)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("xcode13/%s/1MiB", m.name), func(b *testing.B) {
			b.SetBytes(1 << 20)
			for i := 0; i < b.N; i++ {
				work := make([][]byte, len(shards))
				copy(work, shards)
				work[i%c.N()] = nil
				work[(i+1)%c.N()] = nil
				if err := c.Reconstruct(work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- streaming decode vs whole-shard decode ---

// BenchmarkStreamDecode measures block-wise streaming decode of a 4 MiB
// object at the trajectory's block sizes against the whole-shard Decode
// baseline ("whole"), with n-k data shards erased so every block pays
// reconstruction. The stream path reads shard streams through io.Readers
// and writes decoded data through an io.Writer — the dstore retrieve shape
// — with memory bounded by the block size instead of the object size.
func BenchmarkStreamDecode(b *testing.B) {
	code, err := NewReedSolomon(10, 8)
	if err != nil {
		b.Fatal(err)
	}
	const objectSize = 4 << 20
	data := make([]byte, objectSize)
	rand.New(rand.NewSource(31)).Read(data)
	b.Run("whole", func(b *testing.B) {
		shards, err := code.Encode(data)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(objectSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			work := make([][]byte, len(shards))
			copy(work, shards)
			work[i%code.K()] = nil
			work[(i+1)%code.K()] = nil
			if _, err := code.Decode(work, objectSize); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, size := range rsBenchSizes {
		streams := make([][]byte, code.N())
		if err := EncodeReader(code, bytes.NewReader(data), size.n, func(blk int, shards [][]byte, dataLen int) error {
			for i, s := range shards {
				streams[i] = append(streams[i], s...)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		b.Run("stream/"+size.name, func(b *testing.B) {
			b.SetBytes(objectSize)
			for i := 0; i < b.N; i++ {
				readers := make([]io.Reader, code.N())
				for j := range streams {
					readers[j] = bytes.NewReader(streams[j])
				}
				readers[i%code.K()] = nil
				readers[(i+1)%code.K()] = nil
				n, err := DecodeStreams(code, io.Discard, readers, objectSize, size.n)
				if err != nil || n != objectSize {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
	// Array-code cases: same object, xcode(13,11), two data
	// columns erased so every block pays reconstruction. "scalar" routes
	// each block through the seed path (work-copy + fresh GF(2) Gaussian
	// solve + whole-column materialisation); "planned" replays the cached
	// XOR schedule for the erasure pattern straight into the reused block
	// buffer, allocation-free. Their ratio is the plans' streaming-decode
	// speedup.
	scalarX, err := NewXCode(13, ArrayScalar())
	if err != nil {
		b.Fatal(err)
	}
	plannedX, err := NewXCode(13)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range rsBenchSizes[:2] { // 4KiB, 64KiB blocks
		streams := make([][]byte, plannedX.N())
		if err := EncodeReader(plannedX, bytes.NewReader(data), size.n, func(blk int, shards [][]byte, dataLen int) error {
			for i, s := range shards {
				streams[i] = append(streams[i], s...)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		for _, m := range []struct {
			name string
			code Code
		}{{"scalar", scalarX}, {"planned", plannedX}} {
			b.Run(fmt.Sprintf("xcode13/%s/%s", m.name, size.name), func(b *testing.B) {
				b.SetBytes(objectSize)
				for i := 0; i < b.N; i++ {
					readers := make([]io.Reader, m.code.N())
					for j := range streams {
						readers[j] = bytes.NewReader(streams[j])
					}
					readers[i%m.code.N()] = nil
					readers[(i+1)%m.code.N()] = nil
					n, err := DecodeStreams(m.code, io.Discard, readers, objectSize, size.n)
					if err != nil || n != objectSize {
						b.Fatalf("n=%d err=%v", n, err)
					}
				}
			})
		}
	}
}
