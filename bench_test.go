package rain

// Benchmarks timing the computational side of the paper artifacts; the
// tests beside each package assert the claims themselves. The mapping from
// benchmarks and tests to tables/figures is the per-experiment index in
// DESIGN.md.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"rain/internal/ecc"
	"rain/internal/linkstate"
	"rain/internal/membership"
	"rain/internal/sim"
	"rain/internal/topology"
)

// --- E12-E15: Tables 1a/1b/2 and the §4.1 code comparison ---

func benchCodes(b *testing.B) []ecc.Code {
	b.Helper()
	var out []ecc.Code
	for _, ctor := range []func() (ecc.Code, error){
		func() (ecc.Code, error) { return ecc.NewBCode(6) },
		func() (ecc.Code, error) { return ecc.NewXCode(7) },
		func() (ecc.Code, error) { return ecc.NewEvenOdd(5) },
		func() (ecc.Code, error) { return ecc.NewReedSolomon(6, 4) },
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

// --- ISSUE 1: GF(2^8) slice kernels + parallel Reed-Solomon pipeline ---

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
// The kernel-vs-scalar ratio at 1 MiB is the speedup quoted in ISSUE 1.
func BenchmarkRSEncode(b *testing.B) {
	for _, m := range []struct {
		name string
		opts []ecc.RSOption
	}{
		{"scalar", []ecc.RSOption{ecc.RSScalar()}},
		{"kernel", []ecc.RSOption{ecc.RSSerial()}},
		{"parallel", nil},
	} {
		c, err := ecc.NewReedSolomon(10, 8, m.opts...)
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
		opts []ecc.RSOption
	}{
		{"scalar", []ecc.RSOption{ecc.RSScalar()}},
		{"kernel", []ecc.RSOption{ecc.RSSerial()}},
		{"parallel", nil},
	} {
		c, err := ecc.NewReedSolomon(10, 8, m.opts...)
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
// lost data shard with parity P surviving — with the SWAR XOR fast path
// ("xor") against the general decode-matrix route ("general"). The xor/
// general ratio at 1 MiB is the ISSUE 2 satellite's before/after number.
func BenchmarkRSRepairSingleErasure(b *testing.B) {
	for _, m := range []struct {
		name string
		opts []ecc.RSOption
	}{
		{"xor", nil},
		{"general", []ecc.RSOption{ecc.RSNoXorRepair()}},
	} {
		c, err := ecc.NewReedSolomon(10, 8, m.opts...)
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
			b.Run(fmt.Sprintf("%s/%s", m.name, size.name), func(b *testing.B) {
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
}

// --- ISSUE 5: array-code fast path (fused XOR kernels + cached plans) ---

// arrayBenchModes are the three array-code backends the perf trajectory
// tracks: the seed per-term XorSlice path ("scalar"), the fused
// gf.XorVecSlice gathers on one goroutine ("kernel"), and the default
// GOMAXPROCS fan-out on top of the kernels ("parallel").
var arrayBenchModes = []struct {
	name string
	opts []ecc.ArrayOption
}{
	{"scalar", []ecc.ArrayOption{ecc.ArrayScalar()}},
	{"kernel", []ecc.ArrayOption{ecc.ArraySerial()}},
	{"parallel", nil},
}

// BenchmarkArrayEncode measures xcode(13,11) encode throughput for the
// three backends, plus the reused-buffer EncodeInto path ("into") that the
// streaming encoder rides — the buffer reuse removes the n×ShardSize
// allocate-and-zero from every block. The kernel- and into-vs-scalar ratios
// at 1 MiB extend the PR 1 before/after trajectory to the array codes.
func BenchmarkArrayEncode(b *testing.B) {
	for _, m := range arrayBenchModes {
		c, err := ecc.NewXCode(13, m.opts...)
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
	c, err := ecc.NewXCode(13)
	if err != nil {
		b.Fatal(err)
	}
	be := c.(ecc.BufferEncoder)
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
		opts []ecc.ArrayOption
	}{
		{"scalar", []ecc.ArrayOption{ecc.ArrayScalar()}},
		{"planned", nil},
	} {
		c, err := ecc.NewXCode(13, m.opts...)
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

// --- ISSUE 3: streaming decode vs whole-shard decode ---

// BenchmarkStreamDecode measures block-wise streaming decode of a 4 MiB
// object at the trajectory's block sizes against the whole-shard Decode
// baseline ("whole"), with n-k data shards erased so every block pays
// reconstruction. The stream path reads shard streams through io.Readers
// and writes decoded data through an io.Writer — the dstore retrieve shape
// — with memory bounded by the block size instead of the object size.
func BenchmarkStreamDecode(b *testing.B) {
	code, err := ecc.NewReedSolomon(10, 8)
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
		if err := ecc.EncodeReader(code, bytes.NewReader(data), size.n, func(blk int, shards [][]byte, dataLen int) error {
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
				n, err := ecc.DecodeStreams(code, io.Discard, readers, objectSize, size.n)
				if err != nil || n != objectSize {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
	// Array-code cases (ISSUE 5): same object, xcode(13,11), two data
	// columns erased so every block pays reconstruction. "scalar" routes
	// each block through the seed path (work-copy + fresh GF(2) Gaussian
	// solve + whole-column materialisation); "planned" replays the cached
	// XOR schedule for the erasure pattern straight into the reused block
	// buffer, allocation-free. Their ratio is the ISSUE 5 streaming-decode
	// before/after number.
	scalarX, err := ecc.NewXCode(13, ecc.ArrayScalar())
	if err != nil {
		b.Fatal(err)
	}
	plannedX, err := ecc.NewXCode(13)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range rsBenchSizes[:2] { // 4KiB, 64KiB blocks
		streams := make([][]byte, plannedX.N())
		if err := ecc.EncodeReader(plannedX, bytes.NewReader(data), size.n, func(blk int, shards [][]byte, dataLen int) error {
			for i, s := range shards {
				streams[i] = append(streams[i], s...)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		for _, m := range []struct {
			name string
			code ecc.Code
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
					n, err := ecc.DecodeStreams(m.code, io.Discard, readers, objectSize, size.n)
					if err != nil || n != objectSize {
						b.Fatalf("n=%d err=%v", n, err)
					}
				}
			})
		}
	}
}

// --- E1-E3: Figs 3-5 / Theorem 2.1 ---

// BenchmarkTopologyWorstCase3Faults measures exhaustive 3-fault analysis of
// the two constructions (the computation behind E1/E2's table).
func BenchmarkTopologyWorstCase3Faults(b *testing.B) {
	naive, err := topology.NewNaive(topology.RingFabric, 10, 10, 2)
	if err != nil {
		b.Fatal(err)
	}
	diam, err := topology.NewDiameter(topology.RingFabric, 10, 10)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		top  *topology.Topology
	}{{"naive", naive}, {"diameter", diam}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				worst, _ := tc.top.WorstCase(tc.top.SwitchElements(), 3)
				if worst.NodesLost > 6 {
					b.Fatalf("bound violated: %d", worst.NodesLost)
				}
			}
		})
	}
}

// --- E4-E6: Figs 6-8 ---

// BenchmarkLinkStateProtocol measures the token-counting engine under an
// adversarial event mix.
func BenchmarkLinkStateProtocol(b *testing.B) {
	for _, slack := range []int{2, 8} {
		b.Run(fmt.Sprintf("slack=%d", slack), func(b *testing.B) {
			a, err := linkstate.NewEndpoint(slack, linkstate.TinOnToken)
			if err != nil {
				b.Fatal(err)
			}
			p, err := linkstate.NewEndpoint(slack, linkstate.TinOnToken)
			if err != nil {
				b.Fatal(err)
			}
			var qAB, qBA []int
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < b.N; i++ {
				switch rng.Intn(4) {
				case 0:
					if n := a.Tout(); n > 0 {
						qAB = append(qAB, n)
					}
				case 1:
					if n := p.Tout(); n > 0 {
						qBA = append(qBA, n)
					}
				case 2:
					if len(qAB) > 0 {
						qAB = qAB[1:]
						if n := p.Token(); n > 0 {
							qBA = append(qBA, n)
						}
					}
				case 3:
					if len(qBA) > 0 {
						qBA = qBA[1:]
						if n := a.Token(); n > 0 {
							qAB = append(qAB, n)
						}
					}
				}
			}
		})
	}
}

// --- E7-E11: Fig 9 ---

// BenchmarkMembershipTokenRound measures simulated wall time per full token
// revolution of a 4-node ring (Fig 9a dynamics).
func BenchmarkMembershipTokenRound(b *testing.B) {
	s := sim.New(5)
	net := sim.NewNetwork(s)
	c := membership.NewCluster(s, net, []string{"A", "B", "C", "D"}, membership.Config{})
	s.RunFor(500 * time.Millisecond)
	b.ResetTimer()
	start := c.Members["A"].TokenVisits()
	for i := 0; i < b.N; i++ {
		target := start + uint64(i+1)
		for c.Members["A"].TokenVisits() < target {
			if !s.Step() {
				b.Fatal("simulation drained")
			}
		}
	}
}
