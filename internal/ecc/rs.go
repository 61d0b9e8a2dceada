package ecc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rain/internal/gf"
)

// Tunables for the Reed-Solomon hot path. Variables rather than constants so
// the tests can force the parallel path onto small shards.
var (
	// rsParallelMinShard is the per-shard byte count above which row
	// application fans out across goroutines. Below it the goroutine and
	// scheduling overhead outweighs the win.
	rsParallelMinShard = 64 << 10
	// rsChunkSize is the column-range granularity of both the serial and
	// parallel chunked paths: each pass touches rsChunkSize bytes of every
	// shard so the working set stays cache-resident.
	rsChunkSize = 32 << 10
)

// rsMode selects the arithmetic backend for one rsCode instance.
type rsMode int

const (
	// rsKernelParallel uses the fused gf table kernels and, above
	// rsParallelMinShard, a GOMAXPROCS-aware goroutine fan-out. The default.
	rsKernelParallel rsMode = iota
	// rsKernelSerial uses the fused table kernels on a single goroutine.
	rsKernelSerial
	// rsScalarRef uses the pre-kernel byte-at-a-time exp/log reference path
	// (gf.MulAddSliceRef). Kept so benchmarks and differential tests can
	// reproduce the seed implementation exactly.
	rsScalarRef
)

// RSOption customises a Reed-Solomon code built by NewReedSolomon.
type RSOption func(*rsCode)

// RSSerial disables the goroutine-parallel encode/reconstruct path while
// keeping the fused table kernels. Used to isolate kernel speedup from
// parallel speedup in benchmarks.
func RSSerial() RSOption { return func(c *rsCode) { c.mode = rsKernelSerial } }

// RSScalar selects the byte-at-a-time exp/log reference arithmetic — the
// seed implementation predating the slice kernels. It exists for
// differential tests and before/after benchmarks; production callers want
// the default.
func RSScalar() RSOption { return func(c *rsCode) { c.mode = rsScalarRef } }

// RSNoXorRepair disables the single-erasure XOR repair fast path, forcing
// the general decode-matrix route. It exists for before/after benchmarks;
// production callers want the default.
func RSNoXorRepair() RSOption { return func(c *rsCode) { c.noXorRepair = true } }

// rsCode is a systematic Reed-Solomon (n, k) code over GF(2^8), the paper's
// §4.1 example of a general MDS code. It tolerates any n-k erasures but pays
// one field multiplication per byte per parity row, the cost the XOR-only
// array codes avoid. Encode and Reconstruct run on the fused slice kernels
// of internal/gf and fan out across goroutines for large blocks; the value
// is immutable after construction and safe for concurrent use.
//
// Two generator constructions are used. For n-k <= 2 (the RAID-6 shape) the
// parity block is P+Q: row P is all ones (pure 64-bit XOR) and row Q is
// ascending powers of alpha, evaluated by Horner's rule with the SWAR
// multiply-by-alpha kernel — both rows cost a few ALU ops per 8 bytes
// instead of a table lookup per byte. Any k x k submatrix of [I; 1; alpha^j]
// is nonsingular (the 2x2 parity minors are alpha^j1 + alpha^j2 != 0 for
// distinct exponents), so the code stays MDS. For n-k > 2, and always in the
// RSScalar seed-reference mode, the generator is the classic systematic
// Vandermonde transform V * V_top^-1. The two constructions are different
// (equally valid) codes, so shards must be decoded by an instance using the
// same construction as the encoder.
type rsCode struct {
	n, k int
	name string
	mode rsMode
	// pq marks the P+Q fast-path generator described above.
	pq bool
	// noXorRepair disables the single-erasure XOR repair path (benchmarks).
	noXorRepair bool
	// gen is the n x k systematic generator matrix: the top k rows are the
	// identity, the bottom n-k rows produce parity.
	gen *gf.Matrix
	// parity aliases the bottom n-k rows of gen as an (n-k) x k matrix, the
	// shape Encode feeds to MulVecSlices.
	parity *gf.Matrix
}

// NewReedSolomon constructs a systematic Reed-Solomon code with k data
// shards and n total shards. Requires 1 <= k < n <= 256.
func NewReedSolomon(n, k int, opts ...RSOption) (Code, error) {
	if k < 1 || n <= k || n > 256 {
		return nil, fmt.Errorf("%w: reed-solomon requires 1 <= k < n <= 256, got n=%d k=%d", ErrInvalidParams, n, k)
	}
	c := &rsCode{n: n, k: k, name: fmt.Sprintf("rs(%d,%d)", n, k)}
	for _, opt := range opts {
		opt(c)
	}
	if n-k <= 2 && c.mode != rsScalarRef {
		c.pq = true
		c.gen = pqGenerator(n, k)
	} else {
		v := gf.Vandermonde(n, k)
		top := gf.NewMatrix(k, k)
		copy(top.Data, v.Data[:k*k])
		inv, ok := top.Invert()
		if !ok {
			return nil, fmt.Errorf("%w: vandermonde top block singular", ErrInvalidParams)
		}
		c.gen = v.Mul(inv)
	}
	c.parity = &gf.Matrix{Rows: n - k, Cols: k, Data: c.gen.Data[k*k:]}
	return c, nil
}

// pqGenerator builds the systematic P+Q generator: identity on top, then an
// all-ones row, then (for n-k == 2) ascending powers of alpha.
func pqGenerator(n, k int) *gf.Matrix {
	g := gf.NewMatrix(n, k)
	for i := 0; i < k; i++ {
		g.Set(i, i, 1)
	}
	for j := 0; j < k; j++ {
		g.Set(k, j, 1)
	}
	if n-k == 2 {
		for j := 0; j < k; j++ {
			g.Set(k+1, j, gf.Exp(j))
		}
	}
	return g
}

func (c *rsCode) Name() string { return c.name }
func (c *rsCode) N() int       { return c.n }
func (c *rsCode) K() int       { return c.k }

// ContiguousData marks the systematic contiguous data layout (shard i is
// message bytes [i*shardLen, (i+1)*shardLen)) for the streaming decoder.
func (c *rsCode) ContiguousData() {}

func (c *rsCode) shardLen(dataLen int) int {
	if dataLen <= 0 {
		return 1
	}
	return ceilDiv(dataLen, c.k)
}

func (c *rsCode) ShardSize(dataLen int) int { return c.shardLen(dataLen) }

// forEachChunk cuts the column range [0, shardLen) into rsChunkSize pieces
// and applies fn to each so the per-pass working set stays cache-resident.
// In the default mode, chunks of large shards are distributed over up to
// GOMAXPROCS worker goroutines pulling from a shared atomic counter; fn must
// therefore be safe to call concurrently on disjoint ranges.
func (c *rsCode) forEachChunk(shardLen int, fn func(off, end int)) {
	chunks := ceilDiv(shardLen, rsChunkSize)
	workers := 1
	if c.mode == rsKernelParallel && shardLen >= rsParallelMinShard {
		workers = min(runtime.GOMAXPROCS(0), chunks)
	}
	if workers <= 1 {
		for off := 0; off < shardLen; off += rsChunkSize {
			fn(off, min(off+rsChunkSize, shardLen))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				off := (int(next.Add(1)) - 1) * rsChunkSize
				if off >= shardLen {
					return
				}
				fn(off, min(off+rsChunkSize, shardLen))
			}
		}()
	}
	wg.Wait()
}

// chunked runs fn over per-chunk subslices of in and out, scheduling the
// column ranges through forEachChunk. len(out) must be > 0 and every slice
// must be at least len(out[0]) bytes.
func (c *rsCode) chunked(in, out [][]byte, fn func(ins, outs [][]byte)) {
	c.forEachChunk(len(out[0]), func(off, end int) {
		ins := make([][]byte, len(in))
		outs := make([][]byte, len(out))
		for j := range in {
			ins[j] = in[j][off:end]
		}
		for r := range out {
			outs[r] = out[r][off:end]
		}
		fn(ins, outs)
	})
}

// applyRows computes out[r] = sum_j mat[r][j] * in[j] for every row, over
// the full shard length. All out slices must have equal length, every input
// must be at least that long, and — in scalar mode only — out must be
// zeroed.
func (c *rsCode) applyRows(mat *gf.Matrix, in, out [][]byte) {
	if len(out) == 0 {
		return
	}
	shardLen := len(out[0])
	if shardLen == 0 {
		return
	}
	if c.mode == rsScalarRef {
		for r := range out {
			row := mat.Row(r)
			for j := range in {
				gf.MulAddSliceRef(row[j], in[j][:shardLen], out[r])
			}
		}
		return
	}
	c.chunked(in, out, func(ins, outs [][]byte) {
		mat.MulVecSlices(ins, outs)
	})
}

// Encode implements Code.
//
// On the kernel paths, data shards that are fully covered by the input alias
// subslices of data instead of being copied: for a 1 MiB block that removes
// a 1 MiB copy and a matching allocation from the hot path, leaving only the
// partial tail shard (if any) and the parity shards to allocate. See the
// Code.Encode contract: callers that mutate data after Encode, or write into
// the returned shards, must copy first. The RSScalar reference mode keeps
// the seed's copy-everything behaviour.
func (c *rsCode) Encode(data []byte) ([][]byte, error) {
	shardLen := c.shardLen(len(data))
	shards := make([][]byte, c.n)
	full := 0 // number of data shards aliased directly onto data
	if c.mode != rsScalarRef {
		full = len(data) / shardLen
		if full > c.k {
			full = c.k
		}
	}
	for i := 0; i < full; i++ {
		shards[i] = data[i*shardLen : (i+1)*shardLen : (i+1)*shardLen]
	}
	backing := make([]byte, (c.n-full)*shardLen)
	for i := full; i < c.n; i++ {
		off := (i - full) * shardLen
		shards[i] = backing[off : off+shardLen : off+shardLen]
	}
	for i := full; i < c.k; i++ {
		off := i * shardLen
		if off < len(data) {
			copy(shards[i], data[off:min(off+shardLen, len(data))])
		}
	}
	if c.mode == rsScalarRef {
		c.applyRows(c.parity, shards[:c.k], shards[c.k:])
		return shards, nil
	}
	c.chunked(shards[:c.k], shards[c.k:], func(ins, outs [][]byte) {
		if c.pq {
			if len(outs) == 2 {
				gf.PQSlice(ins, outs[0], outs[1])
			} else {
				gf.XorVecSlice(ins, outs[0])
			}
			return
		}
		c.parity.MulVecSlices(ins, outs)
	})
	return shards, nil
}

// EncodeInto implements BufferEncoder: it encodes data into caller-provided
// shard buffers, each exactly ShardSize(len(data)) bytes, overwriting every
// byte without aliasing data. Reusing one set of shard buffers removes the
// per-encode backing allocation Encode pays for parity (and, in scalar
// mode, everything).
func (c *rsCode) EncodeInto(data []byte, shards [][]byte) error {
	shardLen := c.shardLen(len(data))
	if len(shards) != c.n {
		return fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), c.n)
	}
	for i, s := range shards {
		if len(s) != shardLen {
			return fmt.Errorf("%w: shard %d is %d bytes, want %d", ErrShardSize, i, len(s), shardLen)
		}
	}
	for i := 0; i < c.k; i++ {
		n := 0
		if off := i * shardLen; off < len(data) {
			n = copy(shards[i], data[off:])
		}
		clear(shards[i][n:])
	}
	if c.mode == rsScalarRef {
		for _, s := range shards[c.k:] {
			clear(s) // applyRows accumulates in scalar mode
		}
		c.applyRows(c.parity, shards[:c.k], shards[c.k:])
		return nil
	}
	c.chunked(shards[:c.k], shards[c.k:], func(ins, outs [][]byte) {
		if c.pq {
			if len(outs) == 2 {
				gf.PQSlice(ins, outs[0], outs[1])
			} else {
				gf.XorVecSlice(ins, outs[0])
			}
			return
		}
		c.parity.MulVecSlices(ins, outs)
	})
	return nil
}

// Reconstruct implements Code.
func (c *rsCode) Reconstruct(shards [][]byte) error { return c.reconstruct(shards, false) }

// ReconstructData implements DataReconstructor: it restores missing data
// shards exactly like Reconstruct but leaves missing parity shards nil,
// skipping the parity row application that retrieval paths never need.
func (c *rsCode) ReconstructData(shards [][]byte) error { return c.reconstruct(shards, true) }

func (c *rsCode) reconstruct(shards [][]byte, dataOnly bool) error {
	shardLen, present, err := checkShards(shards, c.n, c.k)
	if err != nil {
		return err
	}
	if present == c.n {
		return nil
	}
	// Single-erasure XOR fast path: with the P+Q generator, parity row P is
	// the plain XOR of the data shards, so a lone missing data shard with P
	// surviving is P + (the other data shards), straight onto the SWAR XOR
	// kernel. The general route below reaches the same kernel through
	// MulVecSlice's unit-coefficient dispatch but first pays a k x k matrix
	// inversion and row setup per call — fixed overhead that dominates
	// small-shard repair (~2x at 4 KiB blocks; see
	// BenchmarkRSRepairSingleErasure). Any additional missing parity is
	// recomputed by the general tail below.
	if c.pq && !c.noXorRepair && shards[c.k] != nil {
		missing := -1
		for j := 0; j < c.k; j++ {
			if shards[j] == nil {
				if missing >= 0 {
					missing = -1
					break
				}
				missing = j
			}
		}
		if missing >= 0 {
			in := make([][]byte, 0, c.k)
			for j := 0; j < c.k; j++ {
				if j != missing {
					in = append(in, shards[j])
				}
			}
			in = append(in, shards[c.k])
			out := make([]byte, shardLen)
			c.forEachChunk(shardLen, func(off, end int) {
				ins := make([][]byte, len(in))
				for i := range in {
					ins[i] = in[i][off:end]
				}
				gf.XorVecSlice(ins, out[off:end])
			})
			shards[missing] = out
		}
	}
	// Recover all missing data shards in one fused row application, through
	// a decode matrix obtained by inverting the generator rows of k present
	// shards.
	var missingData []int
	for j := 0; j < c.k; j++ {
		if shards[j] == nil {
			missingData = append(missingData, j)
		}
	}
	if len(missingData) > 0 {
		sub := gf.NewMatrix(c.k, c.k)
		chosen := make([]int, 0, c.k)
		for i := 0; i < c.n && len(chosen) < c.k; i++ {
			if shards[i] != nil {
				copy(sub.Row(len(chosen)), c.gen.Row(i))
				chosen = append(chosen, i)
			}
		}
		dec, ok := sub.Invert()
		if !ok {
			return fmt.Errorf("ecc: %s: decode matrix singular", c.name)
		}
		in := make([][]byte, c.k)
		for i, src := range chosen {
			in[i] = shards[src]
		}
		rows := gf.NewMatrix(len(missingData), c.k)
		out := make([][]byte, len(missingData))
		backing := make([]byte, len(missingData)*shardLen)
		for i, j := range missingData {
			copy(rows.Row(i), dec.Row(j))
			out[i] = backing[i*shardLen : (i+1)*shardLen : (i+1)*shardLen]
		}
		c.applyRows(rows, in, out)
		for i, j := range missingData {
			shards[j] = out[i]
		}
	}
	// Recompute any missing parity shards from the (now complete) data.
	if dataOnly {
		return nil
	}
	var missingParity []int
	for r := c.k; r < c.n; r++ {
		if shards[r] == nil {
			missingParity = append(missingParity, r)
		}
	}
	if len(missingParity) > 0 {
		rows := gf.NewMatrix(len(missingParity), c.k)
		out := make([][]byte, len(missingParity))
		backing := make([]byte, len(missingParity)*shardLen)
		for i, r := range missingParity {
			copy(rows.Row(i), c.gen.Row(r))
			out[i] = backing[i*shardLen : (i+1)*shardLen : (i+1)*shardLen]
		}
		c.applyRows(rows, shards[:c.k], out)
		for i, r := range missingParity {
			shards[r] = out[i]
		}
	}
	return nil
}

// Decode implements Code.
func (c *rsCode) Decode(shards [][]byte, dataLen int) ([]byte, error) {
	work := make([][]byte, len(shards))
	copy(work, shards)
	if err := c.ReconstructData(work); err != nil {
		return nil, err
	}
	shardLen := len(work[0])
	out := make([]byte, c.k*shardLen)
	for i := 0; i < c.k; i++ {
		copy(out[i*shardLen:], work[i])
	}
	if dataLen > len(out) {
		return nil, fmt.Errorf("%w: dataLen %d exceeds capacity %d", ErrShardSize, dataLen, len(out))
	}
	return out[:dataLen], nil
}
