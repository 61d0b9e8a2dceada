package ecc

import (
	"fmt"
	"runtime"
	"slices"
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

// rsCode is a systematic Reed-Solomon (n, k) code over GF(2^8), the paper's
// §4.1 example of a general MDS code. It tolerates any n-k erasures but pays
// one field multiplication per byte per parity row, the cost the XOR-only
// array codes avoid. Encode and Reconstruct run on the fused slice kernels
// of internal/gf and fan out across goroutines for large blocks, and a
// reconstruction replays a decode plan solved once per erasure pattern. The
// generator is immutable after construction and the plan cache race-safe,
// so the value is safe for concurrent use.
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
	// gen is the n x k systematic generator matrix: the top k rows are the
	// identity, the bottom n-k rows produce parity.
	gen *gf.Matrix
	// plans caches one decode plan per erasure pattern (see rsPlan).
	plans planCache[shardSet, *rsPlan]
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

// apply computes out[r] = rows[r] · in for every output over the full
// piece length: rows holds len(out) coefficient rows of len(in) bytes each,
// and nil rows is a P+Q code's parity block, which the SWAR kernels
// evaluate. Every input must be at least len(out[0]) bytes and no output
// may alias an input. The column range is cut into rsChunkSize pieces so
// each pass stays cache-resident; pieces below rsParallelMinShard run on
// this goroutine through sc's chunk headers, allocation-free, and in the
// default mode larger ones fan out over up to GOMAXPROCS workers pulling
// chunks from a shared counter.
func (c *rsCode) apply(rows []byte, in, out [][]byte, sc *blockScratch) {
	pieceLen := len(out[0])
	if c.mode == rsScalarRef {
		c.applyChunk(rows, in, out)
		return
	}
	if c.mode == rsKernelParallel && pieceLen >= rsParallelMinShard {
		if workers := min(runtime.GOMAXPROCS(0), ceilDiv(pieceLen, rsChunkSize)); workers > 1 {
			c.applyParallel(rows, in, out, workers)
			return
		}
	}
	ins, outs := headers(&sc.cin, len(in)), headers(&sc.cout, len(out))
	for off := 0; off < pieceLen; off += rsChunkSize {
		end := min(off+rsChunkSize, pieceLen)
		c.applyChunk(rows, cut(ins, in, off, end), cut(outs, out, off, end))
	}
}

func (c *rsCode) applyParallel(rows []byte, in, out [][]byte, workers int) {
	pieceLen := len(out[0])
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ins, outs := make([][]byte, len(in)), make([][]byte, len(out))
			for {
				off := (int(next.Add(1)) - 1) * rsChunkSize
				if off >= pieceLen {
					return
				}
				end := min(off+rsChunkSize, pieceLen)
				c.applyChunk(rows, cut(ins, in, off, end), cut(outs, out, off, end))
			}
		}()
	}
	wg.Wait()
}

// cut sets dst[i] = src[i][off:end] for every source and returns dst.
func cut(dst, src [][]byte, off, end int) [][]byte {
	for i, s := range src {
		dst[i] = s[off:end]
	}
	return dst
}

// applyChunk is apply over one column range.
func (c *rsCode) applyChunk(rows []byte, ins, outs [][]byte) {
	switch {
	case c.mode == rsScalarRef:
		for r, o := range outs {
			clear(o) // the reference kernel accumulates
			for j, s := range ins {
				gf.MulAddSliceRef(rows[r*len(ins)+j], s[:len(o)], o)
			}
		}
	case rows == nil && len(outs) == 2:
		gf.PQSlice(ins, outs[0], outs[1])
	case rows == nil:
		gf.XorVecSlice(ins, outs[0])
	default:
		m := gf.Matrix{Rows: len(outs), Cols: len(ins), Data: rows}
		m.MulVecSlices(ins, outs)
	}
}

// parityRows returns the coefficient rows Encode applies: nil for a P+Q
// code (the SWAR kernels), else the generator's bottom n-k rows.
func (c *rsCode) parityRows() []byte {
	if c.pq {
		return nil
	}
	return c.gen.Data[c.k*c.k:]
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
	sc := scratchPool.Get().(*blockScratch)
	c.apply(c.parityRows(), shards[:c.k], shards[c.k:], sc)
	sc.release()
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
	sc := scratchPool.Get().(*blockScratch)
	c.apply(c.parityRows(), shards[:c.k], shards[c.k:], sc)
	sc.release()
	return nil
}

// shardSet is a bitmask over shard indices, wide enough for n <= 256.
type shardSet [4]uint64

// rsPlan is the decode plan for one erasure pattern, solved once and cached
// on the code: it reads the first k present shards (inputs), and restores
// each missing shard, data or parity alike, as one coefficient row over
// them. The row of missing shard m is gen[m] · (gen[inputs])^-1, so a
// lone missing data shard with P present gets an all-ones row, which
// gf.MulVecSlice runs on the SWAR XOR kernel.
type rsPlan struct {
	err     error // singular pattern (cached so repeats skip the inversion)
	inputs  []int
	missing []int  // ascending, so missing data shards come first
	data    int    // number of missing data shards
	rows    []byte // len(missing) rows of k coefficients
}

func (c *rsCode) compilePlan(set shardSet) *rsPlan {
	p := &rsPlan{}
	sub := gf.NewMatrix(c.k, c.k)
	for i := 0; i < c.n; i++ {
		switch {
		case set[i/64]&(1<<(i%64)) != 0:
			p.missing = append(p.missing, i)
			if i < c.k {
				p.data++
			}
		case len(p.inputs) < c.k:
			copy(sub.Row(len(p.inputs)), c.gen.Row(i))
			p.inputs = append(p.inputs, i)
		}
	}
	dec, ok := sub.Invert()
	if !ok {
		p.err = fmt.Errorf("ecc: %s: decode matrix singular", c.name)
		return p
	}
	gen := gf.NewMatrix(len(p.missing), c.k)
	for i, m := range p.missing {
		copy(gen.Row(i), c.gen.Row(m))
	}
	p.rows = gen.Mul(dec).Data
	return p
}

// What fill restores besides a single shard index.
const (
	fillData = -1 // every missing data shard
	fillAll  = -2 // every missing shard
)

// fill restores the missing shards of one codeword that want selects (a
// shard index, fillData or fillAll) in one row application from the cached
// plan for its erasure pattern. The restored pieces are fresh when fresh is
// set, and belong to the caller; otherwise they are cut from sc and valid
// only until its next use. shards must have passed checkShards.
func (c *rsCode) fill(shards [][]byte, want int, fresh bool, sc *blockScratch) error {
	var set shardSet
	for i, s := range shards {
		if s == nil {
			set[i/64] |= 1 << (i % 64)
		}
	}
	p := c.plans.get(set, c.compilePlan)
	if p.err != nil {
		return p.err
	}
	lo, hi := 0, len(p.missing)
	switch {
	case want == fillData:
		hi = p.data
	case want >= 0:
		lo = slices.Index(p.missing, want)
		hi = lo + 1
	}
	if lo < 0 || lo >= hi {
		return nil
	}
	pieceLen := len(shards[p.inputs[0]])
	var backing []byte
	if fresh {
		backing = make([]byte, (hi-lo)*pieceLen)
	} else {
		backing = sc.colSlot(0, 1, (hi-lo)*pieceLen)
	}
	in, out := headers(&sc.in, c.k), headers(&sc.out, hi-lo)
	for j, src := range p.inputs {
		in[j] = shards[src]
	}
	for i := range out {
		out[i] = backing[i*pieceLen : (i+1)*pieceLen : (i+1)*pieceLen]
		shards[p.missing[lo+i]] = out[i]
	}
	c.apply(p.rows[lo*c.k:hi*c.k], in, out, sc)
	return nil
}

// Reconstruct implements Code.
func (c *rsCode) Reconstruct(shards [][]byte) error { return c.reconstruct(shards, fillAll) }

// ReconstructData implements DataReconstructor: it restores missing data
// shards exactly like Reconstruct but leaves missing parity shards nil,
// skipping the parity rows that retrieval paths never need.
func (c *rsCode) ReconstructData(shards [][]byte) error { return c.reconstruct(shards, fillData) }

func (c *rsCode) reconstruct(shards [][]byte, want int) error {
	if _, present, err := checkShards(shards, c.n, c.k); err != nil || present == c.n {
		return err
	}
	sc := scratchPool.Get().(*blockScratch)
	defer sc.release()
	return c.fill(shards, want, true, sc)
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
