package ecc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rain/internal/gf"
)

// cell describes one cell of an array code: either a data cell holding data
// chunk `data`, or a parity cell (data == -1) whose value is the XOR of the
// data chunks listed in eq.
type cell struct {
	data int
	eq   []int
}

// arrMode selects the arithmetic backend for one xorCode instance.
type arrMode int

const (
	// arrKernelParallel runs encode on the fused gf.XorVecSlice kernels
	// with, above rsParallelMinShard, a GOMAXPROCS-aware goroutine fan-out,
	// and reconstruction on the compiled-plan cache. The default.
	arrKernelParallel arrMode = iota
	// arrKernelSerial keeps the fused kernels and the plan cache on a
	// single goroutine.
	arrKernelSerial
	// arrScalarRef reproduces the seed implementation exactly: one
	// gf.XorSlice pass per parity-equation term on encode, and a fresh
	// GF(2) Gaussian elimination (plus the EVENODD zigzag, where installed)
	// on every reconstruction. Kept for differential tests and the
	// before/after benchmarks.
	arrScalarRef
)

// ArrayOption customises an XOR array code built by NewBCode, NewXCode,
// NewEvenOdd or NewSingleParity.
type ArrayOption func(*xorCode)

// ArraySerial disables the goroutine-parallel encode fan-out while keeping
// the fused slice kernels and the reconstruction-plan cache. Used to isolate
// kernel speedup from parallel speedup in benchmarks.
func ArraySerial() ArrayOption { return func(c *xorCode) { c.mode = arrKernelSerial } }

// ArrayScalar selects the seed byte-slice-at-a-time reference path — one
// XorSlice pass per equation term, a fresh Gaussian solve per
// reconstruction, no plan cache. It exists for differential tests and
// before/after benchmarks; production callers want the default.
func ArrayScalar() ArrayOption { return func(c *xorCode) { c.mode = arrScalarRef } }

// parityJob is one parity cell of the fused encode path: destination cell
// plus the data chunks its equation XORs, consumed in a single
// gf.XorVecSlice gather instead of one XorSlice pass per term.
type parityJob struct {
	col, row int
	srcs     []int
}

// copyRun records that message chunks [chunk, chunk+count) land in rows
// [row, row+count) of column col — every concrete layout in this package
// assigns chunk indices column-major, so the whole data part of a column is
// one contiguous copy instead of `count` cell-sized ones.
type copyRun struct {
	col, row, chunk, count int
}

// xorCode is a generic XOR-based array code: n columns of `rows` cells each.
// Every concrete array code in this package (B-Code, X-Code, EVENODD, single
// parity) is an instance. The layout is fixed at construction; encoding XORs
// chunks according to the parity equations, and erasure decoding solves the
// surviving parity equations over GF(2) — exact for any linear layout, so
// one well-tested decoder serves every code family.
//
// The hot paths are built on two layers added by ISSUE 5: encode gathers
// each parity cell's sources into a single fused gf.XorVecSlice pass
// (GOMAXPROCS-chunked above the same threshold rs.go uses), and
// reconstruction replays a compiled XOR schedule from the per-code plan
// cache (see xorplan.go) instead of re-running Gaussian elimination per
// call. The seed paths survive under ArrayScalar for differential tests;
// concrete codes may also install a specialised scalar-mode decoder via
// fastReconstruct (the EVENODD zigzag).
type xorCode struct {
	name      string
	n, rows   int
	k         int
	dataCells int      // == k*rows for the MDS array codes here
	cells     [][]cell // [col][row]
	dataPos   [][2]int // chunk index -> (col, row)
	updateDeg []int    // chunk index -> number of parity cells touching it
	mode      arrMode

	parityJobs []parityJob
	copyRuns   []copyRun
	maxEq      int    // longest parity equation, for gather sizing
	dataCols   []bool // columns containing at least one data cell

	// plans caches compiled reconstruction schedules keyed by
	// missing-column bitmask; see xorplan.go. Unused in scalar mode and for
	// n > 64.
	plans planCache[uint64, *xorPlan]

	// fastReconstruct, when non-nil, attempts a specialised reconstruction
	// of the missing columns on the scalar path. It returns false to fall
	// back to the generic Gaussian solver (e.g. for erasure patterns it
	// does not handle).
	fastReconstruct func(c *xorCode, shards [][]byte, chunkLen int) bool
}

// newXORCode validates a layout and precomputes the data-chunk position,
// update-degree, copy-run and parity-job tables.
func newXORCode(name string, n, rows, k int, cells [][]cell, opts []ArrayOption) (*xorCode, error) {
	if len(cells) != n {
		return nil, fmt.Errorf("%w: %s: %d columns, want %d", ErrInvalidParams, name, len(cells), n)
	}
	dataCells := 0
	for c := range cells {
		if len(cells[c]) != rows {
			return nil, fmt.Errorf("%w: %s: column %d has %d rows, want %d", ErrInvalidParams, name, c, len(cells[c]), rows)
		}
		for r := range cells[c] {
			if cells[c][r].data >= 0 {
				dataCells++
			}
		}
	}
	code := &xorCode{
		name:      name,
		n:         n,
		rows:      rows,
		k:         k,
		dataCells: dataCells,
		cells:     cells,
		dataPos:   make([][2]int, dataCells),
		updateDeg: make([]int, dataCells),
		dataCols:  make([]bool, n),
	}
	for _, opt := range opts {
		opt(code)
	}
	seen := make([]bool, dataCells)
	for c := range cells {
		for r := range cells[c] {
			cl := cells[c][r]
			if cl.data >= 0 {
				if cl.data >= dataCells || seen[cl.data] {
					return nil, fmt.Errorf("%w: %s: bad data index %d at (%d,%d)", ErrInvalidParams, name, cl.data, c, r)
				}
				seen[cl.data] = true
				code.dataPos[cl.data] = [2]int{c, r}
				code.dataCols[c] = true
				continue
			}
			for _, d := range cl.eq {
				if d < 0 || d >= dataCells {
					return nil, fmt.Errorf("%w: %s: parity at (%d,%d) references chunk %d", ErrInvalidParams, name, c, r, d)
				}
				code.updateDeg[d]++
			}
			code.parityJobs = append(code.parityJobs, parityJob{col: c, row: r, srcs: cl.eq})
			code.maxEq = max(code.maxEq, len(cl.eq))
		}
	}
	// Merge consecutive chunks that occupy consecutive rows of one column
	// into single copy runs.
	for idx := 0; idx < dataCells; {
		pos := code.dataPos[idx]
		count := 1
		for idx+count < dataCells {
			next := code.dataPos[idx+count]
			if next[0] != pos[0] || next[1] != pos[1]+count {
				break
			}
			count++
		}
		code.copyRuns = append(code.copyRuns, copyRun{col: pos[0], row: pos[1], chunk: idx, count: count})
		idx += count
	}
	return code, nil
}

func (c *xorCode) Name() string { return c.name }
func (c *xorCode) N() int       { return c.n }
func (c *xorCode) K() int       { return c.k }

// chunkLen returns the per-cell chunk length for a message of dataLen bytes.
func (c *xorCode) chunkLen(dataLen int) int {
	if dataLen <= 0 {
		return 1
	}
	return ceilDiv(dataLen, c.dataCells)
}

func (c *xorCode) ShardSize(dataLen int) int {
	return c.chunkLen(dataLen) * c.rows
}

// planned reports whether this instance reconstructs through the plan cache
// (kernel modes; the bitmask keying needs n <= 64).
func (c *xorCode) planned() bool { return c.mode != arrScalarRef && c.n <= 64 }

// Encode implements Code.
func (c *xorCode) Encode(data []byte) ([][]byte, error) {
	chunkLen := c.chunkLen(len(data))
	if c.mode == arrScalarRef {
		return c.encodeScalar(data, chunkLen), nil
	}
	shardLen := c.rows * chunkLen
	backing := make([]byte, c.n*shardLen)
	shards := make([][]byte, c.n)
	for col := range shards {
		shards[col] = backing[col*shardLen : (col+1)*shardLen : (col+1)*shardLen]
	}
	// The fresh backing is already zero, so the tail-padding clear is free.
	c.encodeTo(data, shards, chunkLen, false)
	return shards, nil
}

// EncodeInto implements BufferEncoder: it encodes data into caller-provided
// shard buffers, each exactly ShardSize(len(data)) bytes, overwriting every
// byte. The streaming encoder uses it to keep one reused set of shard
// buffers per stream instead of allocating rows*chunkLen*n bytes per block.
func (c *xorCode) EncodeInto(data []byte, shards [][]byte) error {
	chunkLen := c.chunkLen(len(data))
	shardLen := c.rows * chunkLen
	if len(shards) != c.n {
		return fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), c.n)
	}
	for i, s := range shards {
		if len(s) != shardLen {
			return fmt.Errorf("%w: shard %d is %d bytes, want %d", ErrShardSize, i, len(s), shardLen)
		}
	}
	c.encodeTo(data, shards, chunkLen, true)
	return nil
}

// encodeScalar is the seed encode path, retained for ArrayScalar:
// per-column allocations, per-chunk copies, and (via encodeParity's scalar
// branch) one XorSlice pass per equation term.
func (c *xorCode) encodeScalar(data []byte, chunkLen int) [][]byte {
	shards := make([][]byte, c.n)
	for col := range shards {
		shards[col] = make([]byte, c.rows*chunkLen)
	}
	for idx := 0; idx < c.dataCells; idx++ {
		pos := c.dataPos[idx]
		dst := shards[pos[0]][pos[1]*chunkLen : (pos[1]+1)*chunkLen]
		off := idx * chunkLen
		if off < len(data) {
			copy(dst, data[off:min(off+chunkLen, len(data))])
		}
	}
	c.encodeParity(shards, chunkLen)
	return shards
}

// encodeTo fills pre-sized shards from data: merged-run copies for the data
// cells, fused gathers for the parity cells. clearPad zeroes the data-cell
// bytes past len(data) (needed when the shards are reused buffers); parity
// cells are overwritten unconditionally and never need clearing.
func (c *xorCode) encodeTo(data []byte, shards [][]byte, chunkLen int, clearPad bool) {
	for _, run := range c.copyRuns {
		dst := shards[run.col][run.row*chunkLen : (run.row+run.count)*chunkLen]
		off := run.chunk * chunkLen
		n := 0
		if off < len(data) {
			n = copy(dst, data[off:])
		}
		if clearPad && n < len(dst) {
			clear(dst[n:])
		}
	}
	c.encodeParity(shards, chunkLen)
}

// encodeParity computes every parity cell with one fused gather pass each.
// Above the same per-shard threshold rs.go uses, the (cell × column-strip)
// task grid is distributed over up to GOMAXPROCS workers pulling from a
// shared atomic counter; tasks write disjoint destination ranges.
func (c *xorCode) encodeParity(shards [][]byte, chunkLen int) {
	jobs := c.parityJobs
	if len(jobs) == 0 {
		return
	}
	if c.mode == arrScalarRef {
		for _, job := range jobs {
			dst := shards[job.col][job.row*chunkLen : (job.row+1)*chunkLen]
			clear(dst)
			for _, d := range job.srcs {
				pos := c.dataPos[d]
				gf.XorSlice(shards[pos[0]][pos[1]*chunkLen:(pos[1]+1)*chunkLen], dst)
			}
		}
		return
	}
	workers := 1
	if c.mode == arrKernelParallel && c.rows*chunkLen >= rsParallelMinShard {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		gather := make([][]byte, 0, c.maxEq)
		for _, job := range jobs {
			gather = c.runParityJob(job, shards, chunkLen, 0, chunkLen, gather)
		}
		return
	}
	strip := min(rsChunkSize, chunkLen)
	perJob := ceilDiv(chunkLen, strip)
	total := len(jobs) * perJob
	workers = min(workers, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			gather := make([][]byte, 0, c.maxEq)
			for {
				t := int(next.Add(1)) - 1
				if t >= total {
					return
				}
				job := jobs[t/perJob]
				off := (t % perJob) * strip
				gather = c.runParityJob(job, shards, chunkLen, off, min(off+strip, chunkLen), gather)
			}
		}()
	}
	wg.Wait()
}

// runParityJob computes the [off, end) byte range of one parity cell as a
// single fused gather over its source cells. It returns the (possibly grown)
// gather scratch for reuse.
func (c *xorCode) runParityJob(job parityJob, shards [][]byte, chunkLen, off, end int, gather [][]byte) [][]byte {
	gather = gather[:0]
	for _, d := range job.srcs {
		pos := c.dataPos[d]
		base := pos[1] * chunkLen
		gather = append(gather, shards[pos[0]][base+off:base+end])
	}
	base := job.row * chunkLen
	gf.XorVecSlice(gather, shards[job.col][base+off:base+end])
	return gather
}

// Reconstruct implements Code. It fills nil shard entries in place.
func (c *xorCode) Reconstruct(shards [][]byte) error { return c.reconstruct(shards, false) }

// ReconstructData implements DataReconstructor: it restores every missing
// column that carries data cells (for the in-column-parity X-Code and B-Code
// that is all of them). On the planned path, missing pure-parity columns
// (EVENODD's, single parity's) stay nil, skipping work retrieval paths never
// need; the scalar and n > 64 fallbacks run a full Reconstruct, which the
// DataReconstructor contract permits.
func (c *xorCode) ReconstructData(shards [][]byte) error { return c.reconstruct(shards, true) }

func (c *xorCode) reconstruct(shards [][]byte, dataOnly bool) error {
	shardLen, present, err := checkShards(shards, c.n, c.k)
	if err != nil {
		return err
	}
	if present == c.n {
		return nil
	}
	if shardLen%c.rows != 0 {
		return fmt.Errorf("%w: shard length %d not divisible by %d rows", ErrShardSize, shardLen, c.rows)
	}
	chunkLen := shardLen / c.rows
	if c.planned() {
		return c.planReconstruct(shards, chunkLen, dataOnly, true, nil)
	}
	if c.fastReconstruct != nil {
		// Work on a scratch copy of the nil-ness pattern: the fast path
		// allocates the missing columns itself and reports success.
		if c.fastReconstruct(c, shards, chunkLen) {
			return nil
		}
	}
	return c.genericReconstruct(shards, chunkLen)
}

// genericReconstruct recovers missing columns by solving the surviving
// parity equations over GF(2). Unknowns are the data chunks located in
// missing columns; each surviving parity cell contributes one equation.
// This is the seed solver: exact for any layout, re-derived per call. The
// kernel modes replay cached plans instead (xorplan.go); this path serves
// scalar mode, n > 64 layouts, and the differential tests that pin the two
// bit-identical.
func (c *xorCode) genericReconstruct(shards [][]byte, chunkLen int) error {
	missingCol := make([]bool, c.n)
	for col, s := range shards {
		missingCol[col] = s == nil
	}
	// Enumerate unknown data chunks and give them dense indices.
	unknownIdx := make(map[int]int)
	var unknownChunks []int
	for idx := 0; idx < c.dataCells; idx++ {
		if missingCol[c.dataPos[idx][0]] {
			unknownIdx[idx] = len(unknownChunks)
			unknownChunks = append(unknownChunks, idx)
		}
	}
	nu := len(unknownChunks)
	solved := make([][]byte, nu)
	if nu > 0 {
		// Build the linear system: one row per surviving parity cell
		// that touches at least one unknown.
		words := (nu + 63) / 64
		type eqRow struct {
			mask []uint64
			rhs  []byte
		}
		var sys []eqRow
		for col := range c.cells {
			if missingCol[col] {
				continue
			}
			for r, cl := range c.cells[col] {
				if cl.data >= 0 {
					continue
				}
				mask := make([]uint64, words)
				touches := false
				for _, d := range cl.eq {
					if j, ok := unknownIdx[d]; ok {
						mask[j/64] ^= 1 << (j % 64)
						touches = true
					}
				}
				if !touches {
					continue
				}
				rhs := make([]byte, chunkLen)
				copy(rhs, shards[col][r*chunkLen:(r+1)*chunkLen])
				for _, d := range cl.eq {
					if _, ok := unknownIdx[d]; ok {
						continue
					}
					pos := c.dataPos[d]
					gf.XorSlice(shards[pos[0]][pos[1]*chunkLen:(pos[1]+1)*chunkLen], rhs)
				}
				sys = append(sys, eqRow{mask: mask, rhs: rhs})
			}
		}
		// Forward elimination with back substitution over GF(2).
		pivotRow := make([]int, nu)
		for i := range pivotRow {
			pivotRow[i] = -1
		}
		row := 0
		for colBit := 0; colBit < nu && row < len(sys); colBit++ {
			sel := -1
			for r := row; r < len(sys); r++ {
				if sys[r].mask[colBit/64]&(1<<(colBit%64)) != 0 {
					sel = r
					break
				}
			}
			if sel < 0 {
				continue
			}
			sys[row], sys[sel] = sys[sel], sys[row]
			for r := 0; r < len(sys); r++ {
				if r == row {
					continue
				}
				if sys[r].mask[colBit/64]&(1<<(colBit%64)) != 0 {
					for w := range sys[r].mask {
						sys[r].mask[w] ^= sys[row].mask[w]
					}
					gf.XorSlice(sys[row].rhs, sys[r].rhs)
				}
			}
			pivotRow[colBit] = row
			row++
		}
		for j := 0; j < nu; j++ {
			r := pivotRow[j]
			if r < 0 {
				return fmt.Errorf("ecc: %s: erasure pattern unsolvable (chunk %d underdetermined)", c.name, unknownChunks[j])
			}
			solved[j] = sys[r].rhs
		}
	}
	// Materialise the missing columns: place solved data chunks, then
	// recompute parity cells (all their inputs are now available).
	for col := range shards {
		if !missingCol[col] {
			continue
		}
		shards[col] = make([]byte, c.rows*chunkLen)
	}
	for j, idx := range unknownChunks {
		pos := c.dataPos[idx]
		copy(shards[pos[0]][pos[1]*chunkLen:(pos[1]+1)*chunkLen], solved[j])
	}
	for col := range c.cells {
		if !missingCol[col] {
			continue
		}
		for r, cl := range c.cells[col] {
			if cl.data >= 0 {
				continue
			}
			dst := shards[col][r*chunkLen : (r+1)*chunkLen]
			for i := range dst {
				dst[i] = 0
			}
			for _, d := range cl.eq {
				pos := c.dataPos[d]
				gf.XorSlice(shards[pos[0]][pos[1]*chunkLen:(pos[1]+1)*chunkLen], dst)
			}
		}
	}
	return nil
}

// Decode implements Code. On the kernel paths the message is gathered
// straight out of the shard cells: with no missing shards that is a pure
// strided copy (no work-copy of the shard slice, no reconstruction-entry
// shard re-check), and with erasures the missing data cells are
// plan-reconstructed directly into the output buffer, skipping both the
// materialisation of whole missing columns and their parity recompute.
func (c *xorCode) Decode(shards [][]byte, dataLen int) ([]byte, error) {
	if c.planned() {
		shardLen, _, err := checkShards(shards, c.n, c.k)
		if err != nil {
			return nil, err
		}
		if shardLen%c.rows != 0 {
			return nil, fmt.Errorf("%w: shard length %d not divisible by %d rows", ErrShardSize, shardLen, c.rows)
		}
		chunkLen := shardLen / c.rows
		if dataLen > c.dataCells*chunkLen {
			return nil, fmt.Errorf("%w: dataLen %d exceeds capacity %d", ErrShardSize, dataLen, c.dataCells*chunkLen)
		}
		out := make([]byte, dataLen)
		if err := c.decodeInto(out, shards, chunkLen, nil); err != nil {
			return nil, err
		}
		return out, nil
	}
	work := make([][]byte, len(shards))
	copy(work, shards)
	if err := c.Reconstruct(work); err != nil {
		return nil, err
	}
	shardLen := len(work[0])
	chunkLen := shardLen / c.rows
	out := make([]byte, c.dataCells*chunkLen)
	for idx := 0; idx < c.dataCells; idx++ {
		pos := c.dataPos[idx]
		copy(out[idx*chunkLen:], work[pos[0]][pos[1]*chunkLen:(pos[1]+1)*chunkLen])
	}
	if dataLen > len(out) {
		return nil, fmt.Errorf("%w: dataLen %d exceeds capacity %d", ErrShardSize, dataLen, len(out))
	}
	return out[:dataLen], nil
}

// UpdatePenalty returns, for each data chunk, the number of parity cells
// that must be rewritten when that chunk changes. The paper's optimality
// claim for the B-Code and X-Code is that this equals 2 (the minimum for any
// 2-erasure-correcting code) for every chunk.
func (c *xorCode) UpdatePenalty() []int {
	out := make([]int, len(c.updateDeg))
	copy(out, c.updateDeg)
	return out
}

// EncodeXORCount returns the number of chunk-XOR operations performed by
// Encode, i.e. the sum of parity equation lengths. Dividing by the number of
// parity cells gives the average equation density the paper's "low density"
// codes minimise.
func (c *xorCode) EncodeXORCount() int {
	total := 0
	for col := range c.cells {
		for _, cl := range c.cells[col] {
			if cl.data < 0 {
				total += len(cl.eq)
			}
		}
	}
	return total
}
