package ecc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rain/internal/gf"
)

// This file is the reconstruction-plan layer of the array-code fast path
// (ISSUE 5). The generic GF(2) Gaussian solver in xorcode.go is exact for
// every linear layout, but it re-derives the same elimination — and
// re-allocates its whole working state — on every call, which the streaming
// decoder pays once per block. A plan compiles that solve ONCE per (code,
// missing-column set) into a flat XOR schedule and caches it on the code:
//
//   - The unknowns are the data chunks located in missing columns. Each
//     surviving parity cell touching an unknown contributes one equation
//     whose right-hand side ("syndrome") is the XOR of the parity cell and
//     the surviving data cells of its equation.
//   - Gaussian elimination runs symbolically, tracking for every row which
//     original equations were combined into it. A pivot row reduced to unit
//     vector j therefore says: unknown j = XOR of the syndromes of the
//     equations named by the row's combination vector.
//   - The compiled schedule is two gather phases executed with the fused
//     gf.XorVecSlice kernel over reused scratch: phase one materialises each
//     used syndrome into a scratch slot (one fused pass over its source
//     cells), phase two XORs the named slots into each missing data cell.
//     Missing parity cells are recomputed afterwards directly from their
//     (now complete) data-cell equations.
//
// Replaying a plan does zero solver work and zero allocation: the schedule
// is immutable, the scratch is caller-owned (the streaming decoder and
// rebuilder keep one per stream; the one-shot Reconstruct entry points
// borrow one from a pool). Keeping syndromes as intermediate values instead
// of flattening each unknown to a closed form over data cells matters: the
// decoding chains of the X-Code and B-Code make closed forms grow O(n) dense
// per unknown, while syndromes are shared between unknowns and keep the
// schedule's total work at the level of the Gaussian solve it replaces.
//
// Cache lifetime and keying: a code's layout is immutable after
// construction, so a plan never needs invalidation; the cache key is the
// bitmask of missing columns (whence the n <= 64 guard — wider layouts fall
// back to the generic solver). At most sum_{i<=n-k} C(n,i) patterns exist,
// so the cache is finite and tiny in practice (and stops growing at
// maxCachedPlans). Unsolvable patterns are cached too (as an error), so
// repeated failures skip the elimination.

// cellRef packs a (column, row) cell coordinate for plan schedules.
type cellRef int32

func makeCellRef(col, row int) cellRef { return cellRef(col<<16 | row) }

func (r cellRef) col() int { return int(r) >> 16 }
func (r cellRef) row() int { return int(r) & 0xffff }

// planStep is one fused-XOR step of a schedule: the destination cell and its
// sources — syndrome scratch slots for data steps, data cells for parity
// steps.
type planStep struct {
	dst   cellRef
	chunk int32 // destination data chunk index; -1 for parity steps
	srcs  []int32
}

// xorPlan is the compiled reconstruction schedule for one missing-column
// set. Immutable once built.
type xorPlan struct {
	err     error // unsolvable pattern (cached so repeats skip the solver)
	mask    uint64
	missing []int     // missing columns, ascending
	syn     [][]int32 // syndrome slot -> source cell refs
	data    []planStep
	parity  []planStep
	maxSrc  int // longest source list across all phases (gather sizing)
}

// maxCachedPlans bounds a plan cache. Every insert copies the map, so a
// walk over a vast pattern space (VerifyMDS tries all 65,536 erasure
// patterns of rs(17,9)) would otherwise pay quadratic copying: 37 s against
// 0.2 s. Patterns past the bound are compiled per call instead. The codes
// deployed here have far fewer patterns: 22 for rs(6,4) or bcode(6).
const maxCachedPlans = 256

// planCache is a race-safe, grow-only map from an erasure pattern to its
// compiled plan, shared by the array codes (keyed by missing-column bitmask)
// and Reed-Solomon (keyed by shardSet). Lookups are a single atomic load
// (the hot path of every streamed block); misses take the mutex, compile,
// and publish a copied map.
type planCache[K comparable, P any] struct {
	mu sync.Mutex
	m  atomic.Pointer[map[K]P]
}

// get returns the plan cached under key, compiling and caching it on first
// use.
func (pc *planCache[K, P]) get(key K, compile func(K) P) P {
	if m := pc.m.Load(); m != nil {
		if p, ok := (*m)[key]; ok {
			return p
		}
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	old := pc.m.Load()
	if old != nil {
		if p, ok := (*old)[key]; ok {
			return p
		}
	}
	p := compile(key)
	if old != nil && len(*old) >= maxCachedPlans {
		return p
	}
	next := make(map[K]P, 1)
	if old != nil {
		next = make(map[K]P, len(*old)+1)
		for k, v := range *old {
			next[k] = v
		}
	}
	next[key] = p
	pc.m.Store(&next)
	return p
}

// planFor returns the plan for the given missing-column mask, compiling and
// caching it on first use. The returned error is the plan's cached
// solvability verdict.
func (c *xorCode) planFor(mask uint64) (*xorPlan, error) {
	p := c.plans.get(mask, c.compilePlan)
	return p, p.err
}

// compilePlan runs the symbolic Gaussian elimination for one missing-column
// set and emits the XOR schedule. It mirrors genericReconstruct equation for
// equation; the differential tests in xorplan_test.go hold the two paths
// bit-identical over every erasure pattern.
func (c *xorCode) compilePlan(mask uint64) *xorPlan {
	plan := &xorPlan{mask: mask}
	missingCol := make([]bool, c.n)
	for col := 0; col < c.n; col++ {
		if mask&(1<<col) != 0 {
			missingCol[col] = true
			plan.missing = append(plan.missing, col)
		}
	}
	// Dense indices for the unknown data chunks.
	unknownOf := make([]int32, c.dataCells)
	var unknowns []int
	for idx := 0; idx < c.dataCells; idx++ {
		unknownOf[idx] = -1
		if missingCol[c.dataPos[idx][0]] {
			unknownOf[idx] = int32(len(unknowns))
			unknowns = append(unknowns, idx)
		}
	}
	nu := len(unknowns)
	if nu > 0 {
		// One symbolic equation per surviving parity cell touching an
		// unknown: mask over unknowns, source cells of its syndrome, and a
		// combination vector over the original equations.
		uw := (nu + 63) / 64
		type symRow struct {
			mask  []uint64
			combo []uint64
			srcs  []int32
		}
		var sys []symRow
		for col := range c.cells {
			if missingCol[col] {
				continue
			}
			for r, cl := range c.cells[col] {
				if cl.data >= 0 {
					continue
				}
				m := make([]uint64, uw)
				touches := false
				srcs := []int32{int32(makeCellRef(col, r))}
				for _, d := range cl.eq {
					if j := unknownOf[d]; j >= 0 {
						m[j/64] ^= 1 << (j % 64)
						touches = true
					} else {
						pos := c.dataPos[d]
						srcs = append(srcs, int32(makeCellRef(pos[0], pos[1])))
					}
				}
				if !touches {
					continue
				}
				sys = append(sys, symRow{mask: m, srcs: srcs})
			}
		}
		ew := (len(sys) + 63) / 64
		// The combination vectors name ORIGINAL equation indices; the
		// elimination below permutes sys by row swaps, so keep the original
		// equations' source lists aside for the slot assignment.
		origSrcs := make([][]int32, len(sys))
		for i := range sys {
			sys[i].combo = make([]uint64, ew)
			sys[i].combo[i/64] = 1 << (i % 64)
			origSrcs[i] = sys[i].srcs
		}
		// Forward elimination to reduced row echelon form, carrying the
		// combination vectors instead of right-hand-side bytes.
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
					for w := range sys[r].combo {
						sys[r].combo[w] ^= sys[row].combo[w]
					}
				}
			}
			pivotRow[colBit] = row
			row++
		}
		for j := 0; j < nu; j++ {
			if pivotRow[j] < 0 {
				plan.err = fmt.Errorf("ecc: %s: erasure pattern unsolvable (chunk %d underdetermined)", c.name, unknowns[j])
				return plan
			}
		}
		// Syndrome slots: only equations named by some pivot's combination
		// vector are materialised.
		slotOf := make([]int32, len(sys))
		for i := range slotOf {
			slotOf[i] = -1
		}
		for j := 0; j < nu; j++ {
			combo := sys[pivotRow[j]].combo
			for e := 0; e < len(sys); e++ {
				if combo[e/64]&(1<<(e%64)) != 0 && slotOf[e] < 0 {
					slotOf[e] = int32(len(plan.syn))
					plan.syn = append(plan.syn, origSrcs[e])
				}
			}
		}
		for j, chunk := range unknowns {
			combo := sys[pivotRow[j]].combo
			var slots []int32
			for e := 0; e < len(sys); e++ {
				if combo[e/64]&(1<<(e%64)) != 0 {
					slots = append(slots, slotOf[e])
				}
			}
			pos := c.dataPos[chunk]
			plan.data = append(plan.data, planStep{
				dst:   makeCellRef(pos[0], pos[1]),
				chunk: int32(chunk),
				srcs:  slots,
			})
		}
	}
	// Parity cells of missing columns, recomputed from data cells once the
	// data phase has restored every unknown (their sources may live in other
	// missing columns).
	for _, col := range plan.missing {
		for r, cl := range c.cells[col] {
			if cl.data >= 0 {
				continue
			}
			srcs := make([]int32, 0, len(cl.eq))
			for _, d := range cl.eq {
				pos := c.dataPos[d]
				srcs = append(srcs, int32(makeCellRef(pos[0], pos[1])))
			}
			plan.parity = append(plan.parity, planStep{dst: makeCellRef(col, r), chunk: -1, srcs: srcs})
		}
	}
	for _, s := range plan.syn {
		plan.maxSrc = max(plan.maxSrc, len(s))
	}
	for _, st := range plan.data {
		plan.maxSrc = max(plan.maxSrc, len(st.srcs))
	}
	for _, st := range plan.parity {
		plan.maxSrc = max(plan.maxSrc, len(st.srcs))
	}
	return plan
}

// blockScratch is the working memory of one block's reconstruction: header
// slices for the fused kernels, the syndrome slots of an array-code plan,
// backing for restored columns or pieces, and a decoded-block buffer. The
// streaming decoder and rebuilder reconstruct in their Scratch, and the
// one-shot entry points borrow one from scratchPool for the call, so warm
// scratch makes block reconstruction allocation-free.
type blockScratch struct {
	gather    [][]byte // XorVecSlice sources
	in, out   [][]byte // Reed-Solomon row inputs and outputs
	cin, cout [][]byte // the same, cut to one column chunk
	syn       [][]byte
	synBuf    []byte
	colBuf    []byte
	block     []byte
}

var scratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// release drops references into caller-owned shard memory before the
// scratch returns to the pool, so pooling never extends shard lifetimes.
func (xs *blockScratch) release() {
	for _, h := range [][][]byte{xs.gather, xs.in, xs.out, xs.cin, xs.cout} {
		clear(h[:cap(h)])
	}
	scratchPool.Put(xs)
}

// headers returns (*p)[:n], growing *p first if it is shorter.
func headers(p *[][]byte, n int) [][]byte {
	if cap(*p) < n {
		*p = make([][]byte, n)
	}
	return (*p)[:n]
}

func (xs *blockScratch) gatherSlot(n int) [][]byte {
	if cap(xs.gather) < n {
		xs.gather = make([][]byte, 0, n)
	}
	return xs.gather[:0]
}

// blockBuf returns the decoded-block buffer, n bytes long.
func (xs *blockScratch) blockBuf(n int) []byte {
	if cap(xs.block) < n {
		xs.block = make([]byte, n)
	}
	return xs.block[:n]
}

// synSlots returns n syndrome slots of chunkLen bytes each, backed by one
// grown-on-demand buffer.
func (xs *blockScratch) synSlots(n, chunkLen int) [][]byte {
	if need := n * chunkLen; cap(xs.synBuf) < need {
		xs.synBuf = make([]byte, need)
	}
	if cap(xs.syn) < n {
		xs.syn = make([][]byte, n)
	}
	syn := xs.syn[:n]
	for i := range syn {
		syn[i] = xs.synBuf[i*chunkLen : (i+1)*chunkLen : (i+1)*chunkLen]
	}
	return syn
}

// colSlot returns the i-th reusable missing-column buffer of size bytes,
// from a backing sized for count columns.
func (xs *blockScratch) colSlot(i, count, size int) []byte {
	if need := count * size; cap(xs.colBuf) < need {
		xs.colBuf = make([]byte, need)
	}
	return xs.colBuf[i*size : (i+1)*size : (i+1)*size]
}

// cellOf returns the [off:end) byte range of a cell's chunk.
func cellOf(shards [][]byte, r cellRef, chunkLen int) []byte {
	base := r.row() * chunkLen
	return shards[r.col()][base : base+chunkLen]
}

// runSyndromes materialises the plan's syndrome slots from the surviving
// cells. The returned slice aliases the scratch.
func (c *xorCode) runSyndromes(plan *xorPlan, shards [][]byte, chunkLen int, xs *blockScratch) [][]byte {
	syn := xs.synSlots(len(plan.syn), chunkLen)
	gather := xs.gatherSlot(plan.maxSrc)
	for i, srcs := range plan.syn {
		gather = gather[:0]
		for _, s := range srcs {
			gather = append(gather, cellOf(shards, cellRef(s), chunkLen))
		}
		gf.XorVecSlice(gather, syn[i])
	}
	xs.gather = gather
	return syn
}

// planReconstruct restores the missing columns of shards by plan replay.
// When dataOnly is set, columns holding no data cells stay nil (the
// ReconstructData contract). Fresh missing-column buffers are allocated when
// fresh is true (the public Reconstruct contract: restored shards belong to
// the caller); otherwise they come from the scratch and are only valid until
// its next use (the streaming rebuilder's per-block path). xs may be nil, in
// which case a pooled scratch is used.
func (c *xorCode) planReconstruct(shards [][]byte, chunkLen int, dataOnly, fresh bool, xs *blockScratch) error {
	var mask uint64
	for col, s := range shards {
		if s == nil {
			mask |= 1 << col
		}
	}
	plan, err := c.planFor(mask)
	if err != nil {
		return err
	}
	if xs == nil {
		xs = scratchPool.Get().(*blockScratch)
		defer xs.release()
	}
	// Materialise destination columns. Every cell of a restored column is
	// overwritten by a schedule step, so the buffers need no clearing.
	colLen := c.rows * chunkLen
	var backing []byte
	if fresh {
		restored := 0
		for _, col := range plan.missing {
			if !dataOnly || c.dataCols[col] {
				restored++
			}
		}
		backing = make([]byte, restored*colLen)
	}
	slot := 0
	for _, col := range plan.missing {
		if dataOnly && !c.dataCols[col] {
			continue
		}
		if fresh {
			shards[col] = backing[slot*colLen : (slot+1)*colLen : (slot+1)*colLen]
		} else {
			shards[col] = xs.colSlot(slot, len(plan.missing), colLen)
		}
		slot++
	}
	syn := c.runSyndromes(plan, shards, chunkLen, xs)
	gather := xs.gatherSlot(plan.maxSrc)
	for _, st := range plan.data {
		gather = gather[:0]
		for _, s := range st.srcs {
			gather = append(gather, syn[s])
		}
		gf.XorVecSlice(gather, cellOf(shards, st.dst, chunkLen))
	}
	for _, st := range plan.parity {
		if shards[st.dst.col()] == nil {
			continue // pure-parity column skipped under dataOnly
		}
		gather = gather[:0]
		for _, s := range st.srcs {
			gather = append(gather, cellOf(shards, cellRef(s), chunkLen))
		}
		gf.XorVecSlice(gather, cellOf(shards, st.dst, chunkLen))
	}
	xs.gather = gather
	return nil
}

// decodeInto gathers the message prefix dst (any length up to
// dataCells*chunkLen bytes) straight out of shards: present data cells are
// strided copies, and missing data cells are plan-reconstructed directly
// into place — no work-copy of the shard slice, no materialised missing
// columns, and no parity recompute. shards must already have passed
// checkShards for this code. A nil xs borrows a pooled scratch.
func (c *xorCode) decodeInto(dst []byte, shards [][]byte, chunkLen int, xs *blockScratch) error {
	var mask uint64
	missingData := false
	for col, s := range shards {
		if s == nil {
			mask |= 1 << col
			if c.dataCols[col] {
				missingData = true
			}
		}
	}
	// Strided gather of every present data cell, run by merged copy runs.
	for _, run := range c.copyRuns {
		if shards[run.col] == nil {
			continue
		}
		off := run.chunk * chunkLen
		if off >= len(dst) {
			continue
		}
		src := shards[run.col][run.row*chunkLen : (run.row+run.count)*chunkLen]
		copy(dst[off:], src)
	}
	if !missingData {
		return nil
	}
	plan, err := c.planFor(mask)
	if err != nil {
		return err
	}
	if xs == nil {
		xs = scratchPool.Get().(*blockScratch)
		defer xs.release()
	}
	syn := c.runSyndromes(plan, shards, chunkLen, xs)
	gather := xs.gatherSlot(plan.maxSrc)
	for _, st := range plan.data {
		off := int(st.chunk) * chunkLen
		if off >= len(dst) {
			continue
		}
		end := min(off+chunkLen, len(dst))
		gather = gather[:0]
		for _, s := range st.srcs {
			gather = append(gather, syn[s])
		}
		gf.XorVecSlice(gather, dst[off:end])
	}
	xs.gather = gather
	return nil
}
