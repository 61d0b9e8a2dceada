package gf

// This file holds the slice kernels that make GF(2^8) linear algebra fast
// enough to be a fair Reed-Solomon baseline (ISSUE 1). The design:
//
//   - mulTable[c] is a dense 256-byte product table for every coefficient c,
//     so multiplying a slice by a constant is one indexed load per byte
//     instead of the exp/log dance (two dependent table loads plus a zero
//     branch). One row is 4 cache lines and stays resident in L1 for the
//     whole pass.
//
//   - MulVecSlice fuses up to four sources per pass into one destination,
//     so a Reed-Solomon parity row touches the destination once per 4 data
//     shards instead of once per shard. This is where most of the measured
//     speedup comes from: the kernel is memory-bound, and fusing removes
//     the read-modify-write traffic of repeated MulAddSlice passes.
//
// The old scalar path survives as MulSliceRef/MulAddSliceRef: the reference
// implementations used by the differential fuzz tests and the before/after
// benchmarks in the repository root.

// mulTable[c][x] = c * x in GF(2^8). 64 KiB total, filled once at package
// init by bit-serial carry-less multiplication (deliberately independent of
// the exp/log tables so the two construction paths cross-check each other in
// the tests).
var mulTable [256][256]byte

func init() {
	for c := 1; c < 256; c++ {
		row := &mulTable[c]
		for x := 1; x < 256; x++ {
			p, a, b := 0, c, x
			for b != 0 {
				if b&1 != 0 {
					p ^= a
				}
				b >>= 1
				a <<= 1
				if a&0x100 != 0 {
					a ^= Poly
				}
			}
			row[x] = byte(p)
		}
	}
}

// MulTable returns the 256-byte product table for the coefficient c:
// MulTable(c)[x] == Mul(c, x). Callers that apply the same coefficient many
// times (custom kernels, tests) can index it directly.
func MulTable(c byte) *[256]byte { return &mulTable[c] }

// MulSlice sets dst[i] = c * src[i] for all i. dst must be at least as long
// as src; only the first len(src) bytes of dst are written.
func MulSlice(c byte, src, dst []byte) {
	if len(src) == 0 {
		return
	}
	if c == 0 {
		clearSlice(dst[:len(src)])
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	t := &mulTable[c]
	dst = dst[:len(src)]
	n := len(src)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = t[src[i]]
		dst[i+1] = t[src[i+1]]
		dst[i+2] = t[src[i+2]]
		dst[i+3] = t[src[i+3]]
	}
	for ; i < n; i++ {
		dst[i] = t[src[i]]
	}
}

// MulAddSlice sets dst[i] ^= c * src[i] for all i: the fused multiply-
// accumulate over the field. dst must be at least as long as src.
func MulAddSlice(c byte, src, dst []byte) {
	if len(src) == 0 || c == 0 {
		return
	}
	if c == 1 {
		XorSlice(src, dst)
		return
	}
	t := &mulTable[c]
	dst = dst[:len(src)]
	n := len(src)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] ^= t[src[i]]
		dst[i+1] ^= t[src[i+1]]
		dst[i+2] ^= t[src[i+2]]
		dst[i+3] ^= t[src[i+3]]
	}
	for ; i < n; i++ {
		dst[i] ^= t[src[i]]
	}
}

// MulSliceRef is the pre-kernel scalar implementation of MulSlice (exp/log
// lookups, one zero branch per byte). It is retained as the reference for
// differential tests and as the "seed scalar path" side of the benchmarks.
func MulSliceRef(c byte, src, dst []byte) {
	if c == 0 {
		for i := range src {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	if len(src) == 0 {
		return
	}
	logC := int(logTable[c])
	_ = dst[len(src)-1]
	for i, s := range src {
		if s == 0 {
			dst[i] = 0
		} else {
			dst[i] = expTable[logC+int(logTable[s])]
		}
	}
}

// MulAddSliceRef is the pre-kernel scalar implementation of MulAddSlice. See
// MulSliceRef.
func MulAddSliceRef(c byte, src, dst []byte) {
	if c == 0 || len(src) == 0 {
		return
	}
	if c == 1 {
		XorSlice(src, dst)
		return
	}
	logC := int(logTable[c])
	_ = dst[len(src)-1]
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[logC+int(logTable[s])]
		}
	}
}

func clearSlice(s []byte) {
	for i := range s {
		s[i] = 0
	}
}

// MulVecSlice computes out = sum_j coeffs[j] * in[j], a single output row of
// a matrix-vector product over slices. len(coeffs) must equal len(in), every
// in[j] must be at least len(out) bytes, and out must not alias any input.
// Zero coefficients are dropped, unit coefficients go through the 64-bit-wide
// XOR kernels, and the rest are consumed in fused table-lookup groups of four
// so each pass touches out once per four inputs; this is the inner kernel of
// Reed-Solomon encode and reconstruct.
func MulVecSlice(coeffs []byte, in [][]byte, out []byte) {
	if len(coeffs) != len(in) {
		panic("gf: MulVecSlice coefficient/input count mismatch")
	}
	if len(out) == 0 {
		return
	}
	var generalBuf [8]int
	var onesBuf [8][]byte
	general, ones := generalBuf[:0], onesBuf[:0]
	for j, c := range coeffs {
		switch c {
		case 0:
		case 1:
			ones = append(ones, in[j])
		default:
			general = append(general, j)
		}
	}
	// Table-fused groups first: the first group overwrites out, so callers
	// need not pre-zero it.
	wrote := false
	j := 0
	switch {
	case len(general) >= 4:
		mulVec4(&mulTable[coeffs[general[0]]], &mulTable[coeffs[general[1]]],
			&mulTable[coeffs[general[2]]], &mulTable[coeffs[general[3]]],
			in[general[0]], in[general[1]], in[general[2]], in[general[3]], out)
		j, wrote = 4, true
	case len(general) >= 2:
		mulVec2(&mulTable[coeffs[general[0]]], &mulTable[coeffs[general[1]]],
			in[general[0]], in[general[1]], out)
		j, wrote = 2, true
	case len(general) == 1:
		MulSlice(coeffs[general[0]], in[general[0]][:len(out)], out)
		j, wrote = 1, true
	}
	for ; j+4 <= len(general); j += 4 {
		mulAddVec4(&mulTable[coeffs[general[j]]], &mulTable[coeffs[general[j+1]]],
			&mulTable[coeffs[general[j+2]]], &mulTable[coeffs[general[j+3]]],
			in[general[j]], in[general[j+1]], in[general[j+2]], in[general[j+3]], out)
	}
	if j+2 <= len(general) {
		mulAddVec2(&mulTable[coeffs[general[j]]], &mulTable[coeffs[general[j+1]]],
			in[general[j]], in[general[j+1]], out)
		j += 2
	}
	if j < len(general) {
		MulAddSlice(coeffs[general[j]], in[general[j]][:len(out)], out)
	}
	// Unit coefficients: pure XOR at 8 bytes per op.
	if len(ones) > 0 {
		if !wrote {
			XorVecSlice(ones, out)
			return
		}
		k := 0
		for ; k+4 <= len(ones); k += 4 {
			xorAddVec4(ones[k], ones[k+1], ones[k+2], ones[k+3], out)
		}
		if k+2 <= len(ones) {
			xorAddVec2(ones[k], ones[k+1], out)
			k += 2
		}
		if k < len(ones) {
			XorSlice(ones[k][:len(out)], out)
		}
		return
	}
	if !wrote {
		clearSlice(out)
	}
}

func mulVec4(t0, t1, t2, t3 *[256]byte, s0, s1, s2, s3, dst []byte) {
	n := len(dst)
	s0, s1, s2, s3 = s0[:n], s1[:n], s2[:n], s3[:n]
	for i := 0; i < n; i++ {
		dst[i] = t0[s0[i]] ^ t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]]
	}
}

func mulAddVec4(t0, t1, t2, t3 *[256]byte, s0, s1, s2, s3, dst []byte) {
	n := len(dst)
	s0, s1, s2, s3 = s0[:n], s1[:n], s2[:n], s3[:n]
	for i := 0; i < n; i++ {
		dst[i] ^= t0[s0[i]] ^ t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]]
	}
}

func mulVec2(t0, t1 *[256]byte, s0, s1, dst []byte) {
	n := len(dst)
	s0, s1 = s0[:n], s1[:n]
	for i := 0; i < n; i++ {
		dst[i] = t0[s0[i]] ^ t1[s1[i]]
	}
}

func mulAddVec2(t0, t1 *[256]byte, s0, s1, dst []byte) {
	n := len(dst)
	s0, s1 = s0[:n], s1[:n]
	for i := 0; i < n; i++ {
		dst[i] ^= t0[s0[i]] ^ t1[s1[i]]
	}
}

// MulVecSlices applies the matrix to a vector of slices: out[r] =
// sum_c m[r][c] * in[c] for every row r. len(in) must equal m.Cols and
// len(out) must equal m.Rows; each out[r] is fully overwritten up to its
// length, and every in[c] must be at least that long. This is the row-apply
// primitive Reed-Solomon encode and reconstruct are built on.
func (m *Matrix) MulVecSlices(in, out [][]byte) {
	if len(in) != m.Cols || len(out) != m.Rows {
		panic("gf: MulVecSlices shape mismatch")
	}
	for r := range out {
		MulVecSlice(m.Row(r), in, out[r])
	}
}
