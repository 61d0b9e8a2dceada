package gf

import (
	"bytes"
	"math/rand"
	"testing"
)

// kernelTestLengths covers the empty slice, single bytes, lengths around the
// 4-, 8- and 32-byte unroll boundaries, and non-multiples of 16.
var kernelTestLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 100, 255, 1000, 4096, 4097}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestMulTableMatchesMul(t *testing.T) {
	for c := 0; c < 256; c++ {
		row := MulTable(byte(c))
		for x := 0; x < 256; x++ {
			if row[x] != Mul(byte(c), byte(x)) {
				t.Fatalf("MulTable(%d)[%d] = %d, want Mul = %d", c, x, row[x], Mul(byte(c), byte(x)))
			}
		}
	}
}

// TestMulSliceMatchesScalar cross-checks the table kernel against scalar Mul
// byte for byte, over random coefficients and all boundary lengths.
func TestMulSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, n := range kernelTestLengths {
		for trial := 0; trial < 8; trial++ {
			c := byte(rng.Intn(256))
			src := randBytes(rng, n)
			dst := randBytes(rng, n)
			ref := make([]byte, n)
			for i := range src {
				ref[i] = Mul(c, src[i])
			}
			MulSlice(c, src, dst)
			if !bytes.Equal(dst, ref) {
				t.Fatalf("MulSlice(c=%d, n=%d) diverges from scalar Mul", c, n)
			}
			refDst := randBytes(rng, n)
			MulSliceRef(c, src, refDst)
			if !bytes.Equal(refDst, ref) {
				t.Fatalf("MulSliceRef(c=%d, n=%d) diverges from scalar Mul", c, n)
			}
		}
	}
}

func TestMulAddSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for _, n := range kernelTestLengths {
		for trial := 0; trial < 8; trial++ {
			c := byte(rng.Intn(256))
			src := randBytes(rng, n)
			dst := randBytes(rng, n)
			ref := append([]byte(nil), dst...)
			for i := range src {
				ref[i] ^= Mul(c, src[i])
			}
			got := append([]byte(nil), dst...)
			MulAddSlice(c, src, got)
			if !bytes.Equal(got, ref) {
				t.Fatalf("MulAddSlice(c=%d, n=%d) diverges from scalar Mul", c, n)
			}
			got2 := append([]byte(nil), dst...)
			MulAddSliceRef(c, src, got2)
			if !bytes.Equal(got2, ref) {
				t.Fatalf("MulAddSliceRef(c=%d, n=%d) diverges from scalar Mul", c, n)
			}
		}
	}
}

func TestXorVecSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for _, n := range kernelTestLengths {
		// The k list straddles every group boundary of the 8/4/3/2/1 fused
		// dispatch, including the array-code equation lengths (11 for
		// xcode(13), up to 2p-ish for EVENODD diagonals).
		for _, k := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 19, 23} {
			in := make([][]byte, k)
			for j := range in {
				in[j] = randBytes(rng, n)
			}
			ref := make([]byte, n)
			for j := range in {
				for i := range ref {
					ref[i] ^= in[j][i]
				}
			}
			out := randBytes(rng, n) // pre-filled garbage: must be overwritten
			XorVecSlice(in, out)
			if !bytes.Equal(out, ref) {
				t.Fatalf("XorVecSlice(k=%d, n=%d) wrong", k, n)
			}
		}
	}
}

func TestPQSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for _, n := range kernelTestLengths {
		for _, k := range []int{1, 2, 3, 4, 7, 8, 10, 13} {
			in := make([][]byte, k)
			for j := range in {
				in[j] = randBytes(rng, n)
			}
			refP := make([]byte, n)
			refQ := make([]byte, n)
			for j := range in {
				coeff := Exp(j)
				for i := 0; i < n; i++ {
					refP[i] ^= in[j][i]
					refQ[i] ^= Mul(coeff, in[j][i])
				}
			}
			p := randBytes(rng, n)
			q := randBytes(rng, n)
			PQSlice(in, p, q)
			if !bytes.Equal(p, refP) {
				t.Fatalf("PQSlice(k=%d, n=%d): P row wrong", k, n)
			}
			if !bytes.Equal(q, refQ) {
				t.Fatalf("PQSlice(k=%d, n=%d): Q row wrong", k, n)
			}
		}
	}
}

// TestMulVecSliceMatchesScalar checks the fused multi-input kernel,
// including its zero- and unit-coefficient special cases, against a scalar
// Mul accumulation.
func TestMulVecSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for _, n := range kernelTestLengths {
		for _, k := range []int{0, 1, 2, 3, 4, 5, 8, 9, 11} {
			coeffs := make([]byte, k)
			in := make([][]byte, k)
			for j := range in {
				switch rng.Intn(4) {
				case 0:
					coeffs[j] = 0 // exercise the dropped-input path
				case 1:
					coeffs[j] = 1 // exercise the XOR fast path
				default:
					coeffs[j] = byte(rng.Intn(256))
				}
				in[j] = randBytes(rng, n)
			}
			ref := make([]byte, n)
			for j := range in {
				for i := range ref {
					ref[i] ^= Mul(coeffs[j], in[j][i])
				}
			}
			out := randBytes(rng, n)
			MulVecSlice(coeffs, in, out)
			if !bytes.Equal(out, ref) {
				t.Fatalf("MulVecSlice(k=%d, n=%d, coeffs=%v) wrong", k, n, coeffs)
			}
		}
	}
}

func TestMatrixMulVecSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		n := kernelTestLengths[rng.Intn(len(kernelTestLengths))]
		m := NewMatrix(rows, cols)
		rng.Read(m.Data)
		in := make([][]byte, cols)
		for j := range in {
			in[j] = randBytes(rng, n)
		}
		out := make([][]byte, rows)
		ref := make([][]byte, rows)
		for r := range out {
			out[r] = randBytes(rng, n)
			ref[r] = make([]byte, n)
			for j := 0; j < cols; j++ {
				for i := 0; i < n; i++ {
					ref[r][i] ^= Mul(m.At(r, j), in[j][i])
				}
			}
		}
		m.MulVecSlices(in, out)
		for r := range out {
			if !bytes.Equal(out[r], ref[r]) {
				t.Fatalf("MulVecSlices %dx%d n=%d: row %d wrong", rows, cols, n, r)
			}
		}
	}
}

// TestMulVecSliceUnitCoefficientsAllocFree pins the unit-coefficient route
// of MulVecSlice (a Reed-Solomon decode row for one lost data shard with P
// present is all ones) at zero allocations, alone and after a table-fused
// group. It used to gather the unit inputs into a fresh slice per call.
func TestMulVecSliceUnitCoefficientsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	in := make([][]byte, 8)
	for j := range in {
		in[j] = randBytes(rng, 4096)
	}
	out := make([]byte, 4096)
	for _, coeffs := range [][]byte{
		{1, 1, 1, 1, 1, 1, 1, 1},
		{1, 1, 1},
		{7, 1, 9, 1, 1, 0, 3, 1},
	} {
		ref := make([]byte, len(out))
		for j, c := range coeffs {
			MulAddSliceRef(c, in[j], ref)
		}
		allocs := testing.AllocsPerRun(50, func() { MulVecSlice(coeffs, in[:len(coeffs)], out) })
		if !bytes.Equal(out, ref) {
			t.Fatalf("MulVecSlice(%v) wrong", coeffs)
		}
		if allocs != 0 {
			t.Fatalf("MulVecSlice(%v): %.1f allocs per call, want 0", coeffs, allocs)
		}
	}
}

func TestMulVecSliceShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulVecSlice with mismatched coeffs/in did not panic")
		}
	}()
	MulVecSlice([]byte{1, 2}, [][]byte{{0}}, []byte{0})
}

// FuzzMulSlice differentially fuzzes the table kernel against scalar Mul on
// arbitrary coefficients and slice contents (the satellite requirement:
// random coefficients and lengths, including 0, 1 and non-multiples of 16).
func FuzzMulSlice(f *testing.F) {
	f.Add(byte(0), []byte{})
	f.Add(byte(1), []byte{7})
	f.Add(byte(0x8e), []byte("seventeen bytes!!"))
	f.Add(byte(255), bytes.Repeat([]byte{0xff}, 33))
	f.Fuzz(func(t *testing.T, c byte, src []byte) {
		dst := make([]byte, len(src))
		MulSlice(c, src, dst)
		for i := range src {
			if dst[i] != Mul(c, src[i]) {
				t.Fatalf("MulSlice(c=%d) byte %d: got %d, want %d", c, i, dst[i], Mul(c, src[i]))
			}
		}
	})
}

// FuzzMulAddSlice differentially fuzzes the multiply-accumulate kernel
// against scalar Mul plus XOR.
func FuzzMulAddSlice(f *testing.F) {
	f.Add(byte(0), []byte{}, byte(0))
	f.Add(byte(2), []byte{1, 2, 3}, byte(0x55))
	f.Add(byte(0x1d), bytes.Repeat([]byte{0xab}, 19), byte(0xff))
	f.Fuzz(func(t *testing.T, c byte, src []byte, fill byte) {
		dst := bytes.Repeat([]byte{fill}, len(src))
		MulAddSlice(c, src, dst)
		for i := range src {
			want := fill ^ Mul(c, src[i])
			if dst[i] != want {
				t.Fatalf("MulAddSlice(c=%d) byte %d: got %d, want %d", c, i, dst[i], want)
			}
		}
	})
}

// FuzzPQSlice differentially fuzzes the fused P+Q kernel: the fuzzer picks
// the shard count and a byte pool; shards are equal-length windows into it.
func FuzzPQSlice(f *testing.F) {
	f.Add(3, []byte("some pool of bytes to slice into shards, long enough to matter"))
	f.Add(1, []byte{9})
	f.Add(8, bytes.Repeat([]byte{3, 1, 4, 1, 5, 9}, 40))
	f.Fuzz(func(t *testing.T, k int, pool []byte) {
		if k < 1 || k > 16 || len(pool) < k {
			t.Skip()
		}
		n := len(pool) / k
		in := make([][]byte, k)
		for j := range in {
			in[j] = pool[j*n : (j+1)*n]
		}
		p := make([]byte, n)
		q := make([]byte, n)
		PQSlice(in, p, q)
		for i := 0; i < n; i++ {
			var wantP, wantQ byte
			for j := range in {
				wantP ^= in[j][i]
				wantQ ^= Mul(Exp(j), in[j][i])
			}
			if p[i] != wantP || q[i] != wantQ {
				t.Fatalf("PQSlice(k=%d, n=%d) byte %d: got (%d,%d), want (%d,%d)", k, n, i, p[i], q[i], wantP, wantQ)
			}
		}
	})
}

func BenchmarkMulAddSliceKernelVsRef(b *testing.B) {
	src := make([]byte, 64*1024)
	dst := make([]byte, 64*1024)
	rand.New(rand.NewSource(7)).Read(src)
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			MulAddSliceRef(0x8e, src, dst)
		}
	})
	b.Run("kernel", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			MulAddSlice(0x8e, src, dst)
		}
	})
}

func BenchmarkPQSlice(b *testing.B) {
	const n = 64 * 1024
	in := make([][]byte, 8)
	rng := rand.New(rand.NewSource(8))
	for j := range in {
		in[j] = randBytes(rng, n)
	}
	p := make([]byte, n)
	q := make([]byte, n)
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PQSlice(in, p, q)
	}
}
