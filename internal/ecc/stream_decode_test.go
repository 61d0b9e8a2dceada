package ecc

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// streamTestCodes returns one code per family, exercising the generic
// streaming contract over both the GF(2^8) and XOR-only array codes.
func streamTestCodes(t testing.TB) []Code {
	t.Helper()
	var out []Code
	for _, ctor := range []func() (Code, error){
		func() (Code, error) { return NewBCode(6) },
		func() (Code, error) { return NewXCode(7) },
		func() (Code, error) { return NewEvenOdd(5) },
		func() (Code, error) { return NewReedSolomon(6, 4) },
		func() (Code, error) { return NewReedSolomon(10, 8) },
	} {
		c, err := ctor()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// encodeShardStreams runs the stream encoder and concatenates every block's
// shard i into shard stream i — the layout the decoder consumes.
func encodeShardStreams(t testing.TB, code Code, data []byte, blockSize int) [][]byte {
	t.Helper()
	streams := make([][]byte, code.N())
	err := EncodeReader(code, bytes.NewReader(data), blockSize, func(b int, shards [][]byte, dataLen int) error {
		for i, s := range shards {
			streams[i] = append(streams[i], s...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return streams
}

// TestStreamDecodeRoundtrip checks DecodeStreams reproduces the object from
// any k shard streams, across code families and sizes around the block
// boundary, including the empty object.
func TestStreamDecodeRoundtrip(t *testing.T) {
	const block = 8 << 10
	for _, code := range streamTestCodes(t) {
		for _, size := range []int{0, 1, block - 1, block, block + 1, 3*block + 17} {
			data := make([]byte, size)
			rand.New(rand.NewSource(int64(size))).Read(data)
			streams := encodeShardStreams(t, code, data, block)
			if want := StreamShardLen(code, int64(size), block); int64(len(streams[0])) != want && size > 0 {
				t.Fatalf("%s size %d: stream is %d bytes, StreamShardLen says %d",
					code.Name(), size, len(streams[0]), want)
			}
			// Drop n-k streams: the erased set slides with the size so many
			// patterns get covered across the loop.
			readers := make([]io.Reader, code.N())
			for i, s := range streams {
				readers[i] = bytes.NewReader(s)
			}
			for j := 0; j < code.N()-code.K(); j++ {
				readers[(size+j)%code.N()] = nil
			}
			var out bytes.Buffer
			n, err := DecodeStreams(code, &out, readers, int64(size), block)
			if err != nil {
				t.Fatalf("%s size %d: %v", code.Name(), size, err)
			}
			if n != int64(size) || !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("%s size %d: stream decode corrupted (wrote %d)", code.Name(), size, n)
			}
		}
	}
}

// TestStreamDecoderShiftingSurvivors feeds the push-style decoder a
// different survivor set per block — the situation after a mid-object hedge,
// where later blocks decode from a different k-subset than earlier ones.
func TestStreamDecoderShiftingSurvivors(t *testing.T) {
	code, err := NewReedSolomon(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	const block = 4 << 10
	size := 7*block + 123
	data := make([]byte, size)
	rand.New(rand.NewSource(99)).Read(data)
	streams := encodeShardStreams(t, code, data, block)

	var out bytes.Buffer
	dec, err := NewStreamDecoder(code, &out, int64(size), block)
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); !dec.Done(); b++ {
		pieceLen := code.ShardSize(StreamBlockLen(int64(size), block, b))
		off := StreamShardOff(code, block, b)
		shards := make([][]byte, code.N())
		// Rotate which k shards serve each block.
		for j := 0; j < code.K(); j++ {
			i := (int(b) + j) % code.N()
			shards[i] = streams[i][off : off+int64(pieceLen)]
		}
		if err := dec.NextBlock(shards); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("shifting-survivor decode corrupted")
	}
	if err := dec.NextBlock(make([][]byte, code.N())); !errors.Is(err, ErrStreamDone) {
		t.Fatalf("push past end: err=%v, want ErrStreamDone", err)
	}
}

// TestRebuildStreamMatchesEncoder rebuilds every shard stream from the other
// k and compares it bit-exact with what the encoder produced.
func TestRebuildStreamMatchesEncoder(t *testing.T) {
	const block = 4 << 10
	for _, code := range streamTestCodes(t) {
		size := 3*block + 41
		data := make([]byte, size)
		rand.New(rand.NewSource(7)).Read(data)
		streams := encodeShardStreams(t, code, data, block)
		for target := 0; target < code.N(); target++ {
			readers := make([]io.Reader, code.N())
			have := 0
			for i := range streams {
				if i == target || have == code.K() {
					continue
				}
				readers[i] = bytes.NewReader(streams[i])
				have++
			}
			var out bytes.Buffer
			n, err := RebuildStream(code, target, &out, readers, int64(size), block)
			if err != nil {
				t.Fatalf("%s target %d: %v", code.Name(), target, err)
			}
			if n != int64(len(streams[target])) || !bytes.Equal(out.Bytes(), streams[target]) {
				t.Fatalf("%s target %d: rebuilt stream differs (wrote %d of %d)",
					code.Name(), target, n, len(streams[target]))
			}
		}
	}
}

// TestStreamDecodeUnblockedLayout checks blockSize == dataLen (an object
// that fits in one block) decodes identically to the whole-buffer Decode
// path.
func TestStreamDecodeUnblockedLayout(t *testing.T) {
	code, err := NewReedSolomon(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 31<<10)
	rand.New(rand.NewSource(3)).Read(data)
	shards, err := code.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, code.N())
	for i := 0; i < code.K(); i++ {
		readers[(i+2)%code.N()] = bytes.NewReader(shards[(i+2)%code.N()])
	}
	var out bytes.Buffer
	if _, err := DecodeStreams(code, &out, readers, int64(len(data)), len(data)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("unblocked stream decode corrupted")
	}
}

// TestStreamDecodeValidation covers the decoder's misuse errors.
func TestStreamDecodeValidation(t *testing.T) {
	code, err := NewReedSolomon(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamDecoder(code, io.Discard, -1, 4096); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("negative dataLen: %v", err)
	}
	if _, err := NewStreamDecoder(code, io.Discard, 10, 0); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("zero block size with data: %v", err)
	}
	if dec, err := NewStreamDecoder(code, io.Discard, 0, 0); err != nil || !dec.Done() {
		t.Fatalf("empty object: err=%v done=%v", err, err == nil && dec.Done())
	}
	if _, err := NewShardRebuilder(code, 5, io.Discard, 10, 4096); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("out-of-range target: %v", err)
	}

	dec, err := NewStreamDecoder(code, io.Discard, 100, 64)
	if err != nil {
		t.Fatal(err)
	}
	shards, _ := code.Encode(make([]byte, 64))
	if err := dec.NextBlock(shards[:2]); !errors.Is(err, ErrShardCount) {
		t.Fatalf("wrong shard count: %v", err)
	}
	short := make([][]byte, code.N())
	short[0] = make([]byte, 3) // piece size for a 64-byte block over k=3 is 22
	if err := dec.NextBlock(short); !errors.Is(err, ErrShardSize) {
		t.Fatalf("wrong piece size: %v", err)
	}
	few := make([][]byte, code.N())
	few[0] = shards[0]
	if err := dec.NextBlock(few); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("too few pieces: %v", err)
	}
	// Target offered as a survivor is rejected by the pull rebuilder.
	readers := make([]io.Reader, code.N())
	for i := range readers {
		readers[i] = bytes.NewReader(nil)
	}
	if _, err := RebuildStream(code, 1, io.Discard, readers, 100, 64); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("target-as-survivor: %v", err)
	}
}

// TestReconstructDataSkipsParity checks the RS fast path restores data
// shards bit-exactly while leaving erased parity untouched, against full
// Reconstruct as the reference.
func TestReconstructDataSkipsParity(t *testing.T) {
	for _, shape := range [][2]int{{6, 4}, {10, 8}, {14, 10}} {
		code, err := NewReedSolomon(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		dr := code.(DataReconstructor)
		data := make([]byte, 40<<10)
		rand.New(rand.NewSource(int64(shape[0]))).Read(data)
		shards, err := code.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		// Erase one data shard and one parity shard.
		work := make([][]byte, len(shards))
		copy(work, shards)
		work[1] = nil
		work[code.K()] = nil
		if err := dr.ReconstructData(work); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(work[1], shards[1]) {
			t.Fatalf("rs(%d,%d): data shard wrong", shape[0], shape[1])
		}
		if work[code.K()] != nil {
			t.Fatalf("rs(%d,%d): parity shard recomputed by ReconstructData", shape[0], shape[1])
		}
	}
}
