package ecc

import (
	"bytes"
	"math/rand"
	"testing"
)

// rsStreams encodes data at blockSize and returns its n shard streams.
func rsStreams(t *testing.T, code Code, data []byte, blockSize int) [][]byte {
	t.Helper()
	streams := make([][]byte, code.N())
	if err := EncodeReader(code, bytes.NewReader(data), blockSize, func(_ int, shards [][]byte, _ int) error {
		for i, s := range shards {
			streams[i] = append(streams[i], s...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return streams
}

// blockPieces sets shards to block b's pieces of streams, with the erased
// indices nil.
func blockPieces(shards, streams [][]byte, code Code, dataLen int64, blockSize int, b int64, erase []int) {
	off := StreamShardOff(code, blockSize, b)
	n := int64(code.ShardSize(StreamBlockLen(dataLen, blockSize, b)))
	for i := range shards {
		shards[i] = streams[i][off : off+n]
	}
	for _, e := range erase {
		shards[e] = nil
	}
}

// TestStreamDecodeRSAllocFree pins Reed-Solomon block reconstruction at zero
// allocations at the default 128 KiB block, as TestStreamDecodeArrayAllocFree
// does for the array codes: once the erasure pattern's plan is cached and
// the scratch pool is warm, neither StreamDecoder.NextBlock nor
// ShardRebuilder.NextBlock allocates. (A decode that restored each missing
// piece into a fresh buffer, or inverted a matrix per block, failed this.)
func TestStreamDecodeRSAllocFree(t *testing.T) {
	const blockSize = 128 << 10
	const blocks = 24
	const objectSize = blockSize * blocks
	data := make([]byte, objectSize)
	rand.New(rand.NewSource(12)).Read(data)
	for _, shape := range [][2]int{{6, 4}, {10, 8}} {
		code, err := NewReedSolomon(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		n, k := code.N(), code.K()
		streams := rsStreams(t, code, data, blockSize)
		feed := func(t *testing.T, next func([][]byte) error, erase ...int) {
			t.Helper()
			shards := make([][]byte, n)
			block := int64(0)
			offer := func() {
				blockPieces(shards, streams, code, objectSize, blockSize, block, erase)
				block++
			}
			offer() // warm the plan cache and the scratch pool
			if err := next(shards); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(blocks-4, func() {
				offer()
				if err := next(shards); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%.1f allocs per block, want 0", allocs)
			}
		}
		decode := func(erase ...int) func(t *testing.T) {
			return func(t *testing.T) {
				w := &zeroAllocWriter{}
				dec, err := NewStreamDecoder(code, w, objectSize, blockSize)
				if err != nil {
					t.Fatal(err)
				}
				feed(t, dec.NextBlock, erase...)
			}
		}
		rebuild := func(target int) func(t *testing.T) {
			return func(t *testing.T) {
				rb, err := NewShardRebuilder(code, target, &zeroAllocWriter{}, objectSize, blockSize)
				if err != nil {
					t.Fatal(err)
				}
				feed(t, rb.NextBlock, target)
			}
		}
		t.Run(code.Name()+"/decode-data-erasure-P-present", decode(1))
		t.Run(code.Name()+"/decode-data-and-P", decode(1, k))
		t.Run(code.Name()+"/decode-two-data", decode(0, 2))
		t.Run(code.Name()+"/decode-intact", decode())
		t.Run(code.Name()+"/rebuild-data", rebuild(1))
		t.Run(code.Name()+"/rebuild-parity", rebuild(n-1))
	}
}

// TestStreamDecodeRSSharedScratch interleaves the blocks of two objects of
// different lengths through two decoders and two rebuilders that share one
// Scratch, over every erasure pattern: each reads back bit-exact, so no
// block sees bytes another stream's block left in the scratch (the short
// last blocks are where stale bytes would show).
func TestStreamDecodeRSSharedScratch(t *testing.T) {
	const blockSize = 16 << 10
	for _, shape := range [][2]int{{6, 4}, {5, 3}} {
		code, err := NewReedSolomon(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		type object struct {
			data    []byte
			streams [][]byte
		}
		var objs []object
		for i, size := range []int{3*blockSize + 1000, 2*blockSize + 77} {
			data := make([]byte, size)
			rand.New(rand.NewSource(int64(20 + i))).Read(data)
			objs = append(objs, object{data, rsStreams(t, code, data, blockSize)})
		}
		forEachErasurePattern(code.N(), code.N()-code.K(), func(pattern []int) {
			target := 0
			if len(pattern) > 0 {
				target = pattern[len(pattern)-1]
			}
			type stream struct {
				dec        *StreamDecoder
				rb         *ShardRebuilder
				out, shard bytes.Buffer
			}
			var shared Scratch
			ss := make([]*stream, len(objs))
			for i, o := range objs {
				s := &stream{}
				if s.dec, err = NewStreamDecoder(code, &s.out, int64(len(o.data)), blockSize); err != nil {
					t.Fatal(err)
				}
				if s.rb, err = NewShardRebuilder(code, target, &s.shard, int64(len(o.data)), blockSize); err != nil {
					t.Fatal(err)
				}
				s.dec.UseScratch(&shared)
				s.rb.UseScratch(&shared)
				ss[i] = s
			}
			shards := make([][]byte, code.N())
			for pending := true; pending; {
				pending = false
				for i, s := range ss {
					if s.dec.Done() {
						continue
					}
					pending = true
					dataLen := int64(len(objs[i].data))
					blockPieces(shards, objs[i].streams, code, dataLen, blockSize, s.dec.Block(), pattern)
					if err := s.dec.NextBlock(shards); err != nil {
						t.Fatalf("%s erased %v: decode: %v", code.Name(), pattern, err)
					}
					blockPieces(shards, objs[i].streams, code, dataLen, blockSize, s.rb.Block(), pattern)
					if err := s.rb.NextBlock(shards); err != nil {
						t.Fatalf("%s erased %v: rebuild: %v", code.Name(), pattern, err)
					}
				}
			}
			for i, s := range ss {
				if !bytes.Equal(s.out.Bytes(), objs[i].data) {
					t.Fatalf("%s erased %v: object %d decoded wrong", code.Name(), pattern, i)
				}
				if !bytes.Equal(s.shard.Bytes(), objs[i].streams[target]) {
					t.Fatalf("%s erased %v: object %d shard %d rebuilt wrong", code.Name(), pattern, i, target)
				}
			}
		})
	}
}
