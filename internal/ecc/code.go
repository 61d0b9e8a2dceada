// Package ecc implements the erasure-correcting codes of the RAIN paper §4:
// the B-Code and X-Code MDS array codes with optimal encoding complexity, the
// EVENODD code, and a Reed-Solomon baseline, together with the RAID-style
// mirroring and single-parity schemes the paper contrasts them with.
//
// All codes share one interface: an (n, k) code turns a message into n
// shards such that any k of them recover the message. The array codes
// (B-Code, X-Code, EVENODD) use only XOR in encode and decode; Reed-Solomon
// pays GF(2^8) multiplications. A shard corresponds to one column of the
// code array and is what the distributed storage layer places on one node.
//
// # Streaming
//
// Large objects move through the block-codeword streaming layer instead of
// one whole-object codeword: StreamEncoder/EncodeReader cut the object into
// independent codewords of blockSize data bytes, and StreamDecoder /
// DecodeStreams (any k shard streams -> data) and ShardRebuilder /
// RebuildStream (k survivor streams -> one lost shard stream) reverse them
// one block at a time. Shard stream i is the concatenation of every block's
// shard i, so block b of any stream sits at offset b*ShardSize(blockSize) —
// the exact layout the dstore wire protocol ships and DESIGN.md documents
// as the stable contract. Every streaming type holds O(blockSize · n)
// memory regardless of object size.
//
// # Memory and aliasing contracts
//
// Encode may return data shards that alias the input buffer (see
// Code.Encode): callers that mutate the input afterwards, or write into the
// returned shards, must copy first. StreamEncoder.Next reuses its block
// buffer — and, for BufferEncoder codes, one shard-buffer set per stream —
// so returned shards are valid only until the following Next.
// Symmetrically, pieces passed to StreamDecoder.NextBlock and
// ShardRebuilder.NextBlock are never retained — the caller may reuse them
// as soon as the call returns.
package ecc

import (
	"errors"
	"fmt"
)

// Code is an (n, k) erasure code. Encode produces n equally-sized shards
// from a message; any k shards reconstruct the message. Implementations are
// safe for concurrent use by multiple goroutines: all state is immutable
// after construction.
type Code interface {
	// Name identifies the code family and parameters, e.g. "bcode(6,4)".
	Name() string
	// N returns the total number of shards produced by Encode.
	N() int
	// K returns the number of shards sufficient for reconstruction.
	K() int
	// ShardSize reports the size in bytes of each shard produced by
	// Encode for a message of dataLen bytes.
	ShardSize(dataLen int) int
	// Encode splits and encodes data into exactly N shards. The input is
	// not modified. Encode never returns fewer than N shards. To keep the
	// hot path copy-free, implementations may return data shards that
	// alias the input: callers that mutate data after Encode, or write
	// into the returned shards, must copy first.
	Encode(data []byte) ([][]byte, error)
	// Reconstruct fills in the nil entries of shards in place. At least K
	// entries must be non-nil and all non-nil entries must have equal
	// length. After a successful return every entry is non-nil.
	Reconstruct(shards [][]byte) error
	// Decode recovers the original message of length dataLen from shards,
	// of which at least K must be non-nil.
	Decode(shards [][]byte, dataLen int) ([]byte, error)
}

// DataReconstructor is optionally implemented by codes that can restore
// missing data shards without also recomputing missing parity shards.
// Retrieval paths (which only need the message back) use it to skip the
// parity work; Reconstruct remains the full-repair entry point. The streaming
// decoder type-asserts for this interface and falls back to Reconstruct.
type DataReconstructor interface {
	// ReconstructData fills in the nil data-shard entries (indices < K) of
	// shards in place, under the same preconditions as Code.Reconstruct.
	// Missing parity entries may be left nil.
	ReconstructData(shards [][]byte) error
}

// BufferEncoder is optionally implemented by codes that can encode into
// caller-provided shard buffers, the allocation-free counterpart of Encode.
// The streaming encoder type-asserts for it so one set of shard buffers per
// stream is reused across every block instead of allocating (and zeroing)
// n*ShardSize(blockLen) bytes per block.
type BufferEncoder interface {
	// EncodeInto encodes data into shards, which must hold exactly N
	// buffers of exactly ShardSize(len(data)) bytes each. Every byte of
	// every buffer is overwritten; data is not modified, and the buffers
	// never alias it.
	EncodeInto(data []byte, shards [][]byte) error
}

// ContiguousLayout is a marker interface for codes whose data shards are
// contiguous slices of the message: shard i of a dataLen-byte encode holds
// message bytes [i*ShardSize(dataLen), (i+1)*ShardSize(dataLen)). The
// streaming decoder writes such codes' data shards straight through; codes
// with scattered layouts (the XOR array codes, whose data chunks interleave
// with parity cells across rows) instead gather each block's message out of
// the shard cells — strided copies for present cells, cached-plan XOR
// replays for missing ones (see xorplan.go) — falling back to Code.Decode
// for implementations the decoder does not know.
type ContiguousLayout interface {
	// ContiguousData is a marker method; it performs no work.
	ContiguousData()
}

// Errors shared by all code implementations.
var (
	// ErrTooFewShards reports that fewer than K shards were available.
	ErrTooFewShards = errors.New("ecc: too few shards to reconstruct")
	// ErrShardSize reports inconsistent or invalid shard sizes.
	ErrShardSize = errors.New("ecc: shards have inconsistent sizes")
	// ErrShardCount reports a shard slice whose length differs from N.
	ErrShardCount = errors.New("ecc: wrong number of shards")
	// ErrInvalidParams reports unsupported code parameters.
	ErrInvalidParams = errors.New("ecc: invalid code parameters")
)

// checkShards validates a shard slice against the code shape and returns the
// per-shard size and the number of present (non-nil) shards.
func checkShards(shards [][]byte, n, k int) (shardLen, present int, err error) {
	if len(shards) != n {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), n)
	}
	shardLen = -1
	for _, s := range shards {
		if s == nil {
			continue
		}
		present++
		if shardLen == -1 {
			shardLen = len(s)
		} else if len(s) != shardLen {
			return 0, 0, fmt.Errorf("%w: %d vs %d", ErrShardSize, len(s), shardLen)
		}
	}
	if present < k {
		return 0, 0, fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, present, k)
	}
	if shardLen == 0 {
		return 0, 0, fmt.Errorf("%w: zero-length shards", ErrShardSize)
	}
	return shardLen, present, nil
}

// ceilDiv returns ceil(a/b) for positive a, b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// isPrime reports whether p is a prime number. Code constructors use it to
// validate parameters; the inputs are tiny so trial division is fine.
func isPrime(p int) bool {
	if p < 2 {
		return false
	}
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			return false
		}
	}
	return true
}
