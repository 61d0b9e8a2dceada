package ecc

import (
	"errors"
	"fmt"
	"io"
	"slices"
)

// This file is the decode half of the block-codeword streaming contract
// started by StreamEncoder (stream.go). The layout, shared by both halves
// and by the dstore wire protocol (see DESIGN.md "Block-codeword contract"):
//
//   - An object of dataLen bytes encoded at block size B is the sequence of
//     independent codewords over data[0:B], data[B:2B], ... — ceil(dataLen/B)
//     blocks, all of B data bytes except a possibly short last block.
//   - Shard stream i is the concatenation of every block's shard i. All
//     shards of one block have equal size ShardSize(blockLen), so block b's
//     piece of any shard stream sits at offset b*ShardSize(B).
//   - An object no longer than B is one block, so its shards are those of
//     a single whole-object codeword; an empty object has no blocks.
//
// Decoding therefore needs only (dataLen, blockSize) to locate every piece
// of every stream, and any k shard streams reconstruct the object one block
// at a time with memory bounded by O(blockSize × n).

// ErrStreamDone reports a block pushed into a fully-consumed stream decoder
// or rebuilder.
var ErrStreamDone = errors.New("ecc: stream already fully decoded")

// StreamBlocks returns the number of block codewords an object of dataLen
// bytes occupies at the given block size: ceil(dataLen/blockSize), and 0 for
// an empty object.
func StreamBlocks(dataLen int64, blockSize int) int64 {
	if dataLen <= 0 {
		return 0
	}
	b := int64(blockSize)
	return (dataLen + b - 1) / b
}

// StreamBlockLen returns the number of data bytes in block `block` of an
// object of dataLen bytes: blockSize for every block but the last, which
// holds the remainder.
func StreamBlockLen(dataLen int64, blockSize int, block int64) int {
	off := block * int64(blockSize)
	if rest := dataLen - off; rest < int64(blockSize) {
		return int(rest)
	}
	return blockSize
}

// StreamShardLen returns the total length of one shard stream for an object
// of dataLen bytes at the given block size: every full block contributes
// ShardSize(blockSize) bytes and the short last block ShardSize(lastLen).
// An empty object has empty shard streams.
func StreamShardLen(code Code, dataLen int64, blockSize int) int64 {
	blocks := StreamBlocks(dataLen, blockSize)
	if blocks == 0 {
		return 0
	}
	last := StreamBlockLen(dataLen, blockSize, blocks-1)
	return (blocks-1)*int64(code.ShardSize(blockSize)) + int64(code.ShardSize(last))
}

// StreamShardOff returns the offset of block `block`'s piece within a shard
// stream: block * ShardSize(blockSize), since only the last block is short.
func StreamShardOff(code Code, blockSize int, block int64) int64 {
	return block * int64(code.ShardSize(blockSize))
}

// reconstructData restores the missing data shards of one block codeword,
// using the code's ReconstructData fast path when it has one (Reed-Solomon
// skips recomputing parity nobody asked for) and full Reconstruct otherwise.
func reconstructData(code Code, shards [][]byte) error {
	if dr, ok := code.(DataReconstructor); ok {
		return dr.ReconstructData(shards)
	}
	return code.Reconstruct(shards)
}

// blockStream holds the cursor state shared by StreamDecoder and
// ShardRebuilder: which block is next and how the object is laid out.
type blockStream struct {
	code      Code
	dataLen   int64
	blockSize int
	blocks    int64
	block     int64
	work      [][]byte // reused shard-header scratch, one entry per shard
	contig    bool     // data shards are contiguous message slices
	arr       *xorCode // plan-cached array code (kernel mode), else nil
	rs        *rsCode  // Reed-Solomon, else nil
	sc        *blockScratch
}

// Scratch is the working memory a stream decoder or rebuilder reconstructs
// a block in: the decoded-block buffer, restored pieces and kernel headers.
// A stream allocates its own on first use and keeps it; streams whose
// NextBlock calls never overlap (those one goroutine drives) can share one
// through UseScratch instead, so a client serving many short streams
// allocates it once rather than once per stream.
type Scratch struct{ blockScratch }

// UseScratch makes the stream reconstruct in sc, which it borrows only for
// the duration of each NextBlock call.
func (s *blockStream) UseScratch(sc *Scratch) { s.sc = &sc.blockScratch }

func (s *blockStream) scratch() *blockScratch {
	if s.sc == nil {
		s.sc = new(blockScratch)
	}
	return s.sc
}

func newBlockStream(code Code, dataLen int64, blockSize int) (blockStream, error) {
	if dataLen < 0 {
		return blockStream{}, fmt.Errorf("%w: negative data length %d", ErrInvalidParams, dataLen)
	}
	if blockSize <= 0 && dataLen > 0 {
		return blockStream{}, fmt.Errorf("%w: block size %d", ErrInvalidParams, blockSize)
	}
	_, contig := code.(ContiguousLayout)
	bs := blockStream{
		code:      code,
		dataLen:   dataLen,
		blockSize: blockSize,
		blocks:    StreamBlocks(dataLen, blockSize),
		work:      make([][]byte, code.N()),
		contig:    contig,
	}
	if xc, ok := code.(*xorCode); ok && xc.planned() {
		bs.arr = xc
	}
	bs.rs, _ = code.(*rsCode)
	return bs, nil
}

// Blocks returns the total number of block codewords in the stream.
func (s *blockStream) Blocks() int64 { return s.blocks }

// Block returns the index of the next block the stream expects.
func (s *blockStream) Block() int64 { return s.block }

// Done reports whether every block has been consumed.
func (s *blockStream) Done() bool { return s.block >= s.blocks }

// take validates the pieces offered for the current block and loads them
// into the scratch slice. It returns the block's data length and piece size.
func (s *blockStream) take(shards [][]byte) (blockLen, pieceLen int, err error) {
	if s.Done() {
		return 0, 0, fmt.Errorf("%w: block %d of %d", ErrStreamDone, s.block, s.blocks)
	}
	if len(shards) != s.code.N() {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), s.code.N())
	}
	blockLen = StreamBlockLen(s.dataLen, s.blockSize, s.block)
	pieceLen = s.code.ShardSize(blockLen)
	present := 0
	for i, sh := range shards {
		s.work[i] = sh
		if sh == nil {
			continue
		}
		if len(sh) != pieceLen {
			return 0, 0, fmt.Errorf("%w: block %d shard %d is %d bytes, want %d",
				ErrShardSize, s.block, i, len(sh), pieceLen)
		}
		present++
	}
	if present < s.code.K() {
		return 0, 0, fmt.Errorf("%w: block %d has %d, need %d", ErrTooFewShards, s.block, present, s.code.K())
	}
	return blockLen, pieceLen, nil
}

// StreamDecoder reconstructs an object from any k shard streams one block
// codeword at a time, writing the decoded data to w. It is the push-style
// counterpart of StreamEncoder: the caller feeds each block's available
// shard pieces (nil for missing shards) in block order via NextBlock, and
// memory stays bounded by the block size regardless of the object size —
// the dstore retrieve path feeds it as network chunks assemble.
//
// The pieces passed to NextBlock are never retained: they may be reused by
// the caller as soon as the call returns. When all k data shards of a block
// are present, their bytes are written straight through with no
// reconstruction work at all. Otherwise the missing data is restored by
// replaying the code's cached plan for the block's erasure pattern (one row
// application for Reed-Solomon, an XOR schedule for the array codes) into
// the stream's Scratch, so a warm decoder allocates nothing per block.
type StreamDecoder struct {
	blockStream
	w       io.Writer
	written int64
}

// NewStreamDecoder returns a decoder for an object of dataLen bytes laid out
// at blockSize bytes per codeword, writing decoded data to w. blockSize must
// be positive unless dataLen is 0 (an empty object has no blocks).
func NewStreamDecoder(code Code, w io.Writer, dataLen int64, blockSize int) (*StreamDecoder, error) {
	bs, err := newBlockStream(code, dataLen, blockSize)
	if err != nil {
		return nil, err
	}
	return &StreamDecoder{blockStream: bs, w: w}, nil
}

// Written returns the number of decoded data bytes written so far.
func (d *StreamDecoder) Written() int64 { return d.written }

// SeekBlock positions the decoder at block codeword b, so the next
// NextBlock decodes block b with the correct per-block lengths. Ranged
// retrieves use it to start decoding at the block containing the requested
// offset instead of block 0. Only valid before any block has been decoded.
func (d *StreamDecoder) SeekBlock(b int64) error {
	if d.block != 0 || d.written != 0 {
		return fmt.Errorf("%w: SeekBlock after decoding began", ErrInvalidParams)
	}
	if b < 0 || b > d.blocks {
		return fmt.Errorf("%w: block %d of %d", ErrInvalidParams, b, d.blocks)
	}
	d.block = b
	return nil
}

// NextBlock decodes the next block codeword from the offered shard pieces
// (one entry per shard index, nil for missing, at least K non-nil, each of
// the block's piece size) and writes its data bytes to the writer.
func (d *StreamDecoder) NextBlock(shards [][]byte) error {
	blockLen, pieceLen, err := d.take(shards)
	if err != nil {
		return err
	}
	if err := d.decode(blockLen, pieceLen); err != nil {
		return fmt.Errorf("ecc: stream block %d: %w", d.block, err)
	}
	d.written += int64(blockLen)
	d.block++
	return nil
}

// decode writes the data bytes of the block take loaded.
func (d *StreamDecoder) decode(blockLen, pieceLen int) error {
	if !d.contig {
		// Scattered layout (XOR array codes): gather the block's message out
		// of the shard cells. On the plan-cached path present data cells are
		// strided copies into the scratch's block buffer, and missing ones
		// replay the cached XOR schedule for this erasure pattern directly
		// into place (no whole-column reconstruction, no parity recompute).
		// Unknown scattered codes fall back to their own Decode, whose
		// per-block allocation is bounded by the block size and short-lived.
		if d.arr == nil {
			buf, err := d.code.Decode(d.work, blockLen)
			if err != nil {
				return err
			}
			_, err = d.w.Write(buf)
			return err
		}
		sc := d.scratch()
		buf := sc.blockBuf(blockLen)
		if err := d.arr.decodeInto(buf, d.work, pieceLen/d.arr.rows, sc); err != nil {
			return err
		}
		_, err := d.w.Write(buf)
		return err
	}
	// Contiguous layout: reconstruct only if a data shard is missing (a pure
	// parity erasure costs nothing on the read path), then write the data
	// shards straight through, truncating the padded tail.
	k := d.code.K()
	if slices.ContainsFunc(d.work[:k], func(p []byte) bool { return p == nil }) {
		var err error
		if d.rs != nil {
			err = d.rs.fill(d.work, fillData, false, d.scratch())
		} else {
			err = reconstructData(d.code, d.work)
		}
		if err != nil {
			return err
		}
	}
	for i := 0; i < k && i*pieceLen < blockLen; i++ {
		if _, err := d.w.Write(d.work[i][:min(blockLen-i*pieceLen, pieceLen)]); err != nil {
			return err
		}
	}
	return nil
}

// ShardRebuilder regenerates one shard stream (a replaced node's) from any k
// survivor streams, one block codeword at a time, writing the rebuilt pieces
// to w. It is the hot-swap repair half of the streaming contract: repair
// traffic and memory stay bounded by the block size, so a node holding
// multi-GiB shard streams rebuilds without any participant materialising a
// whole shard. Pieces passed to NextBlock are never retained.
type ShardRebuilder struct {
	blockStream
	target  int
	w       io.Writer
	written int64
}

// NewShardRebuilder returns a rebuilder for shard index target of an object
// of dataLen bytes at blockSize bytes per codeword, writing the rebuilt
// shard stream to w.
func NewShardRebuilder(code Code, target int, w io.Writer, dataLen int64, blockSize int) (*ShardRebuilder, error) {
	if target < 0 || target >= code.N() {
		return nil, fmt.Errorf("%w: rebuild target %d of %d shards", ErrInvalidParams, target, code.N())
	}
	bs, err := newBlockStream(code, dataLen, blockSize)
	if err != nil {
		return nil, err
	}
	return &ShardRebuilder{blockStream: bs, target: target, w: w}, nil
}

// Written returns the number of rebuilt shard bytes written so far.
func (r *ShardRebuilder) Written() int64 { return r.written }

// NextBlock reconstructs the target shard's piece of the next block codeword
// from the offered survivor pieces and writes it to the writer. Any piece
// offered at the target index is ignored and regenerated.
func (r *ShardRebuilder) NextBlock(shards [][]byte) error {
	_, pieceLen, err := r.take(shards)
	if err != nil {
		return err
	}
	r.work[r.target] = nil
	// Plan-cached paths restore into the stream's Scratch: the array codes
	// replay the cached schedule for the missing columns (the target plus
	// any absent survivors), and Reed-Solomon applies only the target's row.
	// Allocation-free per block; the restored piece lives only until the
	// write below returns.
	switch {
	case r.arr != nil:
		err = r.arr.planReconstruct(r.work, pieceLen/r.arr.rows, false, false, r.scratch())
	case r.rs != nil:
		err = r.rs.fill(r.work, r.target, false, r.scratch())
	case r.target < r.code.K():
		err = reconstructData(r.code, r.work)
	default:
		err = r.code.Reconstruct(r.work)
	}
	if err != nil {
		return fmt.Errorf("ecc: rebuild block %d: %w", r.block, err)
	}
	if _, err := r.w.Write(r.work[r.target][:pieceLen]); err != nil {
		return fmt.Errorf("ecc: rebuild block %d: %w", r.block, err)
	}
	r.written += int64(pieceLen)
	r.block++
	return nil
}

// readBlocks drives a per-block consumer from shard-stream readers: for each
// block it reads every available stream's piece into reused buffers and
// hands them to fn. readers has one entry per shard index; nil entries are
// missing streams.
func readBlocks(code Code, readers []io.Reader, dataLen int64, blockSize int,
	blocks int64, fn func(shards [][]byte) error) error {
	if len(readers) != code.N() {
		return fmt.Errorf("%w: %d readers for an n=%d code", ErrShardCount, len(readers), code.N())
	}
	shards := make([][]byte, code.N())
	bufs := make([][]byte, code.N())
	maxPiece := code.ShardSize(blockSize)
	for i, r := range readers {
		if r != nil {
			bufs[i] = make([]byte, maxPiece)
		}
	}
	for b := int64(0); b < blocks; b++ {
		pieceLen := code.ShardSize(StreamBlockLen(dataLen, blockSize, b))
		for i, r := range readers {
			if r == nil {
				shards[i] = nil
				continue
			}
			if _, err := io.ReadFull(r, bufs[i][:pieceLen]); err != nil {
				return fmt.Errorf("ecc: shard stream %d block %d: %w", i, b, err)
			}
			shards[i] = bufs[i][:pieceLen]
		}
		if err := fn(shards); err != nil {
			return err
		}
	}
	return nil
}

// DecodeStreams reconstructs an object of dataLen bytes from its shard
// streams, writing decoded data to w with memory bounded by the block size.
// readers has one entry per shard index; nil entries are missing shards, and
// at least K streams must be present. It returns the number of data bytes
// written. The pull-style companion of StreamDecoder.
func DecodeStreams(code Code, w io.Writer, readers []io.Reader, dataLen int64, blockSize int) (int64, error) {
	dec, err := NewStreamDecoder(code, w, dataLen, blockSize)
	if err != nil {
		return 0, err
	}
	if err := readBlocks(code, readers, dataLen, blockSize, dec.Blocks(), dec.NextBlock); err != nil {
		return dec.Written(), err
	}
	return dec.Written(), nil
}

// RebuildStream regenerates shard stream `target` from k survivor streams,
// writing it to w block by block with memory bounded by the block size — the
// hot-swap repair operation run as a stream. readers has one entry per shard
// index; the target entry must be nil. It returns the number of shard bytes
// written.
func RebuildStream(code Code, target int, w io.Writer, readers []io.Reader, dataLen int64, blockSize int) (int64, error) {
	rb, err := NewShardRebuilder(code, target, w, dataLen, blockSize)
	if err != nil {
		return 0, err
	}
	if target < len(readers) && readers[target] != nil {
		return 0, fmt.Errorf("%w: rebuild target %d offered as a survivor stream", ErrInvalidParams, target)
	}
	if err := readBlocks(code, readers, dataLen, blockSize, rb.Blocks(), rb.NextBlock); err != nil {
		return rb.Written(), err
	}
	return rb.Written(), nil
}
