package dstore

import (
	"fmt"
	"io"

	"rain/internal/ecc"
)

// PutFeed is the push-mode streaming put: the producer delivers the
// object's bytes with Offer as they arrive (an HTTP request body, a pipe)
// instead of handing the client a pull io.Reader. PutStreamAsync's encoder
// pulls with blocking reads, which would wedge a single-threaded event loop
// against a slow network source; the feed inverts that — bytes buffer until
// a whole block codeword is present, then encode and fan out, and Offer
// reports whether the window still has room so the producer can pause
// (OnRoom signals when to resume). Backpressure is the same as the pull
// path: no block is encoded while a live transfer's backlog is above the
// credit window, so memory stays O(BlockSize × n).
//
// All methods must run on the client's scheduler goroutine; real nodes post
// them through their loop.
type PutFeed struct {
	c         *Client
	op        *putOp
	enc       *ecc.StreamEncoder
	pipe      []byte // offered, not-yet-encoded bytes; consumed prefix is pipe[off:]
	off       int
	dataLen   int64
	offered   int64
	blocks    int64
	nextBlk   int64
	closed    bool
	onRoom    func()
	highWater int64
}

// feedReader serves the encoder from the feed's pipe. pump only invokes the
// encoder when the whole next block is buffered, so a drained pipe means
// end-of-block (the encoder's ReadFull turns the EOF into the short final
// block), never a premature EOF.
type feedReader struct{ f *PutFeed }

func (r feedReader) Read(p []byte) (int, error) {
	f := r.f
	if f.off == len(f.pipe) {
		return 0, io.EOF
	}
	n := copy(p, f.pipe[f.off:])
	f.off += n
	if f.off == len(f.pipe) {
		f.pipe, f.off = f.pipe[:0], 0
	}
	return n, nil
}

// NewPutFeed opens a push-mode streaming put of exactly dataLen bytes. done
// fires once, as PutStreamAsync's does.
func (c *Client) NewPutFeed(id string, dataLen int64, done func(stored int, err error)) (*PutFeed, error) {
	if dataLen < 0 {
		return nil, fmt.Errorf("dstore: negative object length %d", dataLen)
	}
	code := c.cfg.Code
	blockSize := c.cfg.BlockSize
	f := &PutFeed{
		c:         c,
		dataLen:   dataLen,
		blocks:    ecc.StreamBlocks(dataLen, blockSize),
		highWater: int64(c.cfg.Window) * int64(c.cfg.ChunkSize),
	}
	enc, err := ecc.NewStreamEncoder(code, feedReader{f}, blockSize)
	if err != nil {
		return nil, err
	}
	f.enc = enc
	f.op = c.newPutOp(id, dataLen, done)
	f.op.start(ecc.StreamShardLen(code, dataLen, blockSize), int64(blockSize))
	for _, t := range f.op.transfers {
		if t != nil {
			t.onAck = f.pump
		}
	}
	return f, nil
}

// room reports whether the producer should keep offering: the next block is
// not yet fully buffered, so more bytes are needed before anything can move.
func (f *PutFeed) room() bool {
	return len(f.pipe)-f.off < f.c.cfg.BlockSize
}

// pump encodes and fans out as many fully-buffered blocks as the transfers'
// credit windows allow, then wakes a paused producer if there is room (or
// the put has resolved and waiting is pointless).
func (f *PutFeed) pump() {
	op := f.op
	for !op.finished && f.nextBlk < f.blocks {
		need := ecc.StreamBlockLen(f.dataLen, f.c.cfg.BlockSize, f.nextBlk)
		if len(f.pipe)-f.off < need {
			break
		}
		stalled := false
		for _, t := range op.transfers {
			if t != nil && !t.resolved && t.backlog() >= f.highWater {
				stalled = true
				break
			}
		}
		if stalled {
			f.c.met.creditStalls.Inc()
			break
		}
		shards, _, err := f.enc.Next()
		if err != nil {
			op.finish(err)
			break
		}
		f.nextBlk++
		for i, t := range op.transfers {
			if t != nil && !t.resolved {
				// The encoder reuses its block buffers; each piece is copied
				// into the transfer queue's pooled frames.
				t.offer(shards[i])
			}
		}
	}
	if f.onRoom != nil && (op.finished || f.room()) {
		f.onRoom()
	}
}

// Offer appends p to the feed (the bytes are copied) and reports whether
// the producer should keep sending: false means the pipeline is full — stop
// until OnRoom fires. Offering past the declared length fails the put with
// ErrLongSource; offers after the put resolved are dropped (the producer
// learns the outcome from done either way, so it may simply keep draining
// its source).
func (f *PutFeed) Offer(p []byte) bool {
	if f.op.finished || f.closed {
		return true
	}
	if f.offered+int64(len(p)) > f.dataLen {
		f.op.finish(fmt.Errorf("%w: declared %d bytes", ErrLongSource, f.dataLen))
		return true
	}
	f.offered += int64(len(p))
	f.pipe = append(f.pipe, p...)
	f.pump()
	return f.op.finished || f.room()
}

// Close marks the stream complete: every declared byte must have been
// offered, or the put fails with ErrShortSource. The put resolves once the
// daemons ack the fanned-out shards.
func (f *PutFeed) Close() {
	if f.closed || f.op.finished {
		return
	}
	f.closed = true
	if f.offered != f.dataLen {
		f.op.finish(fmt.Errorf("%w: fed %d of %d bytes", ErrShortSource, f.offered, f.dataLen))
		return
	}
	f.pump()
}

// Cancel aborts the put: done reports ErrCanceled and staged daemon writes
// are poisoned, not leaked.
func (f *PutFeed) Cancel() { f.op.finish(ErrCanceled) }

// OnRoom registers the resume hook, fired on the scheduler goroutine
// whenever a paused producer may offer again — and when the put resolves,
// so a waiting producer never hangs on a failed put.
func (f *PutFeed) OnRoom(fn func()) { f.onRoom = fn }
