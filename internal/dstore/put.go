package dstore

// The put half of the client: shard transfers and the one store operation,
// PutFeed, with its two drivers (PutAsync for a whole buffer, PutStreamAsync
// for an io.Reader).

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"

	"rain/internal/ecc"
	"rain/internal/netbuf"
	"rain/internal/sim"
	"rain/internal/storage"
	"rain/internal/telemetry"
)

// ---- shard transfers (the put direction) ----

// transfer streams one shard stream to one daemon: a windowed sequence of
// PutChunk datagrams, resolved by the daemon's cumulative acks or by a stall
// timeout. The source feeds it incrementally with offer; backlog exposes the
// un-acked/un-sent byte count so feeders (the streaming encoder, the block
// rebuilder) can stop producing when the peer lags — that backpressure is
// what bounds put-side memory.
type transfer struct {
	c    *Client
	peer string
	req  uint64
	// info is what the daemon records: the shard index, the layout and —
	// on the commit chunk only, so a put feed may set it last — the digest.
	info     storage.ObjectInfo
	shardLen int64      // total stream length, declared up front
	queue    []putChunk // marshaled, not-yet-sent chunks
	queued   int64      // total unsent payload bytes across queue
	next     int64      // next stream offset to send
	acked    int64
	progress sim.Time  // virtual time of last ack progress
	stall    sim.Timer // the armed stall check, stopped at resolve
	resolved bool
	onAck    func() // feeder backpressure hook, fired on ack progress
	onDone   func(ok bool)
}

// putChunk is one fully marshaled, not-yet-sent chunk of a put transfer: the
// wire bytes live in a pooled frame built at offer time, so sending is a
// reference handoff.
type putChunk struct {
	f *netbuf.Frame
	n int64 // payload bytes
}

// startTransfer begins a transfer of the shard stream info describes to
// peer; onDone fires exactly once. The caller feeds bytes with offer (an
// empty stream needs no offers and commits on an initial empty chunk).
func (c *Client) startTransfer(peer string, info storage.ObjectInfo, onDone func(ok bool)) *transfer {
	c.nextReq++
	t := &transfer{
		c:        c,
		peer:     peer,
		req:      c.nextReq,
		info:     info,
		shardLen: int64(info.ShardLen),
		progress: c.s.Now(),
		onDone:   onDone,
	}
	c.pending[t.req] = t.onAckMsg
	if t.shardLen == 0 {
		c.send(peer, t.chunkHdr(0, 0)) // metadata-only commit
	}
	t.watch()
	return t
}

// chunkHdr builds the header of the n-byte put chunk at stream offset off;
// the chunk that completes the stream commits it and carries the digest. Win
// carries the client's send window so the daemon can coalesce its acks.
func (t *transfer) chunkHdr(off int64, n int) Msg {
	m := Msg{
		Kind:     KindPutChunk,
		Req:      t.req,
		ID:       t.info.ID,
		Shard:    int32(t.info.Shard),
		Win:      int32(t.c.cfg.Window),
		Off:      off,
		ShardLen: t.shardLen,
		DataLen:  int64(t.info.DataLen),
		BlockLen: int64(t.info.BlockLen),
	}
	if off+int64(n) >= t.shardLen {
		m.Digest = t.info.Digest
	}
	return m
}

// offer appends bytes to the outgoing stream. The bytes are marshaled into
// chunk-sized pooled frames immediately — the put path's single payload copy
// — so the caller may reuse p (the streaming encoder's block buffers).
func (t *transfer) offer(p []byte) {
	if t.resolved || len(p) == 0 {
		return
	}
	chunk := t.c.cfg.ChunkSize
	for off := 0; off < len(p); off += chunk {
		n := len(p) - off
		if n > chunk {
			n = chunk
		}
		f, data := NewMsgFrame(t.chunkHdr(t.next+t.queued, n), n)
		copy(data, p[off:off+n])
		t.queue = append(t.queue, putChunk{f: f, n: int64(n)})
		t.queued += int64(n)
	}
	t.pump()
}

// backlog reports bytes offered but not yet acked by the daemon.
func (t *transfer) backlog() int64 { return t.queued + (t.next - t.acked) }

// pump hands marshaled chunks to the mesh while the in-flight window has
// room.
func (t *transfer) pump() {
	window := int64(t.c.cfg.Window) * int64(t.c.cfg.ChunkSize)
	if !t.owed() {
		// The peer's turn begins no earlier than this send: restart the stall
		// clock, or a transfer long held up by its feeder would look stalled
		// the moment it is owed an ack.
		t.progress = t.c.s.Now()
	}
	for len(t.queue) > 0 && t.next-t.acked+t.queue[0].n <= window {
		pc := t.queue[0]
		t.queue[0] = putChunk{}
		t.queue = t.queue[1:]
		t.queued -= pc.n
		t.next += pc.n
		t.c.mesh.SendFrame(t.c.node, t.peer, ServiceDaemon, pc.f)
	}
}

// owed reports whether the daemon owes this transfer an ack. It coalesces
// its acks to one per Window/2 chunks, so with fewer than that many chunks'
// worth of bytes outstanding it may rightly stay silent until more arrive —
// except at the end of the stream, which it always acks.
func (t *transfer) owed() bool {
	out := t.next - t.acked
	return out > 0 && (t.next >= t.shardLen || out >= int64(t.c.cfg.Window/2)*int64(t.c.cfg.ChunkSize))
}

// watch re-arms the stall timer until the transfer resolves. Only a
// transfer the daemon owes an ack can stall: otherwise (everything offered
// so far is acked, or too little is outstanding for a coalesced ack) it is
// waiting on its feeder, not its peer — the operation deadline covers a
// feeder that never delivers.
func (t *transfer) watch() {
	t.stall = t.c.s.After(t.c.cfg.ReqTimeout, func() {
		if t.resolved {
			return
		}
		if t.owed() && t.c.s.Now()-t.progress >= sim.Time(t.c.cfg.ReqTimeout) {
			t.resolve(false)
			return
		}
		t.watch()
	})
}

func (t *transfer) onAckMsg(m Msg) {
	if t.resolved {
		return
	}
	if m.Err != "" {
		t.resolve(false)
		return
	}
	if m.Off > t.acked {
		t.acked = m.Off
		t.progress = t.c.s.Now()
	}
	if t.acked >= t.shardLen {
		t.resolve(true)
		return
	}
	t.pump()
	if t.onAck != nil {
		t.onAck()
	}
}

func (t *transfer) resolve(ok bool) {
	if t.resolved {
		return
	}
	t.resolved = true
	t.stall.Stop()
	for i := range t.queue {
		t.queue[i].f.Release()
		t.queue[i] = putChunk{}
	}
	t.queue = nil
	t.queued = 0
	delete(t.c.pending, t.req)
	if !ok && t.next > 0 && t.acked < t.shardLen {
		// The daemon holds a staged partial write that will now never
		// complete. A chunk at offset -1 can never match the stage length, so
		// the daemon aborts the stage at once instead of leaking it until the
		// orphan sweep. (Its error reply is ignored; the handler is gone.)
		t.c.send(t.peer, Msg{Kind: KindPutChunk, Req: t.req, ID: t.info.ID, Off: -1, ShardLen: t.shardLen})
	}
	// Both hooks fire for the last time here; dropping them lets go of the
	// feeder (a PutFeed, a rebuild's decode) even while the transfer itself
	// stays reachable from its operation.
	onDone, onAck := t.onDone, t.onAck
	t.onDone, t.onAck = nil, nil
	onDone(ok)
	if onAck != nil {
		onAck() // unblock a feeder waiting on this transfer
	}
}

// ---- store ----

// putOp tracks a PutFeed's shard fan-out.
type putOp struct {
	c          *Client
	id         string
	peers      []string // the object's placement, shard i on peers[i]
	dataLen    int64
	transfers  []*transfer // nil entries: peer was dead at start
	unresolved int
	stored     int
	finished   bool
	done       func(stored int, err error)
	deadline   sim.Timer // OpTimeout, stopped at finish
	began      sim.Time
	trace      *telemetry.Trace
}

func (c *Client) newPutOp(id string, dataLen int64, done func(int, error)) *putOp {
	return &putOp{c: c, id: id, peers: c.peersFor(id), dataLen: dataLen, done: done,
		began: c.s.Now(), trace: c.trace("put", id)}
}

func (op *putOp) finish(err error) {
	if op.finished {
		return
	}
	op.finished = true
	op.deadline.Stop()
	k := op.c.cfg.Code.K()
	if err == nil && op.stored < k {
		err = fmt.Errorf("%w: stored %d of required %d", ErrNotEnoughDaemons, op.stored, k)
	}
	if err == nil {
		op.c.met.putLatency.Observe(int64(op.c.s.Now() - op.began))
		op.c.met.putBytes.Add(op.dataLen)
	}
	op.trace.Finish(op.c.nowNS(), err)
	for _, t := range op.transfers {
		if t != nil {
			t.resolve(t.acked >= t.shardLen)
		}
	}
	done := op.done
	op.done = nil
	done(op.stored, err)
}

func (op *putOp) resolveOne(ok bool) {
	if ok {
		op.stored++
		if op.stored == op.c.cfg.Code.K() && !op.finished {
			op.c.met.quorumWait.Observe(int64(op.c.s.Now() - op.began))
			op.trace.Event(op.c.nowNS(), "quorum", "", int64(op.stored))
		}
	}
	op.unresolved--
	if op.unresolved == 0 && !op.finished {
		op.finish(nil)
	}
}

// start opens one transfer per placement holder (dead peers resolve
// immediately), shard i of the layout info describes to peers[i], and arms
// the operation deadline.
func (op *putOp) start(info storage.ObjectInfo) {
	n := op.c.cfg.Code.N()
	op.transfers = make([]*transfer, n)
	op.unresolved = n
	for i := 0; i < n; i++ {
		peer := op.peers[i]
		if !op.c.alive(peer) {
			op.resolveOne(false)
			continue
		}
		op.trace.Event(op.c.nowNS(), "shard_fanout", peer, int64(i))
		info.Shard = i
		op.transfers[i] = op.c.startTransfer(peer, info, op.resolveOne)
	}
	if op.unresolved > 0 {
		op.deadline = op.c.s.After(op.c.cfg.OpTimeout, func() { op.finish(nil) })
	}
}

// PutAsync stores data through a PutFeed — one Offer, then Close with the
// buffer's SHA-256 — so a whole-buffer put writes the same block-codeword
// layout as a streamed one.
// done fires once with the number of shards stored; err is nil when at least
// k daemons committed. The feed copies data, so the caller may reuse it once
// PutAsync returns. The returned handle cancels the fan-out (staged daemon
// writes are poisoned, not leaked).
func (c *Client) PutAsync(id string, data []byte, done func(stored int, err error)) *Handle {
	f, err := c.NewPutFeed(id, int64(len(data)), done)
	if err != nil {
		done(0, err)
		return &Handle{}
	}
	f.Offer(data)
	f.Close(sha256.Sum256(data))
	return &Handle{cancel: f.Cancel}
}

// ---- the feed ----

// PutFeed is the one encoder on the write path: the producer delivers the
// object's bytes with Offer as they arrive (an HTTP request body, a pipe, a
// whole buffer) and each block codeword is encoded and fanned out once it is
// whole. Offer reports whether the producer should keep sending and OnRoom
// signals, once per false answer, when that paused producer may resume, so
// a slow network source never wedges the single-threaded event loop;
// PutStreamAsync is the pull driver that turns an io.Reader into that loop.
// Memory is one block for a producer that honours Offer's answer: more bytes
// are asked for only while less than a block is buffered, no block is
// encoded while a live transfer's backlog is above the credit window, and
// the consumed prefix is reclaimed before the buffer grows (appendReclaim),
// so a put holds O(BlockSize × n) whatever the object's size.
//
// The block that completes the stream is encoded only at Close, once the
// producer has shown it has nothing more: an over-long producer fails with
// ErrLongSource while every daemon still lacks the final piece of its shard
// stream, so none can commit and the abort poison discards every stage. The
// producer hashes the bytes where it reads them and hands the digest to
// Close; it rides on each stream's final (commit) chunk.
//
// All methods must run on the client's scheduler goroutine; real nodes post
// them through their loop.
type PutFeed struct {
	c         *Client
	op        *putOp
	pipe      []byte // buffered, not-yet-encoded bytes are pipe[off:]
	off       int
	dataLen   int64
	offered   int64
	blocks    int64
	nextBlk   int64
	closed    bool
	waiting   bool // Offer answered false and OnRoom has not fired since
	onRoom    func()
	highWater int64
}

// NewPutFeed opens a streaming put of exactly dataLen bytes. done fires once
// with the number of shards stored; err is nil when at least k daemons
// committed.
func (c *Client) NewPutFeed(id string, dataLen int64, done func(stored int, err error)) (*PutFeed, error) {
	if err := checkLen(dataLen); err != nil {
		return nil, err
	}
	f := &PutFeed{
		c:         c,
		pipe:      c.getPipe(),
		dataLen:   dataLen,
		blocks:    ecc.StreamBlocks(dataLen, c.cfg.BlockSize),
		highWater: int64(c.cfg.Window) * int64(c.cfg.ChunkSize),
	}
	f.op = c.newPutOp(id, dataLen, func(stored int, err error) {
		// Resolved: nothing is encoded again, so the pipe goes back to the
		// client and the producer's resume hook (a pull driver's reader) is
		// dropped now, not when the producer lets go. The transfers' last
		// acks have already woken a paused producer.
		c.putPipe(f.pipe)
		f.pipe, f.off, f.onRoom = nil, 0, nil
		done(stored, err)
	})
	if dataLen > 0 {
		f.start(storage.Digest{}) // Close supplies the digest before the commit chunks
	}
	return f, nil
}

// bufHint is the size a pipe grows to: one block, or the whole object when
// it is shorter (a 4 KiB put needs a 4 KiB pipe, not a whole block).
func (f *PutFeed) bufHint() int {
	if f.dataLen > 0 && f.dataLen < int64(f.c.cfg.BlockSize) {
		return int(f.dataLen)
	}
	return f.c.cfg.BlockSize
}

// start opens the shard transfers. An empty object's transfers commit the
// moment they open (a metadata-only chunk), so its feed opens them at Close.
func (f *PutFeed) start(digest storage.Digest) {
	bs := f.c.cfg.BlockSize
	f.op.start(storage.ObjectInfo{ID: f.op.id, DataLen: int(f.dataLen), BlockLen: bs, Digest: digest,
		ShardLen: int(ecc.StreamShardLen(f.c.cfg.Code, f.dataLen, bs))})
	for _, t := range f.op.transfers {
		if t != nil {
			t.onAck = f.pump
		}
	}
}

// room reports whether the producer should keep going: less than a block is
// buffered, or every declared byte is in and only Close remains.
func (f *PutFeed) room() bool {
	return f.offered == f.dataLen || len(f.pipe)-f.off < f.c.cfg.BlockSize
}

// pump encodes and fans out as many fully-buffered blocks as the transfers'
// credit windows allow — the final block only once the feed is closed — then
// wakes the paused producer if there is room (or the put has resolved and
// waiting is pointless). A producer that was not told to pause is not woken:
// a wake-up it did not wait for would let it offer past the one-block bound.
func (f *PutFeed) pump() {
	op := f.op
	for !op.finished && f.nextBlk < f.blocks && (f.closed || f.nextBlk < f.blocks-1) {
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
		shards, err := f.c.encodeBlock(f.pipe[f.off : f.off+need])
		if err != nil {
			op.finish(fmt.Errorf("dstore: encoding block %d: %w", f.nextBlk, err))
			break
		}
		f.off += need
		f.nextBlk++
		for i, t := range op.transfers {
			if t != nil && !t.resolved {
				// The shards are the client's scratch (or alias the pipe);
				// offer copies each piece into the transfer queue's pooled
				// frames before the next block, or another feed, reuses them.
				t.offer(shards[i])
			}
		}
	}
	if f.waiting && f.onRoom != nil && (op.finished || f.room()) {
		f.waiting = false
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
	f.waiting = false
	f.offered += int64(len(p))
	had := cap(f.pipe)
	f.pipe, f.off = appendReclaim(f.pipe, f.off, p, f.bufHint())
	if cap(f.pipe) != had {
		f.c.met.pipesFresh.Inc()
	}
	f.pump()
	f.waiting = !f.op.finished && !f.room()
	return !f.waiting
}

// Close marks the stream complete: every declared byte must have been
// offered, or the put fails with ErrShortSource. digest is the SHA-256 of
// those bytes, recorded beside every shard. The final block is encoded now,
// and the put resolves once the daemons ack the fanned-out shards.
func (f *PutFeed) Close(digest storage.Digest) {
	if f.closed || f.op.finished {
		return
	}
	f.closed = true
	if f.offered != f.dataLen {
		f.op.finish(fmt.Errorf("%w: fed %d of %d bytes", ErrShortSource, f.offered, f.dataLen))
		return
	}
	if f.dataLen == 0 {
		f.start(digest)
	}
	for _, t := range f.op.transfers {
		if t != nil {
			t.info.Digest = digest // no commit chunk is marshaled before the final block
		}
	}
	f.pump()
}

// checkLen rejects a negative declared object length.
func checkLen(dataLen int64) error {
	if dataLen < 0 {
		return fmt.Errorf("dstore: negative object length %d", dataLen)
	}
	return nil
}

// maxPipes caps the client's recycle list of put-feed pipes.
const maxPipes = 16

// getPipe takes a recycled put-feed pipe, or nil for a fresh start; the feed
// grows it by appendReclaim.
func (c *Client) getPipe() []byte {
	if n := len(c.pipes); n > 0 {
		b := c.pipes[n-1]
		c.pipes[n-1] = nil
		c.pipes = c.pipes[:n-1]
		return b[:0]
	}
	return nil
}

// putPipe returns a resolved feed's pipe to the recycle list. Only pipes of
// at most one block are kept, so a reused pipe never exceeds a feed's
// one-block-plus-an-offer bound.
func (c *Client) putPipe(b []byte) {
	if cap(b) > 0 && cap(b) <= c.cfg.BlockSize && len(c.pipes) < maxPipes {
		c.pipes = append(c.pipes, b)
	}
}

// encodeBlock encodes one block codeword into the client's shard scratch,
// one buffer set reused by every put feed (codes without BufferEncoder fall
// back to Code.Encode, whose data shards may alias blk). The shards are
// valid until the next call: the loop is single-threaded and a feed's
// transfers copy them into frames before pump returns.
func (c *Client) encodeBlock(blk []byte) ([][]byte, error) {
	into, ok := c.cfg.Code.(ecc.BufferEncoder)
	if !ok {
		return c.cfg.Code.Encode(blk)
	}
	if c.encBufs == nil {
		// Sized for a full block; a short block only shrinks the shard size.
		size := c.cfg.Code.ShardSize(c.cfg.BlockSize)
		backing := make([]byte, c.cfg.Code.N()*size)
		c.encBufs = make([][]byte, c.cfg.Code.N())
		c.encShards = make([][]byte, c.cfg.Code.N())
		for i := range c.encBufs {
			c.encBufs[i] = backing[i*size : (i+1)*size : (i+1)*size]
		}
	}
	size := c.cfg.Code.ShardSize(len(blk))
	for i := range c.encShards {
		c.encShards[i] = c.encBufs[i][:size]
	}
	return c.encShards, into.EncodeInto(blk, c.encShards)
}

// sum is h's digest.
func sum(h hash.Hash) (d storage.Digest) {
	h.Sum(d[:0])
	return d
}

// Cancel aborts the put: done reports ErrCanceled and staged daemon writes
// are poisoned, not leaked.
func (f *PutFeed) Cancel() { f.op.finish(ErrCanceled) }

// OnRoom registers the resume hook, fired on the scheduler goroutine once
// after each Offer that answered false, when that producer may offer again —
// or when the put resolves, so a waiting producer never hangs on a failed
// put.
func (f *PutFeed) OnRoom(fn func()) { f.onRoom = fn }

// PutStreamAsync stores exactly dataLen bytes read from r through the block
// codeword streaming layout: a pull driver over a PutFeed that reads up to a
// block at a time on the scheduler goroutine, offers it, parks while the
// credit windows are full, and closes the feed at EOF. It never reads more
// than one byte past dataLen; that byte is the probe that fails an
// over-long source with ErrLongSource before the final block is sent. The
// returned handle cancels the fan-out mid-stream.
func (c *Client) PutStreamAsync(id string, r io.Reader, dataLen int64, done func(stored int, err error)) *Handle {
	f, err := c.NewPutFeed(id, dataLen, done)
	if err != nil {
		done(0, err)
		return &Handle{}
	}
	buf := make([]byte, min(int64(c.cfg.BlockSize), dataLen+1))
	h := sha256.New()
	pull := func() {
		for !f.op.finished && !f.closed {
			n, rerr := r.Read(buf[:min(int64(len(buf)), dataLen-f.offered+1)])
			h.Write(buf[:n])
			room := n == 0 || f.Offer(buf[:n])
			switch {
			case rerr == io.EOF:
				f.Close(sum(h))
			case rerr != nil:
				f.op.finish(fmt.Errorf("dstore: reading put source: %w", rerr))
			case !room:
				return
			}
		}
	}
	f.OnRoom(pull)
	pull()
	return &Handle{cancel: f.Cancel}
}
