package dstore

// The get half of the client: the streaming get op and the retrieve
// frontends (GetRangeAsync, GetStreamAsync, GetAsync). The op is the
// client's one reader: it alone sends KindGetReq, streaming windowed shard
// pieces from daemons into a block sink. A retrieve decodes k pieces per
// block; the shard mover (rebalance.go) reads k per block to rebuild a
// shard, or one per block to copy it.

import (
	"fmt"
	"io"
	"slices"

	"rain/internal/ecc"
	"rain/internal/sim"
	"rain/internal/storage"
	"rain/internal/telemetry"
)

// getStreamBuf takes a recycled receive window, or nil for a fresh start.
func (c *Client) getStreamBuf() []byte {
	if n := len(c.streamBufs); n > 0 {
		b := c.streamBufs[n-1]
		c.streamBufs = c.streamBufs[:n-1]
		return b[:0]
	}
	return nil
}

// putStreamBuf returns a receive window to the recycle list.
func (c *Client) putStreamBuf(b []byte) {
	if cap(b) > 0 && len(c.streamBufs) < 16 {
		c.streamBufs = append(c.streamBufs, b)
	}
}

// getResultBuf takes a recycled assembly buffer, or nil for a fresh start;
// the writer grows it by append.
func (c *Client) getResultBuf() []byte {
	if n := len(c.resultBufs); n > 0 {
		b := c.resultBufs[n-1]
		c.resultBufs = c.resultBufs[:n-1]
		return b[:0]
	}
	return nil
}

// putResultBuf returns an assembly buffer to the recycle list.
func (c *Client) putResultBuf(b []byte) {
	if cap(b) > 0 && len(c.resultBufs) < 4 {
		c.resultBufs = append(c.resultBufs, b)
	}
}

// resultWriter assembles a decoded object in a client-pooled buffer.
type resultWriter struct{ buf []byte }

func (w *resultWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// ---- retrieve / move: windowed shard streams into a block sink ----

// blockSink consumes one block codeword's worth of shard pieces at a time:
// ecc.StreamDecoder on retrieves, ecc.ShardRebuilder on rebuilds, a
// sinkFunc that writes the one piece through on copies.
type blockSink interface {
	NextBlock(shards [][]byte) error
}

// sinkFunc adapts a function to blockSink.
type sinkFunc func(shards [][]byte) error

func (f sinkFunc) NextBlock(shards [][]byte) error { return f(shards) }

// objMeta is the layout and digest of one stored object version, learned
// from the first get chunk (retrieves) or the survivor inventory (rebuilds).
// Every stream of an operation must report the same one.
type objMeta struct {
	shardLen int64
	dataLen  int64
	blockLen int64 // block-codeword size, at least 1
	digest   storage.Digest
}

// chunkMeta is the object version a stream's first get chunk reports.
func chunkMeta(m Msg) objMeta { return objMeta{m.ShardLen, m.DataLen, m.BlockLen, m.Digest} }

// infoMeta is the object version an inventory entry describes.
func infoMeta(in storage.ObjectInfo) objMeta {
	return objMeta{int64(in.ShardLen), int64(in.DataLen), int64(in.BlockLen), in.Digest}
}

// shardStream is one windowed shard read within a streamGetOp. peerIdx is
// the shard index the stream delivers; it starts as the placement's
// expectation for peer and is re-pointed at the daemon's recorded index if
// the first chunk reports a different one (a not-yet-rebalanced entry).
type shardStream struct {
	peer      string // daemon node serving the stream
	peerIdx   int
	ver       objMeta // the version the stream's first chunk reported
	req       uint64
	pos       int64  // stream offset of the first unconsumed byte
	buf       []byte // receive window; unconsumed bytes are buf[off:]
	off       int    // consumed prefix of buf
	lastAck   int64
	progress  sim.Time // virtual time of the last chunk received
	confirmed bool     // a chunk arrived: peerIdx is the daemon's real index, ver is set
	complete  bool     // delivered and fully consumed by the decoder
	dead      bool     // the daemon answered with an error
	hedged    bool     // a spare was already issued on this stream's behalf
	spare     bool     // this stream itself was issued beyond the first need
	credited  bool     // the stream's bytes have fed a decode (hedge won)
}

// bytes returns the buffered, not-yet-consumed bytes.
func (st *shardStream) bytes() []byte { return st.buf[st.off:] }

// size returns the buffered, not-yet-consumed byte count.
func (st *shardStream) size() int64 { return int64(len(st.buf) - st.off) }

// appendReclaim appends p to a stream buffer whose unconsumed bytes are
// buf[off:] — the one rule both directions' stream buffers follow (a get's
// shardStream, a put's PutFeed). Consuming is an O(1) offset bump; the
// consumed prefix is reclaimed, the tail moved to the front, only when p
// would not otherwise fit; and a buffer that must still grow grows to what
// it holds, but at least to bound bytes, never to a multiple of it. The
// allocation therefore steadies at the flow-control bound instead of growing
// with the stream.
func appendReclaim(buf []byte, off int, p []byte, bound int) ([]byte, int) {
	if off == len(buf) {
		buf, off = buf[:0], 0
	} else if off > 0 && len(buf)+len(p) > cap(buf) {
		n := copy(buf, buf[off:])
		buf, off = buf[:n], 0
	}
	if need := len(buf) + len(p); need > cap(buf) {
		grown := make([]byte, len(buf), max(need, bound))
		copy(grown, buf)
		buf = grown
	}
	return append(buf, p...), off
}

// drop consumes n buffered bytes from the front.
func (st *shardStream) drop(n int64) {
	st.off += int(n)
	st.pos += n
	if st.off == len(st.buf) {
		st.buf, st.off = st.buf[:0], 0
	}
}

// deliveredTo reports whether the stream has received every byte through
// the end of the shard stream (it may still hold bytes the decoder has not
// consumed). Such a stream will never produce another chunk, so it neither
// stalls nor hedges.
func (st *shardStream) deliveredTo(shardLen int64) bool {
	return st.pos+st.size() >= shardLen
}

// streamGetOp drives a block-wise retrieve, rebuild or copy: ranked windowed
// shard streams from need daemons, hedging to spares on stalls or errors,
// each block handed to the sink the moment need pieces of it have assembled.
// Consumed bytes are acked back to the daemons (the per-stream flow
// control), so no participant ever buffers more than a window beyond the
// decode frontier.
type streamGetOp struct {
	c       *Client
	id      string
	peers   []string // shard i is expected on peers[i]; "" = unknown holder; strays follow the first n
	exclude map[int]bool
	need    int // pieces per block: k to decode or rebuild, 1 to copy

	// mkSink builds the block consumer once the object layout is known;
	// ready (nil = always) gates decoding on downstream backpressure. finish
	// drops them, the sink and done: a finished op holds no payload.
	mkSink   func(meta objMeta, dataLen int64) (blockSink, error)
	ready    func() bool
	done     func(meta objMeta, err error)
	deadline sim.Timer // OpTimeout, stopped at finish

	meta     objMeta
	haveMeta bool
	dataLen  int64 // object length, from meta
	sink     blockSink
	blocks   int64
	nextBlk  int64
	consumed int64 // stream offset of the decode frontier

	// Ranged retrieves decode only blocks [startBlk, limitBlk): with a
	// layout hint the shard streams are requested from startBlk's offset
	// (never touching the prefix), and the op finishes — cancelling daemon
	// sessions — once limitBlk is decoded. Without a range, limitBlk is the
	// block count.
	rng      *getRange
	startBlk int64
	limitBlk int64

	// tryDecode's per-block scratch: the pieces offered to the sink and the
	// streams they came from.
	shards [][]byte
	used   []*shardStream

	candidates []int // shard indices to read, best first
	cursor     int
	streams    []*shardStream
	lastErr    string
	notFound   int // dead streams whose daemon answered "object not found"
	deadOther  int // dead streams with any other error
	corrupt    int // dead streams killed by a corruption NAK (subset of deadOther)
	finished   bool
	firstK     bool
	seen       bool // some stream reported a version: the object exists
	spilled    bool // the strays were added to the candidates (a copy starts with it set: it reads its one source only)
	trace      *telemetry.Trace
}

// getRange is the byte range a retrieve is asked for: [off, end), with
// end < 0 meaning through the end of the object. nil means everything.
type getRange struct {
	off int64
	end int64
}

// start launches the state machine over the op's candidates (peers[i] holds
// shard i). If metaHint is non-nil the version is known up front (the
// mover's, from the inventory; ranged gets, from the caller's probe) and
// decoding can begin without waiting for a first chunk. Otherwise the op
// adopts the version once need streams' first chunks agree on it (see
// adopt); either way every stream it decodes from reports that one version.
// rng, when set, bounds decoding to the blocks covering that byte range;
// combined with a metaHint the shard streams start at the range's first
// block, so the prefix never crosses the wire.
func (op *streamGetOp) start(metaHint *objMeta) {
	c := op.c
	if metaHint != nil {
		if err := op.setMeta(*metaHint); err != nil {
			op.finish(err)
			return
		}
		if op.nextBlk >= op.limitBlk {
			op.finish(nil) // empty or past-the-end range: nothing to fetch
			return
		}
	}
	for i := 0; i < op.need && op.cursor < len(op.candidates); i++ {
		op.issueNext()
	}
	op.tryDecode() // zero-block objects finish without any traffic
	op.failIfStuck()
	// The deadline covers stale liveness views: candidates that never
	// answer and never error (crashed peers) are only resolved by time.
	if !op.finished {
		op.deadline = c.s.After(c.cfg.OpTimeout, func() {
			op.finish(fmt.Errorf("%w: %d of %d blocks decoded (%w)", ErrNotEnoughDaemons, op.nextBlk, op.blocks, ErrTimeout))
		})
	}
}

// probe reports whether the op reads no bytes, only the object's version:
// k agreeing first chunks are all it needs.
func (op *streamGetOp) probe() bool { return op.rng != nil && op.rng.end == op.rng.off }

// winChunks is the flow-control window the daemons are asked to keep in
// flight: enough for a whole block piece plus the configured window, so the
// decode frontier always has a full piece arriving behind it.
func (op *streamGetOp) winChunks() int32 {
	if op.probe() {
		return 1 // the layout rides on each stream's first chunk
	}
	chunk := op.c.cfg.ChunkSize
	win := op.c.cfg.Window
	if op.haveMeta {
		piece := op.c.cfg.Code.ShardSize(int(op.meta.blockLen))
		win += (piece + chunk - 1) / chunk
	}
	return int32(win)
}

// setMeta fixes the object layout and builds the sink. Called once need
// streams' first chunks agree on a version (adopt), or up front from a hint.
func (op *streamGetOp) setMeta(meta objMeta) error {
	if meta.dataLen < 0 || meta.blockLen < 1 {
		// Every writer records a block layout, empty objects included; a
		// forged chunk without one must fail the op, not divide by zero.
		return fmt.Errorf("%w: %s (length %d, block %d)", ErrUnknownSize, op.id, meta.dataLen, meta.blockLen)
	}
	op.meta = meta
	op.haveMeta = true
	op.dataLen = meta.dataLen
	op.blocks = ecc.StreamBlocks(op.dataLen, int(meta.blockLen))
	op.limitBlk = op.blocks
	if op.rng != nil {
		bs := meta.blockLen
		if len(op.streams) == 0 && op.rng.off > 0 {
			// Layout known before any stream was issued: start the streams
			// (and the decode frontier) at the range's first block. Once
			// streams are in flight at offset 0 skipping is no longer safe —
			// the un-hinted path decodes from the front and trims instead.
			op.startBlk = op.rng.off / bs
			if op.startBlk > op.blocks {
				op.startBlk = op.blocks
			}
			op.nextBlk = op.startBlk
			op.consumed = ecc.StreamShardOff(op.c.cfg.Code, int(bs), op.startBlk)
		}
		end := op.dataLen
		if op.rng.end >= 0 && op.rng.end < end {
			end = op.rng.end
		}
		op.limitBlk = (end + bs - 1) / bs
		if op.limitBlk > op.blocks {
			op.limitBlk = op.blocks
		}
		if op.limitBlk < op.nextBlk {
			op.limitBlk = op.nextBlk
		}
	}
	sink, err := op.mkSink(op.meta, op.dataLen)
	if err != nil {
		return err
	}
	op.sink = sink
	return nil
}

// issueNext sends a windowed GetReq to the next unused candidate, starting
// at the current decode frontier (spares never re-fetch decoded blocks).
func (op *streamGetOp) issueNext() {
	if op.finished || op.cursor >= len(op.candidates) {
		return
	}
	idx := op.candidates[op.cursor]
	op.cursor++
	peer := op.peers[idx]
	op.c.loads[peer]++
	op.c.nextReq++
	st := &shardStream{peer: peer, peerIdx: idx, req: op.c.nextReq, pos: op.consumed, lastAck: op.consumed, progress: op.c.s.Now(), buf: op.c.getStreamBuf(),
		spare: len(op.streams) >= op.need}
	op.trace.Event(op.c.nowNS(), "shard_fanout", peer, int64(idx))
	op.streams = append(op.streams, st)
	op.c.pending[st.req] = func(m Msg) { op.onChunk(st, m) }
	op.c.send(peer, Msg{Kind: KindGetReq, Req: st.req, ID: op.id, Off: op.consumed, Win: op.winChunks()})
	op.watch(st)
}

// watch re-arms a stall timer on the stream: a hedge fires only when no
// chunk has arrived for ReqTimeout (a slow-but-flowing stream is left
// alone), and at most once per stream. The stalled request itself stays
// outstanding in case its chunks straggle in later.
func (op *streamGetOp) watch(st *shardStream) {
	op.c.s.After(op.c.cfg.ReqTimeout, func() {
		if op.finished || st.complete || st.dead || st.hedged {
			return
		}
		if op.haveMeta && st.deliveredTo(op.meta.shardLen) {
			return // fully delivered; the decoder is waiting on other streams
		}
		if !op.haveMeta && st.confirmed {
			op.watch(st) // reported its version; waiting on the other holders to agree
			return
		}
		if op.c.s.Now()-st.progress >= sim.Time(op.c.cfg.ReqTimeout) {
			if !op.c.alive(st.peer) {
				// The view dropped the peer after the stream was issued: it
				// will not deliver, so it is a failed holder, not an
				// outstanding one, and the op need not wait out its deadline.
				st.dead = true
				op.deadOther++
				delete(op.c.pending, st.req)
			}
			op.hedge(st)
			op.failIfStuck()
			return
		}
		op.watch(st)
	})
}

// hedge issues a spare stream on st's behalf (stall, error or duplicate
// index). The hedge only counts as fired when a spare candidate actually
// exists to issue.
func (op *streamGetOp) hedge(st *shardStream) {
	st.hedged = true
	if !op.finished && op.cursor < len(op.candidates) {
		op.c.met.hedgesFired.Inc()
		op.trace.Event(op.c.nowNS(), "hedge_fire", st.peer, int64(st.peerIdx))
	}
	op.issueNext()
}

// failIfStuck keeps need streams able to serve the version alive while spare
// candidates remain (the strays too, once a holder has shown the object
// exists: see spill), and fails the op early once none remain and either
// fewer than need such streams are alive or no live stream can still deliver
// bytes — e.g. every daemon answered "object not found", or too many holders
// serve another version — instead of waiting out the deadline.
func (op *streamGetOp) failIfStuck() {
	if op.finished {
		return
	}
	need := op.need
	live, open := op.viable()
	for ; live < need && (op.cursor < len(op.candidates) || op.spill()); live++ {
		op.issueNext() // e.g. a holder reported a version the others outvote
	}
	if op.cursor < len(op.candidates) {
		return
	}
	if live < need && open > 0 && !op.spilled && len(op.strays()) > 0 {
		return // a stream yet to report may show the object exists, making the strays worth asking
	}
	// Fewer live streams than a block needs can never assemble it, whatever
	// they still deliver (a stream waiting on credit the decode cannot give
	// would otherwise hold the op until its deadline).
	if live >= need {
		if op.ready != nil && !op.ready() {
			return // decode is paused on downstream backpressure, not starved
		}
		for _, st := range op.streams {
			if st.dead || st.complete {
				continue
			}
			if !op.haveMeta || !st.deliveredTo(op.meta.shardLen) {
				return // still in flight (possibly stalled; the deadline rules)
			}
			// Fully delivered but unconsumed: this stream can make no
			// further progress on its own.
		}
	}
	if op.notFound > 0 && op.deadOther == 0 && !op.firstK {
		// Every daemon that answered said it has no shard, nothing was ever
		// decoded: the object does not exist (vs. a quorum problem, where
		// holders are down or erroring and a retry later could succeed).
		op.finish(fmt.Errorf("%w: %s", ErrNotFound, op.id))
		return
	}
	if op.corrupt > 0 {
		// At least one holder NAKed with verified corruption and the read
		// still could not assemble k pieces: the object exists but is
		// unreadable right now. Name it — the gateway's 502 body carries
		// this text to the caller — and distinguish it from a plain quorum
		// failure, which a retry against healthy holders could fix.
		op.finish(fmt.Errorf("%w: %s (%d corrupt, %d failed, %d of %d blocks)",
			ErrCorrupt, op.id, op.corrupt, op.deadOther, op.nextBlk, op.blocks))
		return
	}
	detail := op.lastErr
	if detail == "" {
		detail = fmt.Sprintf("no reachable daemons (%d of %d blocks)", op.nextBlk, op.blocks)
	}
	op.finish(fmt.Errorf("%w: %s", ErrNotEnoughDaemons, detail))
}

func (op *streamGetOp) onChunk(st *shardStream, m Msg) {
	if op.finished || st.complete || st.dead {
		return
	}
	ver := st.ver
	if !st.confirmed {
		ver = chunkMeta(m) // only a stream's first chunk carries the digest
	}
	if m.Err == "" && int(m.Shard) != st.peerIdx {
		// The daemon holds a different shard index than the placement map
		// expects — an entry an unfinished rebalance has not moved yet. The
		// chunk states its true index, and any k distinct indices decode,
		// so adopt the reported index while the stream is still fresh
		// (nothing buffered or consumed under the old one). An index
		// outside the code, one this operation must not read (a rebuild's
		// own target), or one another stream has already confirmed kills
		// the stream instead — a duplicate would complete without feeding
		// the decoder and, being "fully delivered", would never hedge to
		// the spare that has the piece actually needed. (Unconfirmed
		// streams don't block adoption: their placement-guessed index may
		// itself be wrong; nor do streams of another version.)
		idx := int(m.Shard)
		adopt := idx >= 0 && idx < op.c.cfg.Code.N() && !op.exclude[idx] && st.size() == 0 && !st.complete
		if adopt {
			for _, other := range op.streams {
				if other != st && !other.dead && other.confirmed && other.peerIdx == idx && other.ver == ver {
					adopt = false
					break
				}
			}
		}
		if adopt {
			st.peerIdx = idx
		} else {
			m.Err = fmt.Sprintf("dstore: %s holds shard %d of %s, expected %d",
				st.peer, m.Shard, op.id, st.peerIdx)
		}
	}
	if m.Err == "" && !st.confirmed && op.haveMeta && ver != op.meta {
		// The stream serves another version than the one this operation
		// decodes (a put landed between the holders, or after the layout
		// hint was read): its pieces would decode to neither version.
		m.Err = fmt.Sprintf("dstore: %s holds another version of %s", st.peer, op.id)
	}
	if m.Err != "" && op.stray(st) {
		// A stray that holds no usable shard is what a stray is expected to
		// be: it says nothing about the object, so it counts as no failure.
		st.dead = true
		delete(op.c.pending, st.req)
		op.c.send(st.peer, Msg{Kind: KindGetAck, Req: st.req, ID: op.id, Off: -1})
		op.failIfStuck()
		return
	}
	if m.Err != "" {
		st.dead = true
		op.lastErr = m.Err
		if isNotFoundText(m.Err) {
			op.notFound++
		} else {
			// Corruption is an erasure, not an absence: the holder HAS the
			// slot, its bytes just failed verification (and are quarantined
			// there). Counting it as deadOther keeps failIfStuck from
			// concluding "object does not exist", and the hedge below swaps
			// in a survivor or reconstructs from parity. The holder reported
			// its quarantine to its owner, whose next reconciliation pass
			// re-creates the bad shard.
			op.deadOther++
			if isCorruptText(m.Err) {
				op.corrupt++
				op.c.met.corruptNaks.Inc()
				op.trace.Event(op.c.nowNS(), "corrupt_nak", st.peer, int64(st.peerIdx))
			}
		}
		delete(op.c.pending, st.req)
		// Cancel the daemon session: for locally-synthesized errors (index
		// conflicts) the daemon is healthy and mid-stream, and even a
		// daemon-reported mid-stream error leaves its get session
		// registered until the orphan sweep. Cancelling an already-gone
		// session is a no-op.
		op.c.send(st.peer, Msg{Kind: KindGetAck, Req: st.req, ID: op.id, Off: -1})
		if !st.hedged {
			op.hedge(st)
		}
		op.failIfStuck()
		return
	}
	if m.Off != st.pos+st.size() {
		return // out-of-protocol chunk; RUDP is FIFO so this is a stale req
	}
	st.progress = op.c.s.Now()
	st.confirmed, st.ver = true, ver
	op.seen = true
	for _, other := range op.streams {
		if other == st || other.dead || !other.confirmed || other.peerIdx != st.peerIdx || other.ver != st.ver {
			continue
		}
		// Another stream already delivers this shard index of this
		// version (two placement slots resolved to entries with the same
		// index). A redundant stream must not linger: fully delivered, it
		// would neither stall nor hedge, silently starving the decoder of a
		// spare that has a piece it actually needs.
		st.dead = true
		op.deadOther++
		delete(op.c.pending, st.req)
		op.c.send(st.peer, Msg{Kind: KindGetAck, Req: st.req, ID: op.id, Off: -1})
		if !st.hedged {
			op.hedge(st)
		}
		op.failIfStuck()
		return
	}
	st.buf, st.off = appendReclaim(st.buf, st.off, m.Data, int(op.winChunks())*op.c.cfg.ChunkSize)
	if !op.haveMeta {
		op.adopt()
	} else {
		op.advance(st)
		op.tryDecode()
	}
	if !op.finished {
		op.failIfStuck()
	}
}

// spill adds the strays — the live universe nodes outside the object's
// placement — to the candidates, once, and reports whether it added any. It
// does so only for an object some holder has reported: when the universe
// changes, the client's placement moves at once, but the shards move only
// when the rebalance pass reaches the object, so until then a shard may sit
// on a node the new placement no longer names. A stray's first chunk states
// its index, which the stream adopts like a not-yet-rebalanced entry's.
func (op *streamGetOp) spill() bool {
	if op.spilled || !op.seen {
		return false
	}
	op.spilled = true
	strays := op.strays()
	for i := range strays {
		op.candidates = append(op.candidates, len(op.peers)+i)
	}
	// A fresh slice: appending must not write into the caller's.
	op.peers = append(op.peers[:len(op.peers):len(op.peers)], strays...)
	return op.cursor < len(op.candidates)
}

// strays lists the live universe nodes outside the object's placement.
func (op *streamGetOp) strays() []string {
	var out []string
	for _, node := range op.c.nodes {
		if op.c.alive(node) && !slices.Contains(op.peers, node) {
			out = append(out, node)
		}
	}
	return out
}

// stray reports whether st reads from a node outside the object's placement
// whose index is not yet known.
func (op *streamGetOp) stray(st *shardStream) bool { return st.peerIdx >= op.c.cfg.Code.N() }

// tally returns the version most live streams' first chunks report, how many
// report it, and how many live streams have yet to report any.
func (op *streamGetOp) tally() (lead objMeta, votes, open int) {
	for _, st := range op.streams {
		switch {
		case st.dead:
		case !st.confirmed:
			open++
		default:
			n := 0
			for _, other := range op.streams {
				if !other.dead && other.confirmed && other.ver == st.ver {
					n++
				}
			}
			if n > votes {
				lead, votes = st.ver, n
			}
		}
	}
	return lead, votes, open
}

// viable counts the live streams that can still serve the version the op
// reads — all live ones once it is adopted; before that, the leading
// version's holders plus the streams yet to report — and, of those, the
// streams yet to report.
func (op *streamGetOp) viable() (live, open int) {
	if !op.haveMeta {
		_, votes, open := op.tally()
		return votes + open, open
	}
	for _, st := range op.streams {
		if !st.dead {
			live++
			if !st.confirmed {
				open++
			}
		}
	}
	return live, open
}

// adopt fixes the version the op reads once k streams' first chunks report
// it. One holder's word is not enough: a node that was down during an
// overwrite keeps the old version's shard, and a failed put can leave
// shards of a version that was never stored; k holders agreeing on a
// version are enough to decode it. Streams of any other version are
// dropped, and the rest get the window the layout calls for. Until then the
// streams buffer what they deliver and failIfStuck widens the read while
// the leading version plus the streams yet to report fall short of k.
func (op *streamGetOp) adopt() {
	meta, votes, _ := op.tally()
	if votes < op.need {
		return
	}
	if err := op.setMeta(meta); err != nil {
		op.finish(err)
		return
	}
	now := op.c.s.Now()
	for _, st := range op.streams {
		if st.dead || !st.confirmed {
			continue
		}
		if st.ver == meta {
			st.progress = now // it waited on the others: its stall clock starts now
			continue
		}
		st.dead = true
		op.deadOther++
		op.lastErr = fmt.Sprintf("dstore: %s holds another version of %s", st.peer, op.id)
		delete(op.c.pending, st.req)
		op.c.send(st.peer, Msg{Kind: KindGetAck, Req: st.req, ID: op.id, Off: -1})
	}
	if op.nextBlk >= op.limitBlk {
		op.finish(nil) // a probe or an empty range: the version was all it needed
		return
	}
	for _, st := range op.streams {
		if !st.dead {
			op.advance(st)
		}
	}
	// The layout may demand a larger window than the initial request asked
	// for (a whole piece must fit): refresh every live stream's window with
	// an immediate ack.
	op.ackStreams(true)
	op.tryDecode()
}

// advance drops the stream's buffered bytes that fall behind the decode
// frontier (blocks already decoded from other streams) and marks streams
// that have delivered and drained through the end of the shard stream.
func (op *streamGetOp) advance(st *shardStream) {
	if st.pos < op.consumed {
		drop := op.consumed - st.pos
		if drop > st.size() {
			drop = st.size()
		}
		st.drop(drop)
	}
	if op.haveMeta && !st.complete && st.pos >= op.meta.shardLen {
		st.complete = true
		delete(op.c.pending, st.req)
		if st.lastAck < op.meta.shardLen {
			// Final credit: coalesced acks may not have covered the tail, and
			// the daemon only closes the get session once the whole stream is
			// both sent and acknowledged.
			st.lastAck = op.meta.shardLen
			op.c.send(st.peer, Msg{Kind: KindGetAck, Req: st.req, ID: op.id, Off: op.meta.shardLen, Win: op.winChunks()})
		}
	}
}

// ackStreams sends flow-control credits, coalesced: a live stream is acked
// once the decode frontier has advanced half a window past its last credit
// (half keeps the daemon's pipe full with half the return traffic), or
// unconditionally with force (a window refresh after the layout is learned).
// Streams that complete get their final credit in advance.
func (op *streamGetOp) ackStreams(force bool) {
	win := op.winChunks()
	half := int64(win) * int64(op.c.cfg.ChunkSize) / 2
	for _, st := range op.streams {
		if st.dead || st.complete {
			continue
		}
		if (op.consumed > st.lastAck && op.consumed-st.lastAck >= half) || force {
			st.lastAck = op.consumed
			op.c.send(st.peer, Msg{Kind: KindGetAck, Req: st.req, ID: op.id, Off: op.consumed, Win: win})
		}
	}
}

// tryDecode hands block codewords to the sink while need pieces of the
// current block are buffered (and downstream is ready for more), advancing
// the frontier and acking the daemons for each consumed block.
func (op *streamGetOp) tryDecode() {
	if op.finished || !op.haveMeta {
		return
	}
	code := op.c.cfg.Code
	if op.shards == nil {
		// One stream per shard index feeds a block, so used never outgrows n.
		op.shards = make([][]byte, code.N())
		op.used = make([]*shardStream, 0, code.N())
	}
	shards, used := op.shards, op.used
	for op.nextBlk < op.limitBlk {
		if op.ready != nil && !op.ready() {
			op.c.met.creditStalls.Inc()
			return
		}
		pieceLen := int64(code.ShardSize(ecc.StreamBlockLen(op.dataLen, int(op.meta.blockLen), op.nextBlk)))
		have := 0
		clear(shards)
		used = used[:0]
		for _, st := range op.streams {
			if st.dead || !st.confirmed || shards[st.peerIdx] != nil {
				continue // (an unconfirmed stream holds no bytes, and a stray no index yet)
			}
			if st.pos == op.consumed && st.size() >= pieceLen {
				shards[st.peerIdx] = st.bytes()[:pieceLen]
				used = append(used, st)
				have++
			}
		}
		if have < op.need {
			return
		}
		if !op.firstK {
			op.firstK = true
			op.trace.Event(op.c.nowNS(), "first_k", "", int64(have))
		}
		for _, st := range used {
			if st.spare && !st.credited {
				st.credited = true
				op.c.met.hedgesWon.Inc()
				op.trace.Event(op.c.nowNS(), "hedge_won", st.peer, int64(st.peerIdx))
			}
		}
		if err := op.sink.NextBlock(shards); err != nil {
			op.finish(err)
			return
		}
		op.trace.Event(op.c.nowNS(), "decode", "", op.nextBlk)
		op.consumed += pieceLen
		op.nextBlk++
		for _, st := range op.streams {
			op.advance(st)
		}
		op.ackStreams(false)
	}
	if op.nextBlk >= op.limitBlk {
		op.finish(nil)
	}
}

// resumeDecode is the downstream backpressure hook: a rebuild's outgoing
// transfer calls it as acks drain its backlog.
func (op *streamGetOp) resumeDecode() {
	if !op.finished {
		op.tryDecode()
	}
}

func (op *streamGetOp) finish(err error) {
	if op.finished {
		return
	}
	op.finished = true
	// Unregister every stream and cancel leftover daemon sessions: spares
	// the retrieve outran would otherwise idle server-side until the orphan
	// sweep.
	for _, st := range op.streams {
		delete(op.c.pending, st.req)
		if !st.dead && !st.complete {
			op.c.send(st.peer, Msg{Kind: KindGetAck, Req: st.req, ID: op.id, Off: -1})
		}
		op.c.putStreamBuf(st.buf)
		st.buf, st.off = nil, 0
	}
	clear(op.shards) // they point into the stream buffers just recycled
	op.deadline.Stop()
	done := op.done
	op.sink, op.mkSink, op.ready, op.done = nil, nil, nil, nil
	done(op.meta, err)
}

// ---- retrieve frontends ----

// ObjectMeta is one stored object version as every shard of it records it.
// The first chunk of each get stream reports it, HeadAsync returns it, and
// a ranged retrieve given it (GetOptions.Meta) starts the shard streams at
// the range's first block instead of decoding (and shipping) the prefix.
type ObjectMeta struct {
	DataLen  int64          // exact object length in bytes
	BlockLen int64          // block-codeword size it was stored with
	Digest   storage.Digest // SHA-256 of the object's bytes
}

// GetOptions parameterises GetRangeAsync.
type GetOptions struct {
	// Off is the first byte wanted; Length the number of bytes, with a
	// negative Length meaning through the end of the object. (A Length of 0
	// retrieves nothing — callers wanting everything must pass -1.)
	Off    int64
	Length int64
	// Meta, when non-nil, lets the retrieve skip to the range's first block
	// on the wire and pins it to that version: a stream reporting another
	// digest or layout is dropped like a failed one. Without it (or with no
	// BlockLen or no Digest in it: such a hint names no version) the range
	// is still honored, but the prefix blocks are fetched, decoded and
	// discarded, from the version k holders agree on.
	Meta *ObjectMeta
	// OnMeta, when non-nil, is called on the scheduler goroutine once the
	// version being read is known — from Meta, or once k streams' first
	// chunks agree on it — and before any byte is written.
	OnMeta func(ObjectMeta)
	// Ready, when non-nil, gates decoding on downstream backpressure; a
	// false return pauses the decode until the handle's Resume.
	Ready func() bool
}

// trimWriter adapts the decoder's block-granular output to a byte range: it
// discards the first skip bytes, forwards at most limit bytes (<0 = all) to
// w, and counts what it forwarded. Overshoot past the limit is swallowed —
// the decoder always emits whole blocks — while an error from w (the HTTP
// client hung up) aborts the decode.
type trimWriter struct {
	w     io.Writer
	skip  int64
	limit int64
	n     int64
}

func (t *trimWriter) Write(p []byte) (int, error) {
	total := len(p)
	if t.skip > 0 {
		if int64(total) <= t.skip {
			t.skip -= int64(total)
			return total, nil
		}
		p = p[t.skip:]
		t.skip = 0
	}
	if t.limit >= 0 {
		rem := t.limit - t.n
		if rem <= 0 {
			return total, nil
		}
		if int64(len(p)) > rem {
			p = p[:rem]
		}
	}
	m, err := t.w.Write(p)
	t.n += int64(m)
	if err != nil {
		return m, err
	}
	return total, nil
}

// GetRangeAsync retrieves a byte range of an object from any k reachable
// daemons, writing the decoded range to w as the shard streams arrive. done
// fires once with the number of range bytes written. With opts.Meta the
// transfer touches only the blocks covering the range; the operation
// finishes — cancelling the daemon sessions — as soon as the range's last
// block is decoded either way. The returned handle cancels the retrieve
// (Cancel) and re-drives a decode paused by opts.Ready (Resume).
func (c *Client) GetRangeAsync(id string, w io.Writer, opts GetOptions, done func(n int64, err error)) *Handle {
	if opts.Off < 0 {
		done(0, fmt.Errorf("dstore: negative range offset %d", opts.Off))
		return &Handle{}
	}
	rng := &getRange{off: opts.Off, end: -1}
	if opts.Length >= 0 {
		rng.end = opts.Off + opts.Length
	}
	var hint *objMeta
	if m := opts.Meta; m != nil && m.DataLen >= 0 && m.BlockLen > 0 && m.Digest != (storage.Digest{}) {
		hint = &objMeta{
			shardLen: ecc.StreamShardLen(c.cfg.Code, m.DataLen, int(m.BlockLen)),
			dataLen:  m.DataLen,
			blockLen: m.BlockLen,
			digest:   m.Digest,
		}
	}
	tw := &trimWriter{w: w, limit: opts.Length}
	if opts.Length < 0 {
		tw.limit = -1
	}
	began := c.s.Now()
	tr := c.trace("get", id)
	peers := c.peersFor(id)
	op := &streamGetOp{c: c, id: id, peers: peers, candidates: c.rank(peers, nil), need: c.cfg.Code.K(), rng: rng, trace: tr, ready: opts.Ready,
		mkSink: func(meta objMeta, dataLen int64) (blockSink, error) {
			if opts.OnMeta != nil {
				opts.OnMeta(ObjectMeta{DataLen: meta.dataLen, BlockLen: meta.blockLen, Digest: meta.digest})
			}
			bs := int(meta.blockLen)
			startBlk := int64(0)
			if hint != nil {
				// Mirrors setMeta's skip: streams start at the range's first
				// block, so the decoder must too.
				startBlk = opts.Off / int64(bs)
				if max := ecc.StreamBlocks(dataLen, bs); startBlk > max {
					startBlk = max
				}
			}
			tw.skip = opts.Off - startBlk*int64(bs)
			dec, err := ecc.NewStreamDecoder(c.cfg.Code, tw, dataLen, bs)
			if err == nil {
				dec.UseScratch(&c.decScratch)
				if startBlk > 0 {
					err = dec.SeekBlock(startBlk)
				}
			}
			return dec, err
		},
		done: func(meta objMeta, err error) {
			if err == nil {
				c.met.getLatency.Observe(int64(c.s.Now() - began))
				c.met.getBytes.Add(tw.n)
			}
			tr.Finish(c.nowNS(), err)
			done(tw.n, err)
		}}
	op.start(hint)
	return &Handle{
		cancel: func() { op.finish(ErrCanceled) },
		resume: op.resumeDecode,
	}
}

// HeadAsync is the metadata probe: a retrieve of no bytes, whose shard
// streams each move at most one chunk, and which reports the version once k
// of those first chunks agree on it. A missing object reports ErrNotFound.
func (c *Client) HeadAsync(id string, done func(ObjectMeta, error)) *Handle {
	var meta ObjectMeta
	return c.GetRangeAsync(id, io.Discard, GetOptions{OnMeta: func(m ObjectMeta) { meta = m }},
		func(_ int64, err error) { done(meta, err) })
}

// GetStreamAsync retrieves an object from any k reachable daemons, writing
// decoded data to w block by block as the shard streams arrive. done fires
// once with the number of bytes written. Client memory stays bounded by
// O(BlockSize × n) whatever the object's size.
func (c *Client) GetStreamAsync(id string, w io.Writer, done func(n int64, err error)) *Handle {
	return c.GetRangeAsync(id, w, GetOptions{Length: -1}, done)
}

// GetAsync retrieves and decodes an object from any k reachable daemons into
// memory. The daemons' recorded object length is authoritative — another
// client may have overwritten the object since this one last put it.
func (c *Client) GetAsync(id string, done func(data []byte, err error)) *Handle {
	// Assemble in a pooled buffer and hand the caller a copy: the copy is an
	// append, which for byte slices allocates without zeroing, so each get
	// pays one memmove instead of clearing a fresh object-sized allocation.
	w := &resultWriter{buf: c.getResultBuf()}
	return c.GetStreamAsync(id, w, func(n int64, err error) {
		defer c.putResultBuf(w.buf)
		if err != nil {
			done(nil, err)
			return
		}
		done(append([]byte(nil), w.buf...), nil)
	})
}
