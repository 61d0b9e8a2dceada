package dstore

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"rain/internal/storage"
	"rain/internal/telemetry"
)

// DaemonStats is a snapshot view of a daemon's counters; all values are
// cumulative. The live counts are atomics (and mirrored into the telemetry
// registry) — this struct survives as the copy Stats returns.
type DaemonStats struct {
	ChunksStored int // put chunks accepted
	Commits      int // shards committed to the backend
	ChunksServed int // get chunks streamed out
	Lists        int // inventory requests answered
	Errors       int // error responses sent
	Reaped       int // orphaned assemblies and get sessions swept
}

// daemonCounters are the per-daemon live counts behind the DaemonStats view.
// Messages arrive on one goroutine but Stats may be read from another;
// atomics replace the old mutex-and-copy.
type daemonCounters struct {
	chunksStored atomic.Int64
	commits      atomic.Int64
	chunksServed atomic.Int64
	lists        atomic.Int64
	errors       atomic.Int64
	reaped       atomic.Int64
}

// Store is the storage surface a daemon serves from. *storage.Backend is
// the real implementation; internal/chaos wraps one to inject disk faults
// (EIO, stalls) between the daemon and the medium. Stages returned by
// NewStage belong to the underlying backend and are committed through the
// same Store.
type Store interface {
	NewStage() *storage.Stage
	Commit(s *storage.Stage, id string, shardIdx, dataLen, blockLen int) error
	Info(id string) (storage.ObjectInfo, error)
	ReadAt(id string, p []byte, off int64) error
	Verify(id string) (blocks int, bytes int64, err error)
	Delete(id string)
	List() []storage.ObjectInfo
	Generation() uint64
}

// Daemon is the storage server loop of one node: it owns no transport state
// beyond a mesh registration and serves the wire protocol against the
// node-local backend.
//
// Memory contract: the daemon never materialises a whole shard. Put chunks
// append to a storage.Stage (the log's tail on file-backed backends) and get
// chunks are ranged ReadAt reads, so daemon heap is bounded by in-flight
// chunks regardless of shard size. The daemon is pure request/response — it
// needs no timers — so it runs unchanged over real sockets; the owner
// decides when to SweepOrphans.
type Daemon struct {
	mesh    Mesh
	node    string
	backend Store
	chunk   int
	now     func() time.Time

	asm  map[sessKey]*assembly
	gets map[sessKey]*getSession

	// Scrub state: the cursor the background verify pass resumes from, and
	// the corruption callback the owner wires to its repair driver.
	scrubCursor string
	onCorrupt   func()

	// inv caches the sorted inventory across the pages of a ListReq walk,
	// revalidated against the backend's mutation generation — without it a
	// paged walk over N objects re-sorts all N entries per page.
	inv    []storage.ObjectInfo
	invGen uint64
	invOK  bool

	cnt daemonCounters
	met *daemonMetrics
	tel *telemetry.Registry
}

// maxStageReserve bounds what a put's first chunk may make the daemon
// allocate up front on the strength of its declared shard length alone.
const maxStageReserve = 4 << 20

// sessKey identifies one transfer: requests are client-scoped, so daemon
// sessions are keyed by the requesting node plus its request id.
type sessKey struct {
	from string
	req  uint64
}

// assembly is one in-progress put transfer, streaming into a backend stage.
type assembly struct {
	id       string
	stage    *storage.Stage
	shard    int // shard index being stored, from the first chunk
	shardLen int64
	dataLen  int64
	blockLen int64
	win      int32 // client's put window in chunks (0 = ack every chunk)
	sinceAck int32 // chunks accepted since the last ack
	touched  time.Time
}

// getSession is one credit-windowed get stream: the daemon keeps at most
// win bytes beyond the client's last consumed-ack in flight. The stream
// serves one version of the object — the entry info describes — and ends
// with an error if a commit replaces that entry mid-stream.
type getSession struct {
	info     storage.ObjectInfo
	shardLen int64
	sent     int64 // next stream offset to send
	credit   int64 // client's consumed offset (GetAck)
	win      int64 // window beyond credit, bytes
	told     bool  // a chunk went out: the digest rode on it
	touched  time.Time
}

// DaemonOption customises a Daemon.
type DaemonOption func(*Daemon)

// WithDaemonClock injects the daemon's time source for orphan-session aging
// — core passes its scheduler's clock, virtual under the simulator and
// loop-relative in a deployed node.
func WithDaemonClock(now func() time.Time) DaemonOption {
	return func(d *Daemon) { d.now = now }
}

// WithDaemonTelemetry routes the daemon's metrics into a specific registry
// (the platform's, under the simulator) instead of the process default.
func WithDaemonTelemetry(r *telemetry.Registry) DaemonOption {
	return func(d *Daemon) { d.tel = r }
}

// NewDaemon registers a storage daemon for node on the mesh. shard is
// ignored — every stored entry records the index it holds — and stays in the
// signature only until the benchmark stops passing it (ROADMAP, benchmark-only
// housekeeping); chunkSize bounds streamed get chunks (0 for the default).
func NewDaemon(mesh Mesh, node string, shard int, backend Store, chunkSize int, opts ...DaemonOption) *Daemon {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	d := &Daemon{
		mesh:      mesh,
		node:      node,
		backend:   backend,
		chunk:     chunkSize,
		now:       time.Now,
		onCorrupt: func() {},
		asm:       make(map[sessKey]*assembly),
		gets:      make(map[sessKey]*getSession),
	}
	for _, opt := range opts {
		opt(d)
	}
	if d.tel == nil {
		d.tel = telemetry.Default()
	}
	d.met = newDaemonMetrics(d.tel.Node(node))
	mesh.Handle(node, ServiceDaemon, d.onMessage)
	return d
}

// Node returns the mesh node the daemon serves on.
func (d *Daemon) Node() string { return d.node }

// Backend returns the daemon's shard store.
func (d *Daemon) Backend() Store { return d.backend }

// OnCorrupt registers the callback fired (on the daemon's goroutine) once
// per shard that one of its reads finds corrupt: the scrub's, or a get
// stream it serves to a client or a reconciliation pass. The backend has
// quarantined the shard, so it left this node's inventory; the owner's job
// is to get a pass run — core pokes the self-heal controllers.
func (d *Daemon) OnCorrupt(fn func()) { d.onCorrupt = fn }

// Assemblies reports in-progress put transfers (orphan-leak checks).
func (d *Daemon) Assemblies() int { return len(d.asm) }

// GetSessions reports open windowed get streams (orphan-leak checks).
func (d *Daemon) GetSessions() int { return len(d.gets) }

// Stats returns a snapshot of the daemon's counters.
func (d *Daemon) Stats() DaemonStats {
	return DaemonStats{
		ChunksStored: int(d.cnt.chunksStored.Load()),
		Commits:      int(d.cnt.commits.Load()),
		ChunksServed: int(d.cnt.chunksServed.Load()),
		Lists:        int(d.cnt.lists.Load()),
		Errors:       int(d.cnt.errors.Load()),
		Reaped:       int(d.cnt.reaped.Load()),
	}
}

// syncSessions refreshes the session-count gauges after any asm/gets change.
func (d *Daemon) syncSessions() {
	d.met.assemblies.Set(int64(len(d.asm)))
	d.met.getSessions.Set(int64(len(d.gets)))
}

func (d *Daemon) reply(to string, m Msg) {
	if m.Err != "" {
		d.cnt.errors.Add(1)
		d.met.errors.Inc()
	}
	d.mesh.SendFrame(d.node, to, ServiceClient, m.MarshalFrame())
}

func (d *Daemon) onMessage(from string, payload []byte) {
	m, err := Unmarshal(payload)
	if err != nil {
		return // garbage datagram: drop, like an unparseable UDP packet
	}
	switch m.Kind {
	case KindPutChunk:
		d.onPutChunk(from, m)
	case KindGetReq:
		d.onGetReq(from, m)
	case KindGetAck:
		d.onGetAck(from, m)
	case KindListReq:
		d.cnt.lists.Add(1)
		d.met.lists.Inc()
		if gen := d.backend.Generation(); !d.invOK || gen != d.invGen {
			d.inv, d.invGen, d.invOK = d.backend.List(), gen, true
		}
		// m.ID is the continuation token: resume after that object id.
		page, more := encodeInventoryPage(d.inv, m.ID, MaxListPayload)
		resp := Msg{Kind: KindListResp, Req: m.Req, Data: page}
		if more {
			resp.Win = 1
		}
		d.reply(from, resp)
	case KindDeleteReq:
		// Idempotent: dropping an absent shard is success, so a re-sent
		// delete after a lost ack converges.
		d.backend.Delete(m.ID)
		d.reply(from, Msg{Kind: KindDeleteResp, Req: m.Req, ID: m.ID})
	}
}

// SweepOrphans aborts put assemblies and closes get sessions that have seen
// no traffic for maxAge — the garbage left by clients that died mid-transfer
// (their RUDP streams stop without a goodbye). It returns the number of
// sessions reaped. The owner runs it periodically on the daemon's scheduler
// (core.Platform and core.RealNode both do).
func (d *Daemon) SweepOrphans(maxAge time.Duration) int {
	cutoff := d.now().Add(-maxAge)
	reaped := 0
	for key, a := range d.asm {
		if a.touched.Before(cutoff) {
			a.stage.Abort()
			delete(d.asm, key)
			reaped++
		}
	}
	for key, g := range d.gets {
		if g.touched.Before(cutoff) {
			delete(d.gets, key)
			reaped++
		}
	}
	if reaped > 0 {
		d.cnt.reaped.Add(int64(reaped))
		d.met.reaped.Add(int64(reaped))
		d.syncSessions()
	}
	return reaped
}

// ScrubStep is one paced increment of the background integrity scrub: it
// verifies stored shards against their at-rest checksums, oldest cursor
// position first, until the byte budget is spent, then remembers where it
// stopped so the next step resumes there. The owner calls it on the
// daemon's goroutine alongside SweepOrphans; budget per step = rate × the
// step interval, which is how a bytes/sec scrub rate is enforced without a
// ticker of its own. A corrupt shard is quarantined by the backend and
// reported through the OnCorrupt callback.
func (d *Daemon) ScrubStep(budget int64) (bytesVerified int64, corruptions int) {
	objs := d.backend.List()
	if len(objs) == 0 {
		return 0, 0
	}
	// Resume at the first shard past the cursor (List is sorted by ID), or
	// wrap to a fresh pass.
	start := sort.Search(len(objs), func(i int) bool { return objs[i].ID > d.scrubCursor }) % len(objs)
	for i := 0; i < len(objs) && bytesVerified < budget; i++ {
		o := objs[(start+i)%len(objs)]
		blocks, bytes, err := d.backend.Verify(o.ID)
		d.met.scrubBlocks.Add(int64(blocks))
		d.met.scrubBytes.Add(bytes)
		bytesVerified += bytes
		d.scrubCursor = o.ID
		if err != nil {
			if errors.Is(err, storage.ErrCorrupt) {
				corruptions++
				d.met.scrubCorruptions.Inc()
				d.onCorrupt()
			}
			// Not-found (deleted mid-scrub) and injected I/O errors skip
			// the object; the next pass revisits it.
			continue
		}
		if (start+i)%len(objs) == len(objs)-1 {
			d.met.scrubPasses.Inc()
		}
	}
	return bytesVerified, corruptions
}

func (d *Daemon) onPutChunk(from string, m Msg) {
	defer d.syncSessions()
	key := sessKey{from: from, req: m.Req}
	a, ok := d.asm[key]
	if !ok {
		if m.Off != 0 {
			// A chunk for a transfer we never saw start — the daemon
			// restarted mid-stream. Refuse so the client retries afresh.
			d.reply(from, Msg{Kind: KindPutAck, Req: m.Req, ID: m.ID, Err: "dstore: no such transfer"})
			return
		}
		if m.Shard < 0 || m.ShardLen < 0 || m.DataLen < 0 || m.BlockLen < 1 {
			// Every writer places its objects and writes them as block
			// codewords: an unplaced shard would be recorded under an index
			// nobody asked for, a negative length or a missing block length
			// under a layout no reader can decode.
			d.reply(from, Msg{Kind: KindPutAck, Req: m.Req, ID: m.ID, Err: fmt.Sprintf("%v: put chunk with shard index %d, lengths %d/%d/%d",
				ErrBadRequest, m.Shard, m.ShardLen, m.DataLen, m.BlockLen)})
			return
		}
		a = &assembly{id: m.ID, stage: d.backend.NewStage(), shard: int(m.Shard), shardLen: m.ShardLen, dataLen: m.DataLen, blockLen: m.BlockLen, win: m.Win}
		// The declared length is only a claim: reserve up to the cap and let
		// the stage grow by append as bytes actually arrive.
		a.stage.Reserve(min(m.ShardLen, maxStageReserve))
		d.asm[key] = a
	}
	if m.Off != a.stage.Len() || m.ID != a.id {
		a.stage.Abort()
		delete(d.asm, key)
		d.reply(from, Msg{Kind: KindPutAck, Req: m.Req, ID: m.ID, Err: fmt.Sprintf("dstore: chunk at %d, expected %d", m.Off, a.stage.Len())})
		return
	}
	if err := a.stage.Append(m.Data); err != nil {
		a.stage.Abort()
		delete(d.asm, key)
		d.reply(from, Msg{Kind: KindPutAck, Req: m.Req, ID: m.ID, Err: err.Error()})
		return
	}
	a.touched = d.now()
	a.sinceAck++
	d.cnt.chunksStored.Add(1)
	d.met.chunksStored.Inc()
	if a.stage.Len() >= a.shardLen {
		a.stage.SetDigest(m.Digest) // the commit chunk carries the object's digest
		if err := d.backend.Commit(a.stage, a.id, a.shard, int(a.dataLen), int(a.blockLen)); err != nil {
			delete(d.asm, key)
			d.reply(from, Msg{Kind: KindPutAck, Req: m.Req, ID: m.ID, Err: err.Error()})
			return
		}
		d.cnt.commits.Add(1)
		d.met.commits.Inc()
		delete(d.asm, key)
	} else if a.win > 1 && a.sinceAck < a.win/2 {
		// Coalesce put acks: the client declared a win-chunk send window, so
		// acking every win/2 chunks (acks are cumulative) keeps its pipe full
		// with half the return traffic. Commit, error and a window of one
		// chunk still ack every chunk.
		return
	}
	a.sinceAck = 0
	d.reply(from, Msg{Kind: KindPutAck, Req: m.Req, ID: a.id, Off: a.stage.Len(), ShardLen: a.shardLen})
}

func (d *Daemon) onGetReq(from string, m Msg) {
	defer d.syncSessions()
	if m.Win <= 0 {
		// No window, no stream: pushing a whole shard unpaced on one
		// datagram's say-so is an amplification lever, not a read.
		d.reply(from, Msg{Kind: KindGetChunk, Req: m.Req, ID: m.ID, Err: fmt.Sprintf("%v: get window %d", ErrBadRequest, m.Win)})
		return
	}
	info, err := d.backend.Info(m.ID)
	if err != nil {
		d.reply(from, Msg{Kind: KindGetChunk, Req: m.Req, ID: m.ID, Err: err.Error()})
		return
	}
	shardLen := int64(info.ShardLen)
	if m.Off < 0 || m.Off > shardLen {
		d.reply(from, Msg{Kind: KindGetChunk, Req: m.Req, ID: m.ID, Err: fmt.Sprintf("dstore: get offset %d of %d-byte shard", m.Off, shardLen)})
		return
	}
	g := &getSession{
		info:     info,
		shardLen: shardLen,
		sent:     m.Off,
		credit:   m.Off,
		win:      int64(m.Win) * int64(d.chunk),
		touched:  d.now(),
	}
	key := sessKey{from: from, req: m.Req}
	d.gets[key] = g
	d.pumpGet(from, m.Req, g)
	if g.sent >= g.shardLen && g.credit >= g.shardLen {
		delete(d.gets, key)
	}
}

func (d *Daemon) onGetAck(from string, m Msg) {
	defer d.syncSessions()
	key := sessKey{from: from, req: m.Req}
	g, ok := d.gets[key]
	if !ok {
		return
	}
	if m.Off < 0 {
		delete(d.gets, key) // client cancelled (retrieve finished without us)
		return
	}
	if m.Off > g.credit {
		g.credit = m.Off
	}
	if win := int64(m.Win) * int64(d.chunk); win > g.win {
		g.win = win // the client grew its window after learning the layout
	}
	g.touched = d.now()
	if g.credit >= g.shardLen && g.sent >= g.shardLen {
		delete(d.gets, key)
		return
	}
	d.pumpGet(from, m.Req, g)
}

// pumpGet streams chunks while the session's credit window has room. An
// empty shard stream still sends one empty chunk so the client learns the
// object metadata. Chunk bytes are read from the backend straight into the
// outgoing pooled frame — the daemon's get path copies the payload zero
// times. A NAK ends the session: the stream cannot resume, so nothing is
// left for the client's cancel or the orphan sweep.
func (d *Daemon) pumpGet(from string, req uint64, g *getSession) {
	nak := func(err string) {
		delete(d.gets, sessKey{from: from, req: req})
		d.reply(from, Msg{Kind: KindGetChunk, Req: req, ID: g.info.ID, Err: err})
	}
	hdr := func(off int64) Msg {
		m := Msg{
			Kind:     KindGetChunk,
			Req:      req,
			ID:       g.info.ID,
			Shard:    int32(g.info.Shard),
			Off:      off,
			ShardLen: g.shardLen,
			DataLen:  int64(g.info.DataLen),
			BlockLen: int64(g.info.BlockLen),
		}
		if !g.told {
			m.Digest = g.info.Digest
		}
		return m
	}
	if g.shardLen == 0 {
		if g.sent == 0 {
			g.sent = 1 // marker: metadata chunk sent
			d.cnt.chunksServed.Add(1)
			d.met.chunksServed.Inc()
			d.reply(from, hdr(0))
		}
		return
	}
	for g.sent < g.shardLen && g.sent-g.credit < g.win {
		if cur, err := d.backend.Info(g.info.ID); err == nil && cur != g.info {
			// A commit replaced the entry: the rest of this stream would be
			// another version's bytes at this version's offsets.
			nak(fmt.Sprintf("dstore: %s was overwritten mid-stream", g.info.ID))
			return
		}
		n := int64(d.chunk)
		if rest := g.shardLen - g.sent; rest < n {
			n = rest
		}
		if room := g.win - (g.sent - g.credit); room < n {
			n = room
		}
		f, data := NewMsgFrame(hdr(g.sent), int(n))
		if err := d.backend.ReadAt(g.info.ID, data, g.sent); err != nil {
			f.Release()
			if errors.Is(err, storage.ErrStalled) {
				// A hung disk sends nothing — no NAK, no chunk, and the
				// session stays open. The client's hedge timer is the only
				// way out, exactly as with real stuck media.
				return
			}
			// Everything else NAKs with the error text; a *CorruptError's
			// text is what the client folds back into corruption-as-erasure
			// (the shard is already quarantined locally, and reported).
			nak(err.Error())
			if errors.Is(err, storage.ErrCorrupt) {
				d.onCorrupt()
			}
			return
		}
		d.cnt.chunksServed.Add(1)
		d.met.chunksServed.Inc()
		d.mesh.SendFrame(d.node, from, ServiceClient, f)
		g.sent += n
		g.told = true
	}
}
