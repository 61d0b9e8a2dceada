package storage

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rain/internal/telemetry"
)

// ObjectInfo describes one shard held by a backend, as reported to rebuild
// coordinators and streamed in dstore inventories.
type ObjectInfo struct {
	ID       string
	Shard    int // shard index held under the object's placement
	DataLen  int // original object length
	ShardLen int
	BlockLen int    // block-codeword size of the layout (dstore writes at least 1)
	Digest   Digest // SHA-256 of the whole object, the same on every shard of one version
}

// Digest is the SHA-256 of an object's bytes. It is recorded beside every
// shard of the object and travels with the layout, so it names the version a
// shard belongs to and serves as the object's ETag. The zero value means none
// was recorded.
type Digest [sha256.Size]byte

// Backend is the node-local shard store: one shard per object id, plus the
// load counters the balancing policies and experiments read. A RAIN node's
// dstore daemon serves it over the mesh. Safe for concurrent use.
//
// A backend is either memory-backed (NewBackend) or file-backed
// (NewFileBackend): the latter appends shard bytes to one log of segment
// files (segment.go) so a daemon's heap stays bounded by in-flight chunks,
// not by what it stores — the §4.2 store cannot otherwise hold objects larger
// than RAM — and no file is created, renamed or unlinked per shard. Both
// modes support the streaming write path (NewStage/Append/Commit) and ranged
// reads (ReadAt) that the dstore daemon uses to move shards chunk by chunk.
type Backend struct {
	mu     sync.Mutex
	dir    string // "" = memory-backed
	shards map[string]backendEntry
	quar   map[string]backendEntry // corrupt shards sidelined by quarantine
	gen    uint64                  // bumped on every shard-set mutation
	reads  int
	writes int
	spare  [][]byte // retired shard buffers, recycled into new stages
	met    *backendMetrics

	// File mode: the log.
	segs    []*segment // every segment on disk, oldest first; the last is active
	segSize int64      // roll threshold: segmentSize
	lastSeg int        // number of the newest segment created
	scratch []byte     // sidecar entry being encoded
	closed  bool
}

// takeSpare pops a retired shard buffer for reuse, or returns nil.
func (b *Backend) takeSpare() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := len(b.spare); n > 0 {
		buf := b.spare[n-1]
		b.spare = b.spare[:n-1]
		return buf[:0]
	}
	return nil
}

// keepSpare retires a shard buffer into the recycle list. Caller holds b.mu.
func (b *Backend) keepSpare(buf []byte) {
	if cap(buf) > 0 && len(b.spare) < 8 {
		b.spare = append(b.spare, buf)
	}
}

type backendEntry struct {
	shard    []byte   // memory mode only
	ext      []extent // file mode only: where the bytes sit in the log
	shardLen int64
	shardIdx int // shard index held
	dataLen  int
	blockLen int
	digest   Digest   // in memory only: the sidecar does not record it
	sums     []uint32 // CRC32C per ChecksumBlock of the shard (last may be short)
	seq      uint64   // b.gen at publish; guards quarantine against stale reads
}

// readAt copies the stored bytes at [off, off+len(p)) into p, from memory or
// through the log extents. A medium holding fewer bytes than asked (a torn
// shard) returns how many it had and io.ErrUnexpectedEOF.
func (e *backendEntry) readAt(p []byte, off int64) (int, error) {
	if e.ext == nil {
		if n := copy(p, e.shard[min(off, int64(len(e.shard))):]); n < len(p) {
			return n, io.ErrUnexpectedEOF
		}
		return len(p), nil
	}
	done := 0
	for i := 0; i < len(e.ext) && done < len(p); i++ {
		x := e.ext[i]
		if off >= x.n {
			off -= x.n
			continue
		}
		k := int(min(int64(len(p)-done), x.n-off))
		n, err := x.seg.log.ReadAt(p[done:done+k], x.off+off)
		done += n
		if err == io.EOF {
			return done, io.ErrUnexpectedEOF
		} else if err != nil {
			return done, err
		}
		off = 0
	}
	if done < len(p) {
		return done, io.ErrUnexpectedEOF
	}
	return done, nil
}

// NewBackend returns an empty memory-backed backend. The optional telemetry
// scope labels the backend's metric series (a platform passes per-node
// scopes); omitted, metrics aggregate into the default registry's root.
func NewBackend(scope ...*telemetry.Scope) *Backend {
	var sc *telemetry.Scope
	if len(scope) > 0 {
		sc = scope[0]
	}
	return &Backend{shards: map[string]backendEntry{}, quar: map[string]backendEntry{}, met: newBackendMetrics(sc)}
}

// NewFileBackend returns an empty backend appending shard bytes to a log of
// segment files under dir (created if missing). Metadata stays in memory and
// no start reads the log back, so whatever a previous process left in dir —
// its segments and sidecars, and the shard, stage and quarantine files of
// the older file-per-shard layout — is removed: no entry can reference it.
func NewFileBackend(dir string, scope ...*telemetry.Scope) (*Backend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: file backend: %w", err)
	}
	for _, pat := range []string{"seg-*.log", "seg-*.idx", "*.shard", ".stage-*", "*.quarantine"} {
		matches, _ := filepath.Glob(filepath.Join(dir, pat)) // the pattern is well-formed
		for _, m := range matches {
			if err := os.Remove(m); err != nil {
				return nil, fmt.Errorf("storage: file backend: %w", err)
			}
		}
	}
	b := NewBackend(scope...)
	b.dir, b.segSize = dir, segmentSize
	return b, nil
}

// Put stores the shard for an object together with the shard index it
// represents under the object's placement, the original object length, and
// the block-codeword size of its layout (0 for a single whole-object
// codeword). A non-nil error (file-backed mode only: disk full, a closed
// backend) means nothing was stored.
func (b *Backend) Put(id string, shard []byte, shardIdx, dataLen, blockLen int) error {
	s := b.NewStage()
	s.Reserve(int64(len(shard)))
	if err := s.Append(shard); err != nil {
		s.Abort()
		return fmt.Errorf("storage: put %s: %w", id, err)
	}
	return b.Commit(s, id, shardIdx, dataLen, blockLen)
}

// Generation returns a counter that changes whenever the shard set does —
// a cheap cache-validity check for inventory snapshots (the dstore daemon
// reuses one sorted List across the pages of an inventory walk).
func (b *Backend) Generation() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gen
}

// Get fetches the whole shard for an object and the recorded object length,
// verified in full against the at-rest checksums. A mismatch quarantines the
// shard and returns a *CorruptError (errors.Is ErrCorrupt). Streaming
// readers should prefer ReadAt, which does not materialise the shard.
func (b *Backend) Get(id string) (shard []byte, dataLen int, err error) {
	b.mu.Lock()
	e, ok := b.shards[id]
	if ok {
		b.reads++
		b.met.reads.Inc()
	}
	b.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrObjectNotFound, id)
	}
	shard = make([]byte, e.shardLen)
	if err := b.read(id, &e, shard, 0); err != nil {
		return nil, 0, err
	}
	return shard, e.dataLen, nil
}

// read fills p from e's bytes at off and verifies them (verifyRange).
func (b *Backend) read(id string, e *backendEntry, p []byte, off int64) error {
	if n, err := e.readAt(p, off); err == io.ErrUnexpectedEOF {
		// The medium is shorter than the recorded shard length: a torn
		// write surfaces as corruption, not as a short read.
		return b.corrupt(id, *e, int((off+int64(n))/ChecksumBlock))
	} else if err != nil {
		return fmt.Errorf("storage: %s: %w", id, err)
	}
	return b.verifyRange(id, e, p, off)
}

// ReadAt copies len(p) shard bytes starting at off into p — the ranged read
// the dstore daemon streams get chunks from, bounded-memory in both backend
// modes. A read starting at offset 0 counts as one read for the balancing
// policies. Short ranges past the end return io.ErrUnexpectedEOF. File I/O
// happens outside the backend lock, on the segment's open file (entries are
// immutable once published; a read racing the reclaim of its segment fails
// with a plain error, the same as an object that was never stored).
//
// Every byte returned is verified against the at-rest checksums: blocks the
// range only partially covers are completed from the medium. A mismatch — or
// a shard torn shorter than its recorded length — quarantines the shard and
// returns a *CorruptError (errors.Is ErrCorrupt), so readers fold detected
// corruption into their erasure handling. Block-aligned reads (the daemon's
// chunk pump) verify allocation-free.
func (b *Backend) ReadAt(id string, p []byte, off int64) error {
	b.mu.Lock()
	e, ok := b.shards[id]
	if ok && off == 0 {
		b.reads++
		b.met.reads.Inc()
	}
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrObjectNotFound, id)
	}
	if off < 0 || off+int64(len(p)) > e.shardLen {
		return fmt.Errorf("storage: %s: range [%d,%d) outside shard of %d bytes: %w",
			id, off, off+int64(len(p)), e.shardLen, io.ErrUnexpectedEOF)
	}
	return b.read(id, &e, p, off)
}

// Stat reports the shard length and recorded object length without counting
// a read.
func (b *Backend) Stat(id string) (shardLen, dataLen int, err error) {
	info, err := b.Info(id)
	return info.ShardLen, info.DataLen, err
}

// Info reports the full metadata for one object without counting a read.
func (b *Backend) Info(id string) (ObjectInfo, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.shards[id]
	if !ok {
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrObjectNotFound, id)
	}
	return e.info(id), nil
}

// info is the ObjectInfo view of an entry stored under id.
func (e *backendEntry) info(id string) ObjectInfo {
	return ObjectInfo{ID: id, Shard: e.shardIdx, DataLen: e.dataLen, ShardLen: int(e.shardLen), BlockLen: e.blockLen, Digest: e.digest}
}

// Delete removes an object's shard, along with any quarantined remains of
// earlier corrupt copies — a deleted object must not leave bad bytes behind
// to be mistaken for it later.
func (b *Backend) Delete(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dropQuarantineLocked(id)
	e, ok := b.shards[id]
	if !ok {
		return
	}
	b.keepSpare(e.shard)
	b.releaseLocked(e.ext)
	delete(b.shards, id)
	b.gen++
	b.met.deletes.Inc()
	b.met.objects.Dec()
	b.met.bytes.Add(-e.shardLen)
}

// List returns info for every held shard, sorted by object id.
func (b *Backend) List() []ObjectInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]ObjectInfo, 0, len(b.shards))
	for id, e := range b.shards {
		out = append(out, e.info(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Loads returns the cumulative read and write counts.
func (b *Backend) Loads() (reads, writes int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reads, b.writes
}

// Objects returns the number of shards held.
func (b *Backend) Objects() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.shards)
}

// Wipe discards all shards (a replaced blank node), including quarantined
// corpses and the bytes of in-flight stages — a rebuilt node starts from
// nothing and must not be able to resurrect bad or half-written shards. A
// file-backed backend unlinks every segment; a stage begun before the wipe
// can no longer commit.
func (b *Backend) Wipe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.shards {
		b.met.bytes.Add(-e.shardLen)
	}
	b.met.objects.Add(-int64(len(b.shards)))
	b.shards = make(map[string]backendEntry)
	b.met.quarantined.Add(-int64(len(b.quar)))
	b.quar = map[string]backendEntry{}
	for len(b.segs) > 0 {
		b.dropSegmentLocked(b.segs[0])
	}
	b.gen++
}

// Close releases a file-backed backend's open segment files, leaving them on
// disk for an offline `rainnode scrub`; writes after Close fail. A no-op for
// a memory-backed backend, and for a second call.
func (b *Backend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.dir == "" {
		return nil
	}
	b.closed = true
	var errs []error
	for _, seg := range b.segs {
		errs = append(errs, seg.log.Close(), seg.idx.Close())
	}
	return errors.Join(errs...)
}

// Stage is an in-progress streaming shard write: chunks append as they
// arrive off the wire, and the shard becomes visible atomically at Commit.
// In a file-backed backend the bytes go straight to the log's tail, so an
// assembling daemon holds no more heap than one chunk.
type Stage struct {
	b        *Backend
	buf      []byte   // memory mode
	ext      []extent // file mode
	n        int64
	err      error
	finished bool // staged-bytes gauge settled (committed or aborted)

	// Incremental checksum ladder: one CRC32C per ChecksumBlock as the
	// bytes stream in, so Commit records integrity metadata without ever
	// re-reading what was staged.
	sums []uint32
	crc  uint32
	crcN int

	digest Digest // recorded at Commit
}

// NewStage opens a streaming write. The caller must finish it with Commit or
// Abort.
func (b *Backend) NewStage() *Stage {
	s := &Stage{b: b}
	if b.dir == "" {
		s.buf = b.takeSpare()
	}
	return s
}

// Append adds the next chunk of the shard, folding it into the incremental
// per-block checksum ladder.
func (s *Stage) Append(p []byte) error {
	if s.err != nil {
		return s.err
	}
	if s.b.dir != "" {
		s.b.mu.Lock()
		ext, err := s.b.appendLocked(s.ext, p)
		s.ext = ext
		s.b.mu.Unlock()
		if err != nil {
			s.err = fmt.Errorf("storage: stage: %w", err)
			return s.err
		}
	} else {
		s.buf = append(s.buf, p...)
	}
	for q := p; len(q) > 0; {
		room := min(ChecksumBlock-s.crcN, len(q))
		s.crc = crc32.Update(s.crc, castagnoli, q[:room])
		s.crcN += room
		q = q[room:]
		if s.crcN == ChecksumBlock {
			s.sums = append(s.sums, s.crc)
			s.crc, s.crcN = 0, 0
		}
	}
	s.n += int64(len(p))
	s.b.met.stagedBytes.Add(int64(len(p)))
	return nil
}

// Reserve hints the stage's final size so memory-mode staging allocates its
// buffer once instead of growing append by append. A no-op for file-backed
// stages and for hints at or below the current capacity.
func (s *Stage) Reserve(size int64) {
	if s.err != nil || s.b.dir != "" || size <= int64(cap(s.buf)) {
		return
	}
	buf := make([]byte, len(s.buf), size)
	copy(buf, s.buf)
	s.buf = buf
}

// SetDigest names the object version the stage belongs to; Commit records
// it beside the shard.
func (s *Stage) SetDigest(d Digest) { s.digest = d }

// Len returns the number of bytes appended so far.
func (s *Stage) Len() int64 { return s.n }

// Abort discards the stage and any bytes written.
func (s *Stage) Abort() {
	if !s.finished {
		s.finished = true
		s.b.met.stagedBytes.Add(-s.n)
		s.b.met.stageAborts.Inc()
	}
	if s.ext != nil {
		s.b.mu.Lock()
		s.b.releaseLocked(s.ext)
		s.b.mu.Unlock()
		s.ext = nil
	}
	if s.buf != nil {
		s.b.mu.Lock()
		s.b.keepSpare(s.buf)
		s.b.mu.Unlock()
		s.buf = nil
	}
	s.err = fmt.Errorf("storage: stage aborted")
}

// Commit atomically publishes the staged bytes as the shard for id, with the
// recorded shard index, object length and block-codeword size, and the
// digest the stage was given (SetDigest). The stage is
// consumed. A file-backed commit appends the record's sidecar entry; the
// bytes are already in the log.
func (b *Backend) Commit(s *Stage, id string, shardIdx, dataLen, blockLen int) error {
	if s.err != nil {
		return s.err
	}
	commitStart := time.Now()
	e := backendEntry{shard: s.buf, ext: s.ext, shardLen: s.n, shardIdx: shardIdx, dataLen: dataLen, blockLen: blockLen, digest: s.digest}
	e.sums = s.sums
	if s.crcN > 0 { // finalize the short final block
		e.sums = append(e.sums, s.crc)
	}
	b.mu.Lock()
	if b.dir != "" {
		if err := b.indexLocked(&e); err != nil {
			b.mu.Unlock()
			s.Abort()
			return fmt.Errorf("storage: commit %s: %w", id, err)
		}
	}
	s.buf, s.ext = nil, nil
	if old, ok := b.shards[id]; ok {
		b.keepSpare(old.shard)
		b.releaseLocked(old.ext)
		b.met.bytes.Add(-old.shardLen)
	} else {
		b.met.objects.Inc()
	}
	b.gen++
	e.seq = b.gen
	b.shards[id] = e
	b.writes++
	b.mu.Unlock()
	b.met.bytes.Add(e.shardLen)
	b.met.writes.Inc()
	b.met.commits.Inc()
	s.finished = true
	b.met.stagedBytes.Add(-s.n)
	b.met.commitLatency.Observe(int64(time.Since(commitStart)))
	s.err = errStageCommitted
	return nil
}

// errStageCommitted fails any use of a committed stage; a sentinel, so a
// commit allocates no error.
var errStageCommitted = errors.New("storage: stage already committed")
