package storage

import (
	"encoding/hex"
	"fmt"
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
	BlockLen int // block-codeword size of the layout; 0 = one codeword
}

// Backend is the node-local shard store: one shard per object id, plus the
// load counters the balancing policies and experiments read. A RAIN node's
// dstore daemon serves it over the mesh. Safe for concurrent use.
//
// A backend is either memory-backed (NewBackend) or file-backed
// (NewFileBackend): the latter spills shard bytes to one file per object so
// a daemon's heap stays bounded by in-flight chunks, not by what it stores —
// the §4.2 store cannot otherwise hold objects larger than RAM. Both modes
// support the streaming write path (NewStage/Append/Commit) and ranged reads
// (ReadAt) that the dstore daemon uses to move shards chunk by chunk.
type Backend struct {
	mu       sync.Mutex
	dir      string // "" = memory-backed
	shards   map[string]backendEntry
	quar     map[string]quarEntry // corrupt shards sidelined by quarantine
	gen      uint64               // bumped on every shard-set mutation
	reads    int
	writes   int
	stageSeq int
	spare    [][]byte // retired shard buffers, recycled into new stages
	met      *backendMetrics
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
	shard    []byte // memory mode only
	path     string // file mode only
	shardLen int64
	shardIdx int // shard index held
	dataLen  int
	blockLen int
	sums     []uint32 // CRC32C per ChecksumBlock of the shard (last may be short)
	seq      uint64   // b.gen at publish; guards quarantine against stale reads
}

// NewBackend returns an empty memory-backed backend. The optional telemetry
// scope labels the backend's metric series (a platform passes per-node
// scopes); omitted, metrics aggregate into the default registry's root.
func NewBackend(scope ...*telemetry.Scope) *Backend {
	return &Backend{shards: make(map[string]backendEntry), met: newBackendMetrics(first(scope))}
}

// NewFileBackend returns an empty backend storing shard bytes as one file
// per object under dir (created if missing). Metadata stays in memory; shard
// bytes live on disk, so stored objects do not occupy heap.
func NewFileBackend(dir string, scope ...*telemetry.Scope) (*Backend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: file backend: %w", err)
	}
	return &Backend{dir: dir, shards: make(map[string]backendEntry), met: newBackendMetrics(first(scope))}, nil
}

func first(scopes []*telemetry.Scope) *telemetry.Scope {
	if len(scopes) > 0 {
		return scopes[0]
	}
	return nil
}

// shardPath maps an object id to its shard file. Hex encoding keeps any id
// filesystem-safe and collision-free.
func (b *Backend) shardPath(id string) string {
	return filepath.Join(b.dir, hex.EncodeToString([]byte(id))+".shard")
}

// Put stores the shard for an object together with the shard index it
// represents under the object's placement, the original object length, and
// the block-codeword size of its layout (0 for a single whole-object
// codeword). A non-nil error (file-backed mode only: disk
// full, permissions) means nothing was stored.
func (b *Backend) Put(id string, shard []byte, shardIdx, dataLen, blockLen int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := backendEntry{shardLen: int64(len(shard)), shardIdx: shardIdx, dataLen: dataLen, blockLen: blockLen}
	e.sums = blockSums(shard)
	if b.dir == "" {
		var buf []byte
		if n := len(b.spare); n > 0 {
			buf, b.spare = b.spare[n-1][:0], b.spare[:n-1]
		}
		e.shard = append(buf, shard...)
	} else {
		e.path = b.shardPath(id)
		if err := writeShardFile(e.path, shard, e.sums); err != nil {
			return fmt.Errorf("storage: put %s: %w", id, err)
		}
	}
	if old, ok := b.shards[id]; ok {
		b.keepSpare(old.shard)
		b.met.bytes.Add(-old.shardLen)
	} else {
		b.met.objects.Inc()
	}
	b.met.bytes.Add(e.shardLen)
	b.met.writes.Inc()
	b.gen++
	e.seq = b.gen
	b.shards[id] = e
	b.writes++
	return nil
}

// writeShardFile writes payload plus the checksum footer the offline scrub
// path reads back.
func writeShardFile(path string, shard []byte, sums []uint32) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(shard); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(checksumFooter(sums)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
	if b.dir == "" {
		if int64(len(e.shard)) < e.shardLen { // torn on the medium
			return nil, 0, b.corrupt(id, e, len(e.shard)/ChecksumBlock)
		}
		shard = append([]byte(nil), e.shard[:e.shardLen]...)
	} else {
		file, rerr := os.ReadFile(e.path)
		if rerr != nil {
			return nil, 0, fmt.Errorf("storage: %s: %w", id, rerr)
		}
		if int64(len(file)) < e.shardLen { // torn past the recorded length
			return nil, 0, b.corrupt(id, e, len(file)/ChecksumBlock)
		}
		shard = file[:e.shardLen] // drop the checksum footer
	}
	if err := b.verifyRange(id, e, shard, 0, nil); err != nil {
		return nil, 0, err
	}
	return shard, e.dataLen, nil
}

// ReadAt copies len(p) shard bytes starting at off into p — the ranged read
// the dstore daemon streams get chunks from, bounded-memory in both backend
// modes. A read starting at offset 0 counts as one read for the balancing
// policies. Short ranges past the end return io.ErrUnexpectedEOF. File I/O
// happens outside the backend lock (entries are immutable once published;
// a concurrent Delete surfaces as a read error, the same as an object that
// was never stored).
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
	if e.path == "" {
		if off+int64(len(p)) > int64(len(e.shard)) { // torn on the medium
			return b.corrupt(id, e, len(e.shard)/ChecksumBlock)
		}
		copy(p, e.shard[off:])
		return b.verifyRange(id, e, p, off, nil)
	}
	f, err := os.Open(e.path)
	if err != nil {
		return fmt.Errorf("storage: %s: %w", id, err)
	}
	defer f.Close()
	if n, err := f.ReadAt(p, off); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// The file is shorter than the recorded shard length: a torn
			// write surfaces as corruption, not as a short read.
			return b.corrupt(id, e, int((off+int64(n))/ChecksumBlock))
		}
		return fmt.Errorf("storage: %s: %w", id, err)
	}
	return b.verifyRange(id, e, p, off, f)
}

// Stat reports the shard length and recorded object length without counting
// a read.
func (b *Backend) Stat(id string) (shardLen, dataLen int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.shards[id]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %s", ErrObjectNotFound, id)
	}
	return int(e.shardLen), e.dataLen, nil
}

// Info reports the full metadata for one object without counting a read.
func (b *Backend) Info(id string) (ObjectInfo, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.shards[id]
	if !ok {
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrObjectNotFound, id)
	}
	return ObjectInfo{ID: id, Shard: e.shardIdx, DataLen: e.dataLen, ShardLen: int(e.shardLen), BlockLen: e.blockLen}, nil
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
	if e.path != "" {
		os.Remove(e.path)
	}
	b.keepSpare(e.shard)
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
		out = append(out, ObjectInfo{ID: id, Shard: e.shardIdx, DataLen: e.dataLen, ShardLen: int(e.shardLen), BlockLen: e.blockLen})
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
// corpses and orphaned stage temp files — a rebuilt node starts from nothing
// and must not be able to resurrect bad or half-written shards.
func (b *Backend) Wipe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.shards {
		if e.path != "" {
			os.Remove(e.path)
		}
		b.met.bytes.Add(-e.shardLen)
	}
	b.met.objects.Add(-int64(len(b.shards)))
	b.shards = make(map[string]backendEntry)
	for _, q := range b.quar {
		if q.path != "" {
			os.Remove(q.path)
		}
	}
	b.met.quarantined.Add(-int64(len(b.quar)))
	b.quar = nil
	if b.dir != "" {
		// Sweep the directory for remains no live entry points at: stage
		// temp files from writes interrupted mid-flight and quarantine
		// files a previous process sidelined.
		for _, pat := range []string{".stage-*", "*.quarantine"} {
			if matches, err := filepath.Glob(filepath.Join(b.dir, pat)); err == nil {
				for _, m := range matches {
					os.Remove(m)
				}
			}
		}
	}
	b.gen++
}

// Stage is an in-progress streaming shard write: chunks append as they
// arrive off the wire, and the shard becomes visible atomically at Commit.
// In a file-backed backend the bytes accumulate in a temporary file, so an
// assembling daemon holds no more heap than one chunk.
type Stage struct {
	b        *Backend
	buf      []byte   // memory mode
	f        *os.File // file mode
	n        int64
	err      error
	finished bool // staged-bytes gauge settled (committed or aborted)

	// Incremental checksum ladder: one CRC32C per ChecksumBlock as the
	// bytes stream in, so Commit records integrity metadata without ever
	// re-reading what was staged.
	sums []uint32
	crc  uint32
	crcN int
}

// NewStage opens a streaming write. The caller must finish it with Commit or
// Abort.
func (b *Backend) NewStage() *Stage {
	s := &Stage{b: b}
	if b.dir != "" {
		b.mu.Lock()
		b.stageSeq++
		seq := b.stageSeq
		b.mu.Unlock()
		f, err := os.CreateTemp(b.dir, fmt.Sprintf(".stage-%d-*", seq))
		if err != nil {
			s.err = fmt.Errorf("storage: stage: %w", err)
			return s
		}
		s.f = f
	} else {
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
	if s.f != nil {
		if _, err := s.f.Write(p); err != nil {
			s.err = fmt.Errorf("storage: stage: %w", err)
			return s.err
		}
	} else {
		s.buf = append(s.buf, p...)
	}
	for q := p; len(q) > 0; {
		room := ChecksumBlock - s.crcN
		if room > len(q) {
			room = len(q)
		}
		s.crc = crc32Update(s.crc, q[:room])
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
	if s.err != nil || s.f != nil || size <= int64(cap(s.buf)) {
		return
	}
	buf := make([]byte, len(s.buf), size)
	copy(buf, s.buf)
	s.buf = buf
}

// Len returns the number of bytes appended so far.
func (s *Stage) Len() int64 { return s.n }

// Abort discards the stage and any bytes written.
func (s *Stage) Abort() {
	if !s.finished {
		s.finished = true
		s.b.met.stagedBytes.Add(-s.n)
		s.b.met.stageAborts.Inc()
	}
	if s.f != nil {
		name := s.f.Name()
		s.f.Close()
		os.Remove(name)
		s.f = nil
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
// recorded shard index, object length and block-codeword size. The stage is
// consumed.
func (b *Backend) Commit(s *Stage, id string, shardIdx, dataLen, blockLen int) error {
	if s.err != nil {
		return s.err
	}
	commitStart := time.Now()
	e := backendEntry{shardLen: s.n, shardIdx: shardIdx, dataLen: dataLen, blockLen: blockLen}
	e.sums = s.sums
	if s.crcN > 0 { // finalize the short final block
		e.sums = append(e.sums, s.crc)
	}
	if s.f != nil {
		name := s.f.Name()
		if _, err := s.f.Write(checksumFooter(e.sums)); err != nil {
			s.f.Close()
			os.Remove(name)
			return fmt.Errorf("storage: commit %s: %w", id, err)
		}
		if err := s.f.Close(); err != nil {
			os.Remove(name)
			return fmt.Errorf("storage: commit %s: %w", id, err)
		}
		e.path = b.shardPath(id)
		if err := os.Rename(name, e.path); err != nil {
			os.Remove(name)
			return fmt.Errorf("storage: commit %s: %w", id, err)
		}
		s.f = nil
	} else {
		e.shard = s.buf
		s.buf = nil
	}
	b.mu.Lock()
	if old, ok := b.shards[id]; ok {
		b.keepSpare(old.shard)
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
	s.err = fmt.Errorf("storage: stage already committed")
	return nil
}
