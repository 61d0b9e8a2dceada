package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
)

// ChecksumBlock is the granularity of at-rest integrity checksums: every
// stored shard carries one CRC32C per ChecksumBlock bytes (the last block may
// be short). 4 KiB matches the sector scale at which latent errors occur and
// divides the default wire chunk size, so the streaming read path verifies
// whole blocks without extra I/O.
const ChecksumBlock = 4 << 10

// castagnoli is the CRC32C polynomial table; hash/crc32 dispatches to the
// hardware kernel (SSE4.2 / ARMv8 CRC) when available, so per-block verify
// costs well under the wire path's throughput.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is the sentinel all checksum failures match via errors.Is. The
// concrete error is a *CorruptError carrying the object and block index.
var ErrCorrupt = errors.New("storage: shard corrupt")

// ErrStalled models a read hung on bad media. The storage layer never
// returns it itself; the chaos suite's fault-injecting store does, and the
// dstore daemon maps it to silence (no NAK) — exactly what a client sees
// when a disk hangs — so hedged reads carry the request.
var ErrStalled = errors.New("storage: read stalled")

// ErrNoChecksum reports sidecar bytes that hold no whole, self-consistent
// entry — a torn or damaged tail — so the records they described cannot be
// checked offline.
var ErrNoChecksum = errors.New("storage: sidecar entry unreadable")

// CorruptError reports a shard whose stored bytes no longer match the
// checksum recorded when they were written. The shard has been quarantined:
// readers treat it as one more erasure and repair re-creates it from the
// survivors.
type CorruptError struct {
	ID    string
	Block int // ChecksumBlock index that failed verification
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("storage: shard corrupt: %s block %d", e.ID, e.Block)
}

// Is makes errors.Is(err, ErrCorrupt) match.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// verifyRange checks every checksum block overlapping [off, off+len(p))
// against the entry's recorded sums, assuming p already holds the shard
// bytes for that range. Blocks only partially covered by p are completed
// from the medium, so a read of any range verifies every byte it returns.
// Aligned streaming reads — the dstore daemon's chunk pump — never take the
// partial-block path and allocate nothing. On a mismatch the shard is
// quarantined and a *CorruptError names the failing block.
func (b *Backend) verifyRange(id string, e *backendEntry, p []byte, off int64) error {
	if len(e.sums) == 0 || len(p) == 0 {
		return nil
	}
	end := off + int64(len(p))
	first := off / ChecksumBlock
	last := (end - 1) / ChecksumBlock
	var edge []byte // lazily allocated; only unaligned reads need it
	for blk := first; blk <= last; blk++ {
		bs := blk * ChecksumBlock
		be := min(bs+ChecksumBlock, e.shardLen)
		var crc uint32
		var err error
		if bs < off { // head fragment before the caller's range
			crc, err = e.foldMedium(crc, &edge, bs, off)
			bs = off
		}
		crc = crc32.Update(crc, castagnoli, p[bs-off:min(be, end)-off])
		if be > end && err == nil { // tail fragment past the caller's range
			crc, err = e.foldMedium(crc, &edge, end, be)
		}
		if err != nil || crc != e.sums[blk] {
			return b.corrupt(id, *e, int(blk))
		}
	}
	return nil
}

// foldMedium folds shard bytes [lo, hi) into crc, read straight from the
// medium — the sliver of a checksum block that a ranged read did not cover.
func (e *backendEntry) foldMedium(crc uint32, edge *[]byte, lo, hi int64) (uint32, error) {
	if *edge == nil {
		*edge = make([]byte, ChecksumBlock)
	}
	buf := (*edge)[:hi-lo]
	_, err := e.readAt(buf, lo)
	return crc32.Update(crc, castagnoli, buf), err
}

// verifyBlocks re-reads the whole record block by block into buf (at least
// ChecksumBlock bytes) and checks each block against its recorded sum. It
// reports how much verified and the first block that did not (unreadable or
// mismatched), or -1.
func (e *backendEntry) verifyBlocks(buf []byte) (blocks int, bytes int64, bad int) {
	for blk := range e.sums {
		lo := int64(blk) * ChecksumBlock
		part := buf[:min(lo+ChecksumBlock, e.shardLen)-lo]
		if _, err := e.readAt(part, lo); err != nil || crc32.Checksum(part, castagnoli) != e.sums[blk] {
			return blocks, bytes, blk
		}
		blocks++
		bytes += int64(len(part))
	}
	return blocks, bytes, -1
}

// corrupt quarantines the shard and returns the typed error readers fold
// into their erasure handling.
func (b *Backend) corrupt(id string, e backendEntry, blk int) error {
	b.quarantine(id, e.seq)
	return &CorruptError{ID: id, Block: blk}
}

// quarantine sidelines a shard that failed verification: it disappears from
// the serving set and the inventory (so reconciliation re-creates it from
// the survivors) but its bytes are kept where they are, still counted live
// in their segment — forensics and the "never resurrect bad shards"
// guarantee both want the evidence kept until Delete or Wipe. The seq guard
// skips shards overwritten or moved since the failing read was issued; a
// stale read is not evidence against the current bytes.
func (b *Backend) quarantine(id string, seq uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.shards[id]
	if !ok || e.seq != seq {
		return
	}
	delete(b.shards, id)
	b.gen++
	b.met.objects.Dec()
	b.met.bytes.Add(-e.shardLen)
	b.met.corruptions.Inc()
	if old, ok := b.quar[id]; ok {
		b.releaseLocked(old.ext)
	} else {
		b.met.quarantined.Inc()
	}
	b.quar[id] = e
}

// dropQuarantineLocked removes the quarantined remains for id, if any.
// Memory-mode bytes are not recycled into the spare pool. Caller holds b.mu.
func (b *Backend) dropQuarantineLocked(id string) {
	q, ok := b.quar[id]
	if !ok {
		return
	}
	b.releaseLocked(q.ext)
	delete(b.quar, id)
	b.met.quarantined.Dec()
}

// Quarantined reports how many corrupt shards are currently sidelined.
func (b *Backend) Quarantined() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.quar)
}

// Verify re-reads one stored shard from the medium and checks every block
// against its recorded checksums — the scrubber's unit of work. It reads in
// ChecksumBlock steps so memory stays bounded, reports how much it covered,
// and quarantines on the first mismatch, returning the *CorruptError. It
// does not count as a read for the balancing policies.
func (b *Backend) Verify(id string) (blocks int, bytes int64, err error) {
	b.mu.Lock()
	e, ok := b.shards[id]
	closed := b.closed
	b.mu.Unlock()
	if !ok {
		return 0, 0, fmt.Errorf("%w: %s", ErrObjectNotFound, id)
	}
	if closed {
		return 0, 0, errClosed
	}
	blocks, bytes, bad := e.verifyBlocks(make([]byte, ChecksumBlock))
	if bad >= 0 {
		return blocks, bytes, b.corrupt(id, e, bad)
	}
	return blocks, bytes, nil
}

// locate maps shard offset off to the segment and file offset holding it.
func (e *backendEntry) locate(off int64) (*segment, int64) {
	for _, x := range e.ext {
		if off < x.n {
			return x.seg, x.off + off
		}
		off -= x.n
	}
	return nil, 0
}

// CorruptShard flips one bit of the stored shard at the given byte offset
// without touching the recorded checksums — the latent-sector-error
// injection hook the chaos suite and integrity tests drive. It damages the
// medium only; detection still has to happen through a verified read or the
// scrubber.
func (b *Backend) CorruptShard(id string, off int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.shards[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrObjectNotFound, id)
	}
	if off < 0 || off >= e.shardLen {
		return fmt.Errorf("storage: corrupt %s: offset %d outside shard of %d bytes", id, off, e.shardLen)
	}
	if e.ext == nil {
		if off < int64(len(e.shard)) {
			e.shard[off] ^= 0x01
		}
		return nil
	}
	seg, at := e.locate(off)
	var one [1]byte
	_, err := seg.log.ReadAt(one[:], at)
	if err == nil {
		one[0] ^= 0x01
		_, err = seg.log.WriteAt(one[:], at)
	}
	if err != nil {
		return fmt.Errorf("storage: corrupt %s: %w", id, err)
	}
	return nil
}

// TruncateShard tears the stored shard down to n bytes on the medium while
// leaving its recorded length and checksums untouched — the torn-final-block
// injection hook. Subsequent reads past n surface as corruption. In a
// file-backed backend the segment is cut at that byte, which tears every
// later record in it too, as a torn log tail does.
func (b *Backend) TruncateShard(id string, n int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.shards[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrObjectNotFound, id)
	}
	if n < 0 || n > e.shardLen {
		return fmt.Errorf("storage: truncate %s: %d outside shard of %d bytes", id, n, e.shardLen)
	}
	if e.ext == nil {
		e.shard = e.shard[:n]
		b.shards[id] = e
		return nil
	}
	if seg, at := e.locate(n); seg != nil { // nil: n is the whole shard
		if err := seg.log.Truncate(at); err != nil {
			return fmt.Errorf("storage: truncate %s: %w", id, err)
		}
	}
	return nil
}

// Scrubbed is one record an offline scrub checked.
type Scrubbed struct {
	Name    string // segment@offset of its first byte; sidecar@position for an unreadable tail
	Payload int64
	Blocks  int   // blocks verified
	Err     error // nil, a *CorruptError (ID = Name), or ErrNoChecksum
}

// VerifyDir is the offline scrub: it walks the sidecars of the log under dir
// and checks every record they list against its recorded checksums, block by
// block, calling fn once per record — no in-memory metadata needed, so
// `rainnode scrub` can audit a data directory with no daemon running. A
// sidecar whose tail does not parse yields one ErrNoChecksum result. Records
// deleted or overwritten are checked too while their segment is on disk
// (their bytes are never rewritten); one with bytes in a segment already
// unlinked is skipped, since segments go only once nothing in them is live.
func VerifyDir(dir string, fn func(Scrubbed)) error {
	logs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log")) // sorted; the pattern is well-formed
	segs := map[int]*segment{}
	var order []*segment
	for _, path := range logs {
		var no int
		if _, err := fmt.Sscanf(filepath.Base(path), "seg-%d.log", &no); err != nil {
			continue // not a segment a backend wrote
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		segs[no] = &segment{no: no, log: f}
		order = append(order, segs[no])
	}
	buf := make([]byte, ChecksumBlock)
	for _, seg := range order {
		raw, err := os.ReadFile(filepath.Join(dir, segName(seg.no)+".idx"))
		if err != nil {
			return err
		}
		for pos := 0; pos < len(raw); {
			e, n, ok := decodeIndexEntry(raw[pos:], seg.no)
			if !ok {
				fn(Scrubbed{Name: fmt.Sprintf("%s.idx@%d", segName(seg.no), pos), Err: ErrNoChecksum})
				break
			}
			pos += n
			r := Scrubbed{Name: fmt.Sprintf("%s@%d", segName(e.ext[0].seg.no), e.ext[0].off), Payload: e.shardLen}
			for i, x := range e.ext {
				e.ext[i].seg = segs[x.seg.no]
			}
			if slices.ContainsFunc(e.ext, func(x extent) bool { return x.seg == nil }) {
				continue
			}
			var bad int
			if r.Blocks, _, bad = e.verifyBlocks(buf); bad >= 0 {
				r.Err = &CorruptError{ID: r.Name, Block: bad}
			}
			fn(r)
		}
	}
	return nil
}
