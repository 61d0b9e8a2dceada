package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
)

// A file-backed backend keeps its shard bytes in a log: one active segment,
// seg-NNNNNN.log, that every stage appends to at its tail, rolled to a new
// one at segmentSize. Beside each segment a sidecar, seg-NNNNNN.idx, gets
// one entry per committed record: the in-memory entries are authoritative
// while the process lives, the sidecars are what the offline scrub
// (VerifyDir) checks against. A segment's live bytes are those of staged,
// published and quarantined records; a sealed segment left with none is
// unlinked with its sidecar, and Compact empties one below half live.
const segmentSize = 64 << 20

type segment struct {
	no   int
	log  *os.File
	idx  *os.File // append-only
	size int64    // bytes appended to log
	live int64
	gone bool // unlinked (reclaimed or wiped)
}

// extent is a run of a record's bytes in one segment.
type extent struct {
	seg    *segment
	off, n int64
}

var errClosed = errors.New("storage: backend closed")

func segName(no int) string { return fmt.Sprintf("seg-%06d", no) }

func (b *Backend) active() *segment {
	if len(b.segs) == 0 {
		return nil
	}
	return b.segs[len(b.segs)-1]
}

// appendLocked writes p at the active segment's tail, rolling to a fresh
// segment first when it is full, and returns ext grown by the write: a write
// contiguous with the last extent extends it. Caller holds b.mu.
func (b *Backend) appendLocked(ext []extent, p []byte) ([]extent, error) {
	if b.closed {
		return ext, errClosed
	}
	seg := b.active()
	if seg == nil || seg.size >= b.segSize {
		var err error
		if seg, err = b.rollLocked(); err != nil {
			return ext, err
		}
	}
	at := seg.size
	seg.size += int64(len(p)) // a failed write still burns its range
	if _, err := seg.log.WriteAt(p, at); err != nil {
		return ext, err
	}
	seg.live += int64(len(p))
	if n := len(ext); n > 0 && ext[n-1].seg == seg && ext[n-1].off+ext[n-1].n == at {
		ext[n-1].n += int64(len(p))
		return ext, nil
	}
	return append(ext, extent{seg: seg, off: at, n: int64(len(p))}), nil
}

// rollLocked seals the active segment (unlinking it at once if nothing in it
// is live) and creates the next one with its sidecar.
func (b *Backend) rollLocked() (*segment, error) {
	if old := b.active(); old != nil && old.live == 0 {
		b.dropSegmentLocked(old)
	}
	b.lastSeg++
	base := filepath.Join(b.dir, segName(b.lastSeg))
	log, err := b.create(base+".log", 0)
	if err != nil {
		return nil, err
	}
	idx, err := b.create(base+".idx", os.O_APPEND)
	if err != nil {
		log.Close()
		os.Remove(log.Name())
		return nil, err
	}
	seg := &segment{no: b.lastSeg, log: log, idx: idx}
	b.segs = append(b.segs, seg)
	return seg, nil
}

// create makes a new file — the only place a backend does, so
// storage.files_created counts them all.
func (b *Backend) create(path string, flag int) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL|flag, 0o644)
	if err == nil {
		b.met.filesCreated.Inc()
	}
	return f, err
}

// releaseLocked subtracts ext from its segments' live bytes, unlinking any
// sealed segment left with none. Caller holds b.mu.
func (b *Backend) releaseLocked(ext []extent) {
	for _, x := range ext {
		x.seg.live -= x.n
		if x.seg.live == 0 && !x.seg.gone && x.seg != b.active() {
			b.dropSegmentLocked(x.seg)
		}
	}
}

// dropSegmentLocked closes and unlinks a segment and its sidecar. A reader
// still holding an extent in it fails with a plain error.
func (b *Backend) dropSegmentLocked(seg *segment) {
	seg.gone = true
	seg.log.Close()
	seg.idx.Close()
	os.Remove(seg.log.Name())
	os.Remove(seg.idx.Name())
	b.segs = slices.DeleteFunc(b.segs, func(s *segment) bool { return s == seg })
}

// indexLocked appends e's sidecar entry to the segment holding its last
// byte, which stays on disk as long as the record is live. Caller holds b.mu.
func (b *Backend) indexLocked(e *backendEntry) error {
	if b.closed {
		return errClosed
	}
	home := b.active()
	for _, x := range e.ext {
		if x.seg.gone {
			return errors.New("storage: staged bytes were wiped")
		}
		home = x.seg
	}
	if home == nil {
		return nil // empty, and nothing was ever written: no bytes to check
	}
	b.scratch = appendIndexEntry(b.scratch[:0], home.no, e)
	_, err := home.idx.Write(b.scratch)
	return err
}

// Sidecar entries, big-endian, self-checksummed by a trailing CRC32C:
//
//	single extent in the sidecar's own segment:
//	    len u32 (top bit clear) | off u32 | sums u32×⌈len/ChecksumBlock⌉ | crc u32
//	anything else:
//	    0x80000000|count u32 | len u64 | count × (seg u32 | off u32 | n u32) | sums | crc
//
// The single form — every record a lone stream appends — costs 12 bytes plus
// 4 per block, no more than the checksum footer of the file-per-shard layout
// it replaces; so the object id is not stored, and the offline scrub names a
// record by segment@offset.
const multiExtent = 1 << 31

func appendIndexEntry(buf []byte, home int, e *backendEntry) []byte {
	be := binary.BigEndian
	if len(e.ext) <= 1 && e.shardLen < multiExtent && (len(e.ext) == 0 || e.ext[0].seg.no == home) {
		var off int64
		if len(e.ext) == 1 {
			off = e.ext[0].off
		}
		buf = be.AppendUint32(be.AppendUint32(buf, uint32(e.shardLen)), uint32(off))
	} else {
		buf = be.AppendUint64(be.AppendUint32(buf, multiExtent|uint32(len(e.ext))), uint64(e.shardLen))
		for _, x := range e.ext {
			buf = be.AppendUint32(be.AppendUint32(be.AppendUint32(buf, uint32(x.seg.no)), uint32(x.off)), uint32(x.n))
		}
	}
	for _, s := range e.sums {
		buf = be.AppendUint32(buf, s)
	}
	return be.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeIndexEntry parses the sidecar entry at the front of p, found in the
// sidecar of segment home, into a record whose extents name segments by
// number (segment.no, nothing opened). ok is false when p does not start
// with a whole, self-consistent entry: a torn or damaged tail.
func decodeIndexEntry(p []byte, home int) (rec backendEntry, n int, ok bool) {
	be := binary.BigEndian
	if len(p) < 12 {
		return rec, 0, false
	}
	if w := be.Uint32(p); w&multiExtent == 0 {
		rec.shardLen, n = int64(w), 8
		rec.ext = []extent{{seg: &segment{no: home}, off: int64(be.Uint32(p[4:])), n: rec.shardLen}}
	} else {
		count := int(w &^ multiExtent)
		if count == 0 || len(p) < 16+12*count {
			return rec, 0, false
		}
		rec.shardLen, n = int64(be.Uint64(p[4:])), 12
		var sum int64
		for ; count > 0; count-- {
			x := extent{seg: &segment{no: int(be.Uint32(p[n:]))}, off: int64(be.Uint32(p[n+4:])), n: int64(be.Uint32(p[n+8:]))}
			rec.ext, sum, n = append(rec.ext, x), sum+x.n, n+12
		}
		if sum != rec.shardLen {
			return rec, 0, false
		}
	}
	nsums := (rec.shardLen + ChecksumBlock - 1) / ChecksumBlock
	if rec.shardLen < 0 || rec.shardLen/ChecksumBlock > int64(len(p)) || int64(len(p)-n-4) < 4*nsums {
		return rec, 0, false
	}
	for ; nsums > 0; nsums-- {
		rec.sums, n = append(rec.sums, be.Uint32(p[n:])), n+4
	}
	if crc32.Checksum(p[:n], castagnoli) != be.Uint32(p[n:]) {
		return rec, 0, false
	}
	return rec, n + 4, true
}

// Compact is one bounded step of log reclamation, driven by the node's scrub
// pacer: it rewrites the records of sealed segments whose live share has
// fallen below half into the active segment — re-pointing each under a fresh
// seq, so a read of the old copy still in flight cannot quarantine the new
// one — until about budget bytes have moved, and unlinks each segment it
// empties. It returns the bytes moved; a memory-backed backend moves none.
func (b *Backend) Compact(budget int64) (moved int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var buf []byte
	for moved < budget && !b.closed {
		var victim *segment
		for _, seg := range b.segs[:max(len(b.segs)-1, 0)] {
			if 2*seg.live < seg.size && (victim == nil || seg.live < victim.live) {
				victim = seg
			}
		}
		if victim == nil {
			return moved
		}
		if buf == nil {
			buf = make([]byte, 64<<10)
		}
		before := moved
		for _, m := range []map[string]backendEntry{b.shards, b.quar} {
			for id, e := range m {
				if moved >= budget {
					return moved
				}
				if !slices.ContainsFunc(e.ext, func(x extent) bool { return x.seg == victim }) {
					continue
				}
				ne := e
				ne.ext = nil
				var err error
				for off := int64(0); off < e.shardLen && err == nil; off += int64(len(buf)) {
					p := buf[:min(int64(len(buf)), e.shardLen-off)]
					if _, err = e.readAt(p, off); err == nil {
						ne.ext, err = b.appendLocked(ne.ext, p)
					}
				}
				if err == nil {
					err = b.indexLocked(&ne)
				}
				if err != nil {
					b.releaseLocked(ne.ext)
					continue
				}
				b.releaseLocked(e.ext)
				b.gen++
				ne.seq = b.gen
				m[id] = ne
				moved += e.shardLen
			}
		}
		if moved == before {
			return moved // what is left there is still being staged, or unreadable
		}
	}
	return moved
}
