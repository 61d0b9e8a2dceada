package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestCorruptionQuarantinesOnGet flips a bit and reads: the Get must fail
// with a typed *CorruptError naming the block, the shard must vanish from
// the serving set and inventory (treated as an erasure from then on), and
// the bad bytes must be sidelined, not deleted.
func TestCorruptionQuarantinesOnGet(t *testing.T) {
	backendModes(t, func(t *testing.T, b *Backend) {
		shard := make([]byte, 3*ChecksumBlock+100)
		rand.New(rand.NewSource(3)).Read(shard)
		b.Put("obj", shard, 0, len(shard), 0)
		if err := b.CorruptShard("obj", ChecksumBlock+5); err != nil {
			t.Fatal(err)
		}
		_, _, err := b.Get("obj")
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("get of corrupt shard: %v, want ErrCorrupt", err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.ID != "obj" || ce.Block != 1 {
			t.Fatalf("corrupt error detail: %+v", ce)
		}
		if _, _, err := b.Get("obj"); !errors.Is(err, ErrObjectNotFound) {
			t.Fatalf("quarantined shard still served: %v", err)
		}
		if len(b.List()) != 0 || b.Objects() != 0 {
			t.Fatal("quarantined shard still in the inventory")
		}
		if b.Quarantined() != 1 {
			t.Fatalf("quarantined = %d, want 1", b.Quarantined())
		}
		// Re-committing the object clears the way; the repaired shard serves.
		b.Put("obj", shard, 0, len(shard), 0)
		if got, _, err := b.Get("obj"); err != nil || !bytes.Equal(got, shard) {
			t.Fatalf("get after re-put: %v", err)
		}
	})
}

// TestCorruptionQuarantinesOnReadAt verifies the ranged-read path detects a
// bad block only when the range overlaps it, with full coverage of the
// returned bytes (edge fragments are completed from the medium).
func TestCorruptionQuarantinesOnReadAt(t *testing.T) {
	backendModes(t, func(t *testing.T, b *Backend) {
		shard := make([]byte, 4*ChecksumBlock)
		rand.New(rand.NewSource(4)).Read(shard)
		b.Put("obj", shard, 0, len(shard), 0)
		if err := b.CorruptShard("obj", 3*ChecksumBlock+9); err != nil {
			t.Fatal(err)
		}
		// Ranges that avoid the bad block succeed.
		buf := make([]byte, ChecksumBlock)
		if err := b.ReadAt("obj", buf, 0); err != nil {
			t.Fatalf("read of clean block: %v", err)
		}
		// An unaligned sliver inside the bad block fails: the verify covers
		// the whole block even though the caller asked for 10 bytes.
		var ce *CorruptError
		err := b.ReadAt("obj", buf[:10], 3*ChecksumBlock+100)
		if !errors.As(err, &ce) || ce.Block != 3 {
			t.Fatalf("sliver read in bad block: %v", err)
		}
		if b.Quarantined() != 1 {
			t.Fatalf("quarantined = %d, want 1", b.Quarantined())
		}
	})
}

// TestTornShardIsCorrupt tears bytes off the end of a committed shard: the
// medium now holds less than the recorded length, which must read as
// corruption (not a short read) on both whole-shard and ranged paths.
func TestTornShardIsCorrupt(t *testing.T) {
	backendModes(t, func(t *testing.T, b *Backend) {
		shard := make([]byte, 2*ChecksumBlock+77)
		rand.New(rand.NewSource(5)).Read(shard)
		b.Put("obj", shard, 0, len(shard), 0)
		if err := b.TruncateShard("obj", int64(len(shard)-40)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.Get("obj"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("get of torn shard: %v, want ErrCorrupt", err)
		}
		// Torn final block again, detected through ReadAt of the tail.
		b.Put("obj2", shard, 0, len(shard), 0)
		if err := b.TruncateShard("obj2", int64(len(shard)-1)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 40)
		if err := b.ReadAt("obj2", buf, int64(len(shard)-40)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ranged read of torn tail: %v, want ErrCorrupt", err)
		}
	})
}

// TestVerifyScrubsShard drives the scrubber's unit of work: clean shards
// report their full coverage, a corrupted one is quarantined with the
// failing block named.
func TestVerifyScrubsShard(t *testing.T) {
	backendModes(t, func(t *testing.T, b *Backend) {
		shard := make([]byte, 5*ChecksumBlock+1)
		rand.New(rand.NewSource(6)).Read(shard)
		b.Put("obj", shard, 0, len(shard), 0)
		blocks, n, err := b.Verify("obj")
		if err != nil || blocks != 6 || n != int64(len(shard)) {
			t.Fatalf("verify clean: blocks=%d bytes=%d err=%v", blocks, n, err)
		}
		if err := b.CorruptShard("obj", 2*ChecksumBlock); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptError
		if _, _, err := b.Verify("obj"); !errors.As(err, &ce) || ce.Block != 2 {
			t.Fatalf("verify corrupt: %v", err)
		}
		if b.Quarantined() != 1 {
			t.Fatalf("quarantined = %d, want 1", b.Quarantined())
		}
		if _, _, err := b.Verify("obj"); !errors.Is(err, ErrObjectNotFound) {
			t.Fatalf("verify after quarantine: %v", err)
		}
	})
}

// TestReadAtBlockBoundaries reads at ±1 around every checksum-block
// boundary of a shard with a short final block, on both backends: each read
// must return exact bytes with no false corruption from the edge-fragment
// completion logic.
func TestReadAtBlockBoundaries(t *testing.T) {
	backendModes(t, func(t *testing.T, b *Backend) {
		shard := make([]byte, 3*ChecksumBlock+123) // short final block
		rand.New(rand.NewSource(7)).Read(shard)
		b.Put("obj", shard, 0, len(shard), 0)
		probe := func(off, n int64) {
			t.Helper()
			if off < 0 || off+n > int64(len(shard)) {
				return
			}
			buf := make([]byte, n)
			if err := b.ReadAt("obj", buf, off); err != nil {
				t.Fatalf("readat off=%d len=%d: %v", off, n, err)
			}
			if !bytes.Equal(buf, shard[off:off+n]) {
				t.Fatalf("readat off=%d len=%d: wrong bytes", off, n)
			}
		}
		for blk := int64(0); blk <= 3; blk++ {
			edge := blk * ChecksumBlock
			for _, off := range []int64{edge - 1, edge, edge + 1} {
				for _, n := range []int64{1, 2, ChecksumBlock - 1, ChecksumBlock, ChecksumBlock + 1} {
					probe(off, n)
				}
			}
		}
		// The short final block, whole and in slivers.
		probe(3*ChecksumBlock, 123)
		probe(int64(len(shard))-1, 1)
		probe(int64(len(shard))-122, 121)
		if b.Quarantined() != 0 {
			t.Fatalf("clean shard quarantined %d times", b.Quarantined())
		}

		// A shard smaller than one checksum block behaves too.
		tiny := shard[:300]
		b.Put("tiny", tiny, 0, len(tiny), 0)
		buf := make([]byte, 100)
		if err := b.ReadAt("tiny", buf, 200); err != nil || !bytes.Equal(buf, tiny[200:300]) {
			t.Fatalf("tiny tail read: %v", err)
		}
	})
}

// TestAbortAfterCommitIsNoop commits a stage, then aborts it: the abort
// must not unpublish the shard, remove its file, or skew the staging
// metrics (the stage was already consumed).
func TestAbortAfterCommitIsNoop(t *testing.T) {
	backendModes(t, func(t *testing.T, b *Backend) {
		shard := make([]byte, ChecksumBlock+10)
		rand.New(rand.NewSource(8)).Read(shard)
		st := b.NewStage()
		if err := st.Append(shard); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(st, "obj", 0, len(shard), 0); err != nil {
			t.Fatal(err)
		}
		st.Abort() // too late: must be a no-op
		got, _, err := b.Get("obj")
		if err != nil || !bytes.Equal(got, shard) {
			t.Fatalf("get after abort-after-commit: %v", err)
		}
		if blocks, _, err := b.Verify("obj"); err != nil || blocks != 2 {
			t.Fatalf("verify after abort-after-commit: blocks=%d err=%v", blocks, err)
		}
	})
}

// TestWipeDropsQuarantineAndStages wipes a backend holding live shards, a
// quarantined shard and an in-flight stage: everything must go, including
// the sidelined file and the stage temp file on disk.
func TestWipeDropsQuarantineAndStages(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	shard := make([]byte, 2*ChecksumBlock)
	rand.New(rand.NewSource(9)).Read(shard)
	b.Put("keep", shard, 0, len(shard), 0)
	b.Put("rot", shard, 0, len(shard), 0)
	if err := b.CorruptShard("rot", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Get("rot"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("get of corrupted shard: %v", err)
	}
	st := b.NewStage()
	if err := st.Append(shard); err != nil {
		t.Fatal(err)
	}
	if b.Quarantined() != 1 {
		t.Fatalf("quarantined = %d, want 1", b.Quarantined())
	}
	b.Wipe()
	if b.Objects() != 0 || b.Quarantined() != 0 {
		t.Fatalf("after wipe: %d objects, %d quarantined", b.Objects(), b.Quarantined())
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		t.Errorf("file survived wipe: %s", f.Name())
	}

	// Delete must also drop an object's quarantined remains.
	b.Put("rot2", shard, 0, len(shard), 0)
	if err := b.CorruptShard("rot2", 5); err != nil {
		t.Fatal(err)
	}
	b.Get("rot2")
	if b.Quarantined() != 1 {
		t.Fatalf("quarantined = %d, want 1", b.Quarantined())
	}
	b.Delete("rot2")
	if b.Quarantined() != 0 {
		t.Fatal("delete left quarantined remains")
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.quarantine")); len(files) != 0 {
		t.Fatalf("quarantine files survived delete: %v", files)
	}
}

// TestVerifyShardFileOffline exercises the sidecar walk the offline
// `rainnode scrub` command uses: committed records verify without any
// in-memory metadata, a flipped bit fails with its block and segment@offset
// named, and a torn sidecar tail reports as unchecked, not as a crash.
func TestVerifyShardFileOffline(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	shard := make([]byte, 2*ChecksumBlock+9)
	rand.New(rand.NewSource(10)).Read(shard)
	b.Put("obj", shard, 0, len(shard), 0)
	b.Put("next", shard[:100], 0, 100, 0)
	scrub := func() map[string]Scrubbed {
		t.Helper()
		got := map[string]Scrubbed{}
		if err := VerifyDir(dir, func(r Scrubbed) { got[r.Name] = r }); err != nil {
			t.Fatal(err)
		}
		return got
	}
	clean := scrub()
	if r := clean["seg-000001@0"]; len(clean) != 2 || r.Err != nil || r.Payload != int64(len(shard)) || r.Blocks != 3 {
		t.Fatalf("offline verify: %+v", clean)
	}
	if r := clean[fmt.Sprintf("seg-000001@%d", len(shard))]; r.Err != nil || r.Blocks != 1 {
		t.Fatalf("second record: %+v", clean)
	}

	if err := b.CorruptShard("obj", ChecksumBlock+1); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if r := scrub()["seg-000001@0"]; !errors.As(r.Err, &ce) || ce.Block != 1 || ce.ID != "seg-000001@0" || r.Blocks != 1 {
		t.Fatalf("offline verify of corrupt record: %+v", r)
	}

	idx := filepath.Join(dir, "seg-000001.idx")
	st, err := os.Stat(idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(idx, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	torn := scrub()
	if len(torn) != 2 || !errors.Is(torn["seg-000001@0"].Err, ErrCorrupt) {
		t.Fatalf("after tearing the sidecar: %+v", torn)
	}
	first := int64(4*3 + 12) // the first record's entry: 3 sums + 12 bytes
	if r := torn[fmt.Sprintf("seg-000001.idx@%d", first)]; !errors.Is(r.Err, ErrNoChecksum) {
		t.Fatalf("torn sidecar tail: %+v", torn)
	}

	// A tail that checksums but lists no extents is damage too, not a record.
	empty := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(nil, multiExtent), 0)
	empty = binary.BigEndian.AppendUint32(empty, crc32.Checksum(empty, castagnoli))
	if err := os.Truncate(idx, first); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(idx, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(empty)
	f.Close()
	if r := scrub()[fmt.Sprintf("seg-000001.idx@%d", first)]; !errors.Is(r.Err, ErrNoChecksum) {
		t.Fatalf("extent-less sidecar entry: %+v", r)
	}
}

// TestOverwriteDefusesStaleCorruption overwrites an object while a reader
// holds the old entry: the stale read's quarantine must not sideline the
// fresh bytes (the per-entry sequence guard).
func TestOverwriteDefusesStaleCorruption(t *testing.T) {
	b := NewBackend()
	old := make([]byte, ChecksumBlock)
	rand.New(rand.NewSource(11)).Read(old)
	b.Put("obj", old, 0, len(old), 0)
	b.mu.Lock()
	stale := b.shards["obj"]
	b.mu.Unlock()
	fresh := make([]byte, ChecksumBlock)
	rand.New(rand.NewSource(12)).Read(fresh)
	b.Put("obj", fresh, 0, len(fresh), 0)
	// A verification failure against the old entry arrives late.
	if err := b.corrupt("obj", stale, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stale corrupt: %v", err)
	}
	if b.Quarantined() != 0 {
		t.Fatalf("stale read quarantined the fresh shard")
	}
	if got, _, err := b.Get("obj"); err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("fresh shard unreadable after stale corruption report: %v", err)
	}
}

// TestReadAtVerifyZeroAllocs pins the streaming read path's verification
// cost: an aligned block read — the daemon chunk pump's shape — must not
// allocate, on either backend (the file backend reads through the open
// segment, not a file opened per call).
func TestReadAtVerifyZeroAllocs(t *testing.T) {
	backendModes(t, func(t *testing.T, b *Backend) {
		shard := make([]byte, 16*ChecksumBlock)
		rand.New(rand.NewSource(13)).Read(shard)
		b.Put("obj", shard, 0, len(shard), 0)
		buf := make([]byte, ChecksumBlock)
		allocs := testing.AllocsPerRun(100, func() {
			if err := b.ReadAt("obj", buf, 4*ChecksumBlock); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("aligned verified ReadAt allocates %v per op, want 0", allocs)
		}
	})
}
