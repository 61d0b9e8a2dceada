package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rain/internal/telemetry"
)

// TestFileBackendCreatesNoFilePerShard pins the log's point: a thousand
// stage/commit cycles of a small shard create a handful of files, not one
// per shard, and chunk reads open none.
func TestFileBackendCreatesNoFilePerShard(t *testing.T) {
	b, err := NewFileBackend(t.TempDir(), telemetry.NewRegistry().Root())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	shard := make([]byte, 1<<10)
	rand.New(rand.NewSource(20)).Read(shard)
	for i := 0; i < 1000; i++ {
		st := b.NewStage()
		if err := st.Append(shard); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(st, fmt.Sprint("obj", i), 0, len(shard), 0); err != nil {
			t.Fatal(err)
		}
	}
	created := b.met.filesCreated.Value()
	if created > 10 {
		t.Fatalf("1000 commits created %d files, want <= 10", created)
	}
	fds := openFDs(t)
	buf := make([]byte, len(shard))
	for i := 0; i < 1000; i++ {
		if err := b.ReadAt(fmt.Sprint("obj", i), buf, 0); err != nil || !bytes.Equal(buf, shard) {
			t.Fatalf("read obj%d: %v", i, err)
		}
	}
	if n := b.met.filesCreated.Value() - created; n != 0 {
		t.Fatalf("1000 reads created %d files", n)
	}
	if n := openFDs(t); n != fds {
		t.Fatalf("open fds %d -> %d across the reads", fds, n)
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestFileBackendReopenStartsEmpty reopens a used directory — with a live
// log and files of the older file-per-shard layout in it — and finds it
// empty: no start reads anything back, so nothing may be left to leak.
// Open/put/close cycles leave the count of open descriptors flat.
func TestFileBackendReopenStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"6f626a.shard", ".stage-1-123", "6f626a.shard.quarantine"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fds := -1
	for i := 0; i < 50; i++ {
		b, err := NewFileBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Fatalf("cycle %d: reopened directory holds %d files", i, len(left))
		}
		if err := b.Put("obj", []byte("payload"), 0, 7, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if err := b.Put("late", []byte("x"), 0, 1, 0); err == nil {
			t.Fatal("put after close accepted")
		}
		if n := openFDs(t); fds < 0 {
			fds = n
		} else if n != fds {
			t.Fatalf("cycle %d: open fds %d, want %d", i, n, fds)
		}
	}
}

// TestLogReclaimsSpace drives random puts, overwrites and deletes of mixed
// sizes through a file backend with small segments, compacting as a scrub
// pacer would: the log stays within twice the live bytes plus two segments,
// every survivor reads back, and deleting everything leaves only the active
// segment and its sidecar.
func TestLogReclaimsSpace(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.segSize = 256 << 10
	rng := rand.New(rand.NewSource(21))
	want := map[string][]byte{}
	for i := 0; i < 20000; i++ {
		id := fmt.Sprint("k", rng.Intn(300))
		if rng.Intn(3) == 0 {
			b.Delete(id)
			delete(want, id)
		} else {
			shard := make([]byte, 1+rng.Intn(12<<10))
			rng.Read(shard)
			st := b.NewStage()
			for off := 0; off < len(shard); off += 4 << 10 {
				if err := st.Append(shard[off:min(off+4<<10, len(shard))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Commit(st, id, 0, len(shard), 0); err != nil {
				t.Fatal(err)
			}
			want[id] = shard
		}
		if i%500 == 499 {
			b.Compact(1 << 20)
		}
	}
	b.Compact(1 << 30)
	var live int64
	for id, shard := range want {
		live += int64(len(shard))
		got, _, err := b.Get(id)
		if err != nil || !bytes.Equal(got, shard) {
			t.Fatalf("%s after compaction: %v", id, err)
		}
	}
	if disk := dirBytes(t, dir); disk > 2*live+2*b.segSize {
		t.Fatalf("log holds %d bytes for %d live", disk, live)
	}
	for id := range want {
		b.Delete(id)
	}
	left, _ := os.ReadDir(dir)
	if len(left) != 2 || len(b.segs) != 1 {
		t.Fatalf("after deleting everything: %d files, %d segments", len(left), len(b.segs))
	}
}

func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}
