package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// backendModes runs a subtest against a memory-backed and a file-backed
// backend, so every behaviour is verified identical in both modes.
func backendModes(t *testing.T, fn func(t *testing.T, b *Backend)) {
	t.Run("memory", func(t *testing.T) { fn(t, NewBackend()) })
	t.Run("file", func(t *testing.T) {
		b, err := NewFileBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		fn(t, b)
	})
}

func TestBackendPutGetMeta(t *testing.T) {
	backendModes(t, func(t *testing.T, b *Backend) {
		shard := []byte("some shard bytes")
		b.Put("obj/with:odd id", shard, 0, 123, 64)
		got, dataLen, err := b.Get("obj/with:odd id")
		if err != nil || !bytes.Equal(got, shard) || dataLen != 123 {
			t.Fatalf("get: %q %d %v", got, dataLen, err)
		}
		info, err := b.Info("obj/with:odd id")
		if err != nil || info.ShardLen != len(shard) || info.DataLen != 123 || info.BlockLen != 64 {
			t.Fatalf("info: %+v %v", info, err)
		}
		list := b.List()
		if len(list) != 1 || list[0].BlockLen != 64 {
			t.Fatalf("list: %+v", list)
		}
		if _, err := b.Info("ghost"); !errors.Is(err, ErrObjectNotFound) {
			t.Fatalf("ghost info: %v", err)
		}
		b.Delete("obj/with:odd id")
		if _, _, err := b.Get("obj/with:odd id"); !errors.Is(err, ErrObjectNotFound) {
			t.Fatalf("get after delete: %v", err)
		}
	})
}

func TestBackendReadAt(t *testing.T) {
	backendModes(t, func(t *testing.T, b *Backend) {
		shard := make([]byte, 10<<10)
		rand.New(rand.NewSource(1)).Read(shard)
		b.Put("obj", shard, 0, len(shard)*2, 0)
		// Walk the shard in uneven chunks and reassemble.
		var got []byte
		buf := make([]byte, 1000)
		for off := int64(0); off < int64(len(shard)); {
			n := int64(len(buf))
			if off+n > int64(len(shard)) {
				n = int64(len(shard)) - off
			}
			if err := b.ReadAt("obj", buf[:n], off); err != nil {
				t.Fatalf("readat %d: %v", off, err)
			}
			got = append(got, buf[:n]...)
			off += n
		}
		if !bytes.Equal(got, shard) {
			t.Fatal("ranged reads reassembled wrong")
		}
		if err := b.ReadAt("obj", buf, int64(len(shard))-10); err == nil {
			t.Fatal("range past end accepted")
		}
		if err := b.ReadAt("ghost", buf, 0); !errors.Is(err, ErrObjectNotFound) {
			t.Fatalf("ghost readat: %v", err)
		}
		// Only offset-0 reads count toward the balancing load.
		reads, _ := b.Loads()
		if reads != 1 {
			t.Fatalf("reads=%d, want 1 (one per stream start)", reads)
		}
	})
}

func TestBackendStageCommit(t *testing.T) {
	backendModes(t, func(t *testing.T, b *Backend) {
		shard := make([]byte, 40<<10)
		rand.New(rand.NewSource(2)).Read(shard)
		st := b.NewStage()
		for off := 0; off < len(shard); off += 4 << 10 {
			if err := st.Append(shard[off : off+(4<<10)]); err != nil {
				t.Fatal(err)
			}
		}
		if st.Len() != int64(len(shard)) {
			t.Fatalf("stage len %d", st.Len())
		}
		// Not visible until commit.
		if _, _, err := b.Get("obj"); err == nil {
			t.Fatal("uncommitted stage visible")
		}
		if err := b.Commit(st, "obj", 0, len(shard)*3, 8<<10); err != nil {
			t.Fatal(err)
		}
		got, dataLen, err := b.Get("obj")
		if err != nil || !bytes.Equal(got, shard) || dataLen != len(shard)*3 {
			t.Fatalf("get after commit: %d bytes, dataLen %d, %v", len(got), dataLen, err)
		}
		if err := st.Append([]byte("x")); err == nil {
			t.Fatal("append to consumed stage accepted")
		}
		// An aborted stage leaves no trace.
		ab := b.NewStage()
		if err := ab.Append(shard); err != nil {
			t.Fatal(err)
		}
		ab.Abort()
		if err := b.Commit(ab, "obj2", 0, 0, 0); err == nil {
			t.Fatal("commit of aborted stage accepted")
		}
		if b.Objects() != 1 {
			t.Fatalf("objects=%d, want 1", b.Objects())
		}
	})
}

func TestBackendWipeRemovesFiles(t *testing.T) {
	backendModes(t, func(t *testing.T, b *Backend) {
		b.Put("a", []byte("1"), 0, 1, 0)
		b.Put("b", []byte("2"), 0, 1, 0)
		b.Wipe()
		if b.Objects() != 0 {
			t.Fatalf("objects after wipe: %d", b.Objects())
		}
		if _, _, err := b.Get("a"); !errors.Is(err, ErrObjectNotFound) {
			t.Fatalf("get after wipe: %v", err)
		}
		// The backend is usable again after a wipe.
		b.Put("c", []byte("3"), 0, 1, 0)
		if got, _, err := b.Get("c"); err != nil || string(got) != "3" {
			t.Fatalf("put after wipe: %q %v", got, err)
		}
	})
}
