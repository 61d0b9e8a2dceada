package main

import (
	"bytes"
	"strings"
	"testing"

	"rain/internal/storage"
)

// TestScrubDir runs `rainnode scrub -dir` over a node's log: a clean store
// exits 0, and after a bit flip it exits 1 naming the record by
// segment@offset.
func TestScrubDir(t *testing.T) {
	dir := t.TempDir()
	b, err := storage.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	shard := bytes.Repeat([]byte("rain"), 3000)
	for _, id := range []string{"a", "b"} {
		if err := b.Put(id, shard, 0, len(shard), 0); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if code := scrub(dir, false, &out); code != 0 {
		t.Fatalf("clean store: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "2 records ok") {
		t.Fatalf("clean report: %s", out.String())
	}
	if err := b.CorruptShard("b", 5000); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := scrub(dir, false, &out); code != 1 {
		t.Fatalf("corrupt store: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "CORRUPT  seg-000001@12000") || !strings.Contains(out.String(), "block 1") {
		t.Fatalf("corrupt report: %s", out.String())
	}
}
