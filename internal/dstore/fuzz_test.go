package dstore

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"rain/internal/storage"
)

// FuzzUnmarshal feeds arbitrary buffers to the message decoder: it must
// never panic or over-read (Data and the string fields alias the input, so
// a sloppy bound would read outside it), and anything it accepts must
// re-marshal to the identical buffer.
func FuzzUnmarshal(f *testing.F) {
	seeds := []Msg{
		{Kind: KindPutChunk, Req: 7, ID: "obj0", Off: 16384, ShardLen: 65536,
			DataLen: 262144, BlockLen: 65536, Win: 4, Data: []byte("chunk bytes")},
		{Kind: KindPutAck, Req: 7, ID: "obj0", Off: 32768, ShardLen: 65536},
		{Kind: KindGetReq, Req: 9, ID: "an object with a longer id", Win: 6},
		{Kind: KindGetChunk, Req: 9, ID: "obj0", Shard: 3, Off: 0,
			ShardLen: 65536, DataLen: -1, Data: []byte{1, 2, 3}},
		{Kind: KindGetAck, Req: 9, ID: "obj0", Off: -1},
		{Kind: KindDeleteResp, Req: 11, ID: "obj0", Err: "storage: object not found"},
		// Well-formed but refused by the daemon: no get window, no shard index.
		{Kind: KindGetReq, Req: 12, ID: "obj0"},
		{Kind: KindPutChunk, Req: 13, ID: "obj0", Shard: -1, ShardLen: 8, DataLen: 8, Data: []byte("8 bytes!")},
		// The digest on a commit chunk and on a stream's first get chunk.
		{Kind: KindPutChunk, Req: 14, ID: "obj0", Shard: 2, Off: 49152, ShardLen: 65536,
			DataLen: 262144, BlockLen: 65536, Win: 4, Digest: sha256.Sum256([]byte("obj0")), Data: []byte("last chunk")},
		{Kind: KindGetChunk, Req: 15, ID: "obj0", Shard: 1, ShardLen: 65536, DataLen: 262144,
			BlockLen: 65536, Digest: sha256.Sum256([]byte("obj0")), Data: []byte{4, 5, 6}},
	}
	for _, m := range seeds {
		f.Add(m.Marshal())
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, msgHeader))
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := Unmarshal(buf)
		if err != nil {
			return
		}
		out := m.Marshal()
		if !bytes.Equal(out, buf) {
			t.Fatalf("accepted message does not round-trip: in=%x out=%x", buf, out)
		}
	})
}

// FuzzDecodeInventory feeds arbitrary buffers to the inventory decoder: it
// must never panic, over-read, or let a forged entry count drive a huge
// allocation, and whatever it accepts must re-encode to the same bytes.
func FuzzDecodeInventory(f *testing.F) {
	seeds := [][]storage.ObjectInfo{
		nil,
		{{ID: "obj0", Shard: 2, DataLen: 262144, ShardLen: 65536, BlockLen: 65536, Digest: sha256.Sum256([]byte("obj0"))}},
		{{ID: "a", Shard: -1, DataLen: -1, ShardLen: 1},
			{ID: "b", Shard: 0, DataLen: 0, ShardLen: 0, BlockLen: 0}},
	}
	for _, infos := range seeds {
		f.Add(encodeInventory(infos))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, buf []byte) {
		infos, err := decodeInventory(buf)
		if err != nil {
			return
		}
		out := encodeInventory(infos)
		if !bytes.Equal(out, buf) {
			t.Fatalf("accepted inventory does not round-trip: in=%x out=%x", buf, out)
		}
	})
}
