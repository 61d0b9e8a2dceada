package dstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rain/internal/storage"
)

// digestOf is a recognisable test digest.
func digestOf(s string) storage.Digest { return sha256.Sum256([]byte(s)) }

func TestMsgRoundtrip(t *testing.T) {
	msgs := []Msg{
		// The digest rides on a commit chunk, a stream's first get chunk
		// (here an empty shard's only one) and every inventory entry.
		{Kind: KindPutChunk, Req: 15, ID: "obj", Shard: 1, Off: 3072, ShardLen: 4096, DataLen: 12345, BlockLen: 64 << 10, Digest: digestOf("v1"), Data: bytes.Repeat([]byte{9}, 1024)},
		{Kind: KindGetChunk, Req: 16, ID: "obj", Shard: 4, ShardLen: 4096, DataLen: 12345, BlockLen: 64 << 10, Digest: digestOf("v1"), Data: []byte{5, 6}},
		{Kind: KindGetChunk, Req: 17, ID: "empty", BlockLen: 64 << 10, Digest: digestOf("")},
		{Kind: KindListResp, Req: 18, Data: encodeInventory([]storage.ObjectInfo{{ID: "z", Shard: 1, DataLen: 9, ShardLen: 3, BlockLen: 4, Digest: digestOf("z")}})},
		{Kind: KindPutChunk, Req: 1, ID: "obj", Off: 0, ShardLen: 4096, DataLen: 12345, BlockLen: 64 << 10, Data: bytes.Repeat([]byte{7}, 1024)},
		{Kind: KindPutAck, Req: 2, ID: "obj", Off: 1024, ShardLen: 4096},
		{Kind: KindPutAck, Req: 3, ID: "obj", Err: "dstore: no such transfer"},
		{Kind: KindGetReq, Req: 4, ID: "an object with spaces", Off: 32 << 10, Win: 8},
		{Kind: KindGetChunk, Req: 5, ID: "obj", Shard: 3, Off: 8192, ShardLen: 1 << 20, DataLen: -1, BlockLen: 16 << 10, Data: []byte{1, 2, 3}},
		{Kind: KindListReq, Req: 6},
		{Kind: KindListResp, Req: 7, Shard: 2, Data: encodeInventory([]storage.ObjectInfo{{ID: "x", DataLen: 9, ShardLen: 3, BlockLen: 4}})},
		{Kind: KindGetAck, Req: 8, ID: "obj", Off: 48 << 10},
		{Kind: KindGetAck, Req: 9, ID: "obj", Off: -1},
		{Kind: KindPutChunk, Req: 10, ID: "obj", Shard: -1, ShardLen: 8, Data: []byte{1}},
		{Kind: KindListReq, Req: 11, ID: "resume-after-this-id"},
		{Kind: KindListResp, Req: 12, Shard: 2, Win: 1, Data: encodeInventory([]storage.ObjectInfo{{ID: "y", Shard: 5, DataLen: 9, ShardLen: 3}})},
		{Kind: KindDeleteReq, Req: 13, ID: "obj"},
		{Kind: KindDeleteResp, Req: 14, ID: "obj"},
	}
	for _, m := range msgs {
		got, err := Unmarshal(m.Marshal())
		if err != nil {
			t.Fatalf("%s: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%s roundtrip:\n  sent %+v\n  got  %+v", m.Kind, m, got)
		}
	}
}

func TestMsgNegativeDataLenSurvives(t *testing.T) {
	m := Msg{Kind: KindGetChunk, Req: 1, ID: "o", DataLen: -1, Off: -1}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.DataLen != -1 || got.Off != -1 {
		t.Fatalf("negative fields corrupted: %+v", got)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0}, msgHeader), // kind 0
		append(Msg{Kind: KindGetReq, ID: "obj"}.Marshal(), 0xFF), // trailing byte
		Msg{Kind: KindGetReq, ID: "obj"}.Marshal()[:msgHeader+1], // truncated id
		withDigestLen(Msg{Kind: KindGetChunk, ID: "obj", Digest: digestOf("x")}.Marshal(), 31),
		withDigestLen(append(Msg{Kind: KindGetChunk}.Marshal(), make([]byte, 32)...), 32), // a zero digest is never sent
	}
	for i, buf := range cases {
		if _, err := Unmarshal(buf); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

// withDigestLen overwrites an encoded message's digest-length byte.
func withDigestLen(buf []byte, n byte) []byte {
	buf[msgHeader-1] = n
	return buf
}

func TestInventoryRoundtrip(t *testing.T) {
	infos := []storage.ObjectInfo{
		{ID: "a", DataLen: 0, ShardLen: 1, Digest: digestOf("a")},
		{ID: "obj-2", Shard: 3, DataLen: -1, ShardLen: 4096, BlockLen: 16 << 10},
		{ID: "big", Shard: -1, DataLen: 1 << 30, ShardLen: 1 << 27, BlockLen: 1 << 20},
	}
	got, err := decodeInventory(encodeInventory(infos))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(infos, got) {
		t.Fatalf("inventory roundtrip:\n  sent %+v\n  got  %+v", infos, got)
	}
	if out, err := decodeInventory(encodeInventory(nil)); err != nil || len(out) != 0 {
		t.Fatalf("empty inventory: %v %v", out, err)
	}
	if _, err := decodeInventory([]byte{0, 0, 0, 5}); err == nil {
		t.Fatal("truncated inventory accepted")
	}
}

// TestInventoryPaging checks the continuation-token walk: pages respect the
// byte bound, resume strictly after the token, always make progress, and
// cover the whole inventory exactly once.
func TestInventoryPaging(t *testing.T) {
	var infos []storage.ObjectInfo
	for i := 0; i < 500; i++ {
		infos = append(infos, storage.ObjectInfo{ID: fmt.Sprintf("object-%04d", i), Shard: i % 8, DataLen: i, ShardLen: i * 2, BlockLen: 64 << 10})
	}
	const maxBytes = 2 << 10
	var walked []storage.ObjectInfo
	after := ""
	pages := 0
	for {
		buf, more := encodeInventoryPage(infos, after, maxBytes)
		if len(buf) > maxBytes {
			t.Fatalf("page of %d bytes over the %d bound", len(buf), maxBytes)
		}
		page, err := decodeInventory(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 && more {
			t.Fatal("empty page claims more data")
		}
		walked = append(walked, page...)
		pages++
		if !more {
			break
		}
		after = page[len(page)-1].ID
	}
	if pages < 10 {
		t.Fatalf("only %d pages for 500 entries under a %d-byte bound", pages, maxBytes)
	}
	if !reflect.DeepEqual(infos, walked) {
		t.Fatalf("paged walk diverged: %d entries, want %d", len(walked), len(infos))
	}
	// A single over-sized entry still ships (progress guarantee).
	big := []storage.ObjectInfo{{ID: strings.Repeat("x", 4<<10)}}
	buf, more := encodeInventoryPage(big, "", maxBytes)
	if page, err := decodeInventory(buf); err != nil || len(page) != 1 || more {
		t.Fatalf("oversized entry page: %v %v more=%v", page, err, more)
	}
}
