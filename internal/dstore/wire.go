package dstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"rain/internal/netbuf"
	"rain/internal/storage"
)

// Kind discriminates dstore wire messages.
type Kind uint8

// Wire message kinds. Requests flow client -> daemon on ServiceDaemon;
// responses flow daemon -> client on ServiceClient, echoing Req. The full
// field semantics and the block-codeword shard-stream layout they assume are
// documented in DESIGN.md ("The block-codeword contract").
const (
	// KindPutChunk carries one chunk of a shard stream being stored. Chunks
	// of one transfer share a Req and arrive in offset order (RUDP is FIFO
	// per node pair); the daemon appends each chunk to a staged write and
	// commits the shard when the last byte lands. That last (commit) chunk
	// carries the object's Digest, which the daemon records beside the shard.
	KindPutChunk Kind = iota + 1
	// KindPutAck acknowledges put progress through Off bytes (or an error).
	KindPutAck
	// KindGetReq asks a daemon to stream its shard of an object starting at
	// byte Off (0 for the whole stream; a block boundary when a retrieve
	// hedges mid-object). Win is the client's flow-control window in chunks:
	// the daemon keeps at most Win chunks beyond the client's last GetAck in
	// flight. Win must be positive; a daemon refuses a get without one.
	KindGetReq
	// KindGetChunk carries one chunk of a streamed shard (or an error).
	// Every chunk carries the object metadata (ShardLen, DataLen, BlockLen)
	// so the client can lay out the block codewords from the first chunk of
	// whichever stream answers first; a stream's first chunk also carries
	// the recorded Digest, which names the version the stream serves.
	KindGetChunk
	// KindListReq asks a daemon for a page of its object inventory. ID is
	// the continuation token: the object id to resume after, empty for the
	// first page. Inventories are paged because a daemon placed into many
	// objects holds far more entries than fit in one datagram.
	KindListReq
	// KindListResp returns one inventory page, encoded in Data. Win is 1
	// when more pages remain; the client re-requests with ID set to the
	// last object id of this page. Paging by id (not offset) keeps the walk
	// correct even if the inventory changes between pages.
	KindListResp
	// KindGetAck is the client's flow-control credit on a windowed get
	// stream: the client has consumed the stream through byte Off, so the
	// daemon may send through Off + Win chunks. An Off of -1 cancels the
	// stream (the retrieve finished without it).
	KindGetAck
	// KindDeleteReq asks a daemon to drop its shard of an object — the
	// cleanup half of a rebalance move, sent only after the shard's new
	// holder has committed. Deleting an absent object succeeds (idempotent).
	KindDeleteReq
	// KindDeleteResp acknowledges a delete (or reports an error).
	KindDeleteResp
)

func (k Kind) String() string {
	switch k {
	case KindPutChunk:
		return "putchunk"
	case KindPutAck:
		return "putack"
	case KindGetReq:
		return "getreq"
	case KindGetChunk:
		return "getchunk"
	case KindListReq:
		return "listreq"
	case KindListResp:
		return "listresp"
	case KindGetAck:
		return "getack"
	case KindDeleteReq:
		return "deletereq"
	case KindDeleteResp:
		return "deleteresp"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Msg is one dstore protocol message. Field meaning depends on Kind; unused
// fields are zero.
type Msg struct {
	Kind     Kind
	Req      uint64         // request id, chosen by the client, echoed by the daemon
	ID       string         // object id
	Shard    int32          // shard index held by the daemon
	Win      int32          // flow-control window in chunks (gets require > 0)
	Off      int64          // chunk offset within the shard stream / acked byte count
	ShardLen int64          // total shard-stream length of the transfer
	DataLen  int64          // original object length
	BlockLen int64          // block-codeword size of the layout (puts require >= 1)
	Err      string         // error detail on responses
	Digest   storage.Digest // object digest on commit and first get chunks; zero = absent
	Data     []byte         // chunk payload or encoded inventory
}

// ErrBadMsg reports a malformed encoded dstore message.
var ErrBadMsg = errors.New("dstore: malformed message")

// msgHeader is the fixed wire header:
// kind req shard win off shardLen dataLen blockLen idLen errLen dataLen32
// digestLen. The variable part follows: id, err, digest (0 or 32 bytes),
// data.
const msgHeader = 1 + 8 + 4 + 4 + 8 + 8 + 8 + 8 + 2 + 2 + 4 + 1

// digestLen is the wire length of m's digest: a zero digest is not sent.
func (m *Msg) digestLen() int {
	if m.Digest == (storage.Digest{}) {
		return 0
	}
	return len(m.Digest)
}

// wireLen is the encoded size of m with dataLen payload bytes.
func (m *Msg) wireLen(dataLen int) int {
	return msgHeader + len(m.ID) + len(m.Err) + m.digestLen() + dataLen
}

// marshalInto encodes the header, ID, Err and Digest into buf (sized by the
// caller), declaring dataLen payload bytes, and returns the data region for
// the caller to fill.
func (m Msg) marshalInto(buf []byte, dataLen int) []byte {
	if len(m.ID) > 0xffff || len(m.Err) > 0xffff {
		panic("dstore: id or error string too long")
	}
	buf[0] = byte(m.Kind)
	binary.BigEndian.PutUint64(buf[1:], m.Req)
	binary.BigEndian.PutUint32(buf[9:], uint32(m.Shard))
	binary.BigEndian.PutUint32(buf[13:], uint32(m.Win))
	binary.BigEndian.PutUint64(buf[17:], uint64(m.Off))
	binary.BigEndian.PutUint64(buf[25:], uint64(m.ShardLen))
	binary.BigEndian.PutUint64(buf[33:], uint64(m.DataLen))
	binary.BigEndian.PutUint64(buf[41:], uint64(m.BlockLen))
	binary.BigEndian.PutUint16(buf[49:], uint16(len(m.ID)))
	binary.BigEndian.PutUint16(buf[51:], uint16(len(m.Err)))
	binary.BigEndian.PutUint32(buf[53:], uint32(dataLen))
	dl := m.digestLen()
	buf[57] = byte(dl)
	off := msgHeader
	off += copy(buf[off:], m.ID)
	off += copy(buf[off:], m.Err)
	off += copy(buf[off:], m.Digest[:dl])
	return buf[off : off+dataLen]
}

// Marshal encodes m for transmission as one mesh datagram, allocating a fresh
// buffer. The hot paths use NewMsgFrame instead.
func (m Msg) Marshal() []byte {
	buf := make([]byte, m.wireLen(len(m.Data)))
	copy(m.marshalInto(buf, len(m.Data)), m.Data)
	return buf
}

// NewMsgFrame encodes m's header, ID and Err directly into a pooled frame
// sized for dataLen payload bytes, and returns the frame together with the
// payload's data region so the producer (erasure encoder, backend read) can
// write the bytes in place — the zero-copy Marshal. m.Data is ignored; the
// caller owns the returned frame reference.
func NewMsgFrame(m Msg, dataLen int) (*netbuf.Frame, []byte) {
	f := netbuf.NewFrame(m.wireLen(dataLen))
	return f, m.marshalInto(f.Payload(), dataLen)
}

// MarshalFrame encodes m (including m.Data) into a pooled frame.
func (m Msg) MarshalFrame() *netbuf.Frame {
	f, data := NewMsgFrame(m, len(m.Data))
	copy(data, m.Data)
	return f
}

// Unmarshal decodes a message produced by Marshal. The returned Data aliases
// buf — it is valid only until the transport reclaims the receive buffer
// (for mesh handlers: until the handler returns); retainers must copy.
func Unmarshal(buf []byte) (Msg, error) {
	if len(buf) < msgHeader {
		return Msg{}, fmt.Errorf("%w: %d bytes", ErrBadMsg, len(buf))
	}
	m := Msg{
		Kind:     Kind(buf[0]),
		Req:      binary.BigEndian.Uint64(buf[1:]),
		Shard:    int32(binary.BigEndian.Uint32(buf[9:])),
		Win:      int32(binary.BigEndian.Uint32(buf[13:])),
		Off:      int64(binary.BigEndian.Uint64(buf[17:])),
		ShardLen: int64(binary.BigEndian.Uint64(buf[25:])),
		DataLen:  int64(binary.BigEndian.Uint64(buf[33:])),
		BlockLen: int64(binary.BigEndian.Uint64(buf[41:])),
	}
	if m.Kind < KindPutChunk || m.Kind > KindDeleteResp {
		return Msg{}, fmt.Errorf("%w: kind %d", ErrBadMsg, buf[0])
	}
	idLen := int(binary.BigEndian.Uint16(buf[49:]))
	errLen := int(binary.BigEndian.Uint16(buf[51:]))
	dataLen := int(binary.BigEndian.Uint32(buf[53:]))
	digLen := int(buf[57])
	if digLen != 0 && digLen != len(m.Digest) {
		return Msg{}, fmt.Errorf("%w: %d-byte digest", ErrBadMsg, digLen)
	}
	if len(buf) != msgHeader+idLen+errLen+digLen+dataLen {
		return Msg{}, fmt.Errorf("%w: %d bytes for id=%d err=%d digest=%d data=%d", ErrBadMsg, len(buf), idLen, errLen, digLen, dataLen)
	}
	off := msgHeader
	m.ID = string(buf[off : off+idLen])
	off += idLen
	m.Err = string(buf[off : off+errLen])
	off += errLen
	off += copy(m.Digest[:digLen], buf[off:])
	if digLen != 0 && m.Digest == (storage.Digest{}) {
		// A zero digest is never sent; accepting one would not round-trip.
		return Msg{}, fmt.Errorf("%w: zero digest on the wire", ErrBadMsg)
	}
	if dataLen > 0 {
		m.Data = buf[off:]
	}
	return m, nil
}

// inventoryFixed is the encoded size of one inventory entry less its id:
// idLen shard dataLen shardLen blockLen digest.
const inventoryFixed = 2 + 4 + 8 + 8 + 8 + len(storage.Digest{})

// inventoryEntrySize is the encoded size of one inventory entry.
func inventoryEntrySize(in storage.ObjectInfo) int {
	return inventoryFixed + len(in.ID)
}

// MaxListPayload bounds one ListResp page so the message stays comfortably
// inside a mesh datagram alongside its header.
const MaxListPayload = 32 << 10

// encodeInventory packs a daemon's object inventory into a ListResp payload.
func encodeInventory(infos []storage.ObjectInfo) []byte {
	size := 4
	for _, in := range infos {
		size += inventoryEntrySize(in)
	}
	buf := make([]byte, size)
	binary.BigEndian.PutUint32(buf, uint32(len(infos)))
	off := 4
	for _, in := range infos {
		binary.BigEndian.PutUint16(buf[off:], uint16(len(in.ID)))
		off += 2
		off += copy(buf[off:], in.ID)
		binary.BigEndian.PutUint32(buf[off:], uint32(int32(in.Shard)))
		off += 4
		binary.BigEndian.PutUint64(buf[off:], uint64(int64(in.DataLen)))
		off += 8
		binary.BigEndian.PutUint64(buf[off:], uint64(int64(in.ShardLen)))
		off += 8
		binary.BigEndian.PutUint64(buf[off:], uint64(int64(in.BlockLen)))
		off += 8
		off += copy(buf[off:], in.Digest[:])
	}
	return buf
}

// encodeInventoryPage packs the longest prefix of entries with ID > after
// that fits in maxBytes (at least one entry regardless, so the walk always
// advances), returning the payload and whether further entries remain.
// infos must be sorted by ID, as Backend.List returns them.
func encodeInventoryPage(infos []storage.ObjectInfo, after string, maxBytes int) (buf []byte, more bool) {
	start := 0
	if after != "" {
		start = sort.Search(len(infos), func(i int) bool { return infos[i].ID > after })
	}
	end, size := start, 4
	for end < len(infos) {
		size += inventoryEntrySize(infos[end])
		if size > maxBytes && end > start {
			break
		}
		end++
	}
	return encodeInventory(infos[start:end]), end < len(infos)
}

// decodeInventory unpacks a ListResp payload.
func decodeInventory(buf []byte) ([]storage.ObjectInfo, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: inventory %d bytes", ErrBadMsg, len(buf))
	}
	n := int(binary.BigEndian.Uint32(buf))
	// An entry is at least inventoryFixed bytes (empty id); reject counts
	// the buffer cannot possibly hold before sizing the slice, so a corrupt
	// or hostile count can't force a multi-gigabyte allocation.
	if n > (len(buf)-4)/inventoryFixed {
		return nil, fmt.Errorf("%w: inventory count %d exceeds %d payload bytes", ErrBadMsg, n, len(buf))
	}
	infos := make([]storage.ObjectInfo, 0, n)
	off := 4
	for i := 0; i < n; i++ {
		if off+2 > len(buf) {
			return nil, fmt.Errorf("%w: truncated inventory", ErrBadMsg)
		}
		idLen := int(binary.BigEndian.Uint16(buf[off:]))
		off += 2
		if off+idLen+inventoryFixed-2 > len(buf) {
			return nil, fmt.Errorf("%w: truncated inventory", ErrBadMsg)
		}
		in := storage.ObjectInfo{ID: string(buf[off : off+idLen])}
		off += idLen
		in.Shard = int(int32(binary.BigEndian.Uint32(buf[off:])))
		off += 4
		in.DataLen = int(int64(binary.BigEndian.Uint64(buf[off:])))
		off += 8
		in.ShardLen = int(int64(binary.BigEndian.Uint64(buf[off:])))
		off += 8
		in.BlockLen = int(int64(binary.BigEndian.Uint64(buf[off:])))
		off += 8
		off += copy(in.Digest[:], buf[off:])
		infos = append(infos, in)
	}
	if off != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing inventory bytes", ErrBadMsg, len(buf)-off)
	}
	return infos, nil
}
