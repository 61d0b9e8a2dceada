// Package rudp implements RUDP, the RAIN communication layer of §2.5: a
// reliable datagram protocol over unreliable packet delivery that monitors
// every network path with the consistent-history link protocol and exploits
// bundled interfaces — several NICs per node — for both fault tolerance and
// added bandwidth.
//
// The centrepiece is Conn, a pure state machine for one node pair: a
// sliding-window sender with cumulative acknowledgements, an in-order
// exactly-once receiver, one linkstate.Monitor per path, round-robin
// striping of fresh traffic across Up paths, and retransmission that prefers
// a different live path (fail-over). Like the paper's implementation it
// keeps all protocol state in user space: the driver only moves opaque
// datagrams.
//
// Endpoint is one node's end of the mesh: a Conn per peer behind an
// incarnation-stamped hello handshake, and a service demux on top. It runs
// over a packet driver — UDP sockets for a deployed node (NewRealMesh),
// sim.Network for a simulated cluster, which is N endpoints on one scheduler
// (NewMesh; used by MPI, the control protocols and the applications in tests
// and experiments).
package rudp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rain/internal/linkstate"
	"rain/internal/netbuf"
)

// Kind discriminates wire messages.
type Kind uint8

// Wire message kinds.
const (
	// KindData carries one application datagram.
	KindData Kind = iota + 1
	// KindAck carries a cumulative acknowledgement.
	KindAck
	// KindPing carries the link-state monitoring protocol.
	KindPing
	// KindHello is the endpoint dial handshake: Seq carries the sender's
	// incarnation, Ack echoes the incarnation the sender believes the
	// receiver is running, and the payload advertises the sender's name and
	// address bundle. Hellos travel outside any Conn — they are what decides
	// whether a fresh Conn pair is needed (a restarted peer has a new
	// incarnation, and RUDP sequence state never survives a restart).
	KindHello
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindPing:
		return "ping"
	case KindHello:
		return "hello"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Wire is one RUDP datagram. Exactly one of the field groups is meaningful,
// selected by Kind.
type Wire struct {
	Kind    Kind
	Seq     uint64         // KindData: sequence number (1-based)
	Ack     uint64         // KindAck: highest in-order sequence received
	Ping    linkstate.Ping // KindPing
	Payload []byte         // KindData
	// Frame, when non-nil, owns the buffer Payload aliases (and, for frames
	// built by Conn.SendFrame, the already-marshaled wire header in front of
	// it). Drivers use it to transmit without re-marshaling and to manage
	// buffer lifetime; the Wire value itself holds no reference.
	Frame *netbuf.Frame
}

const wireHeader = 1 + 8 + 8 + 8 + 8 + 8 + 4 // kind + seq + ack + ping(3x8) + len

// WireSize returns the datagram's encoded size in bytes, used by the
// simulator's link-capacity model.
func (w Wire) WireSize() int { return wireHeader + len(w.Payload) }

// marshalHeader writes the fixed wire header into buf, which must be at
// least wireHeader bytes.
func (w Wire) marshalHeader(buf []byte) {
	buf[0] = byte(w.Kind)
	binary.BigEndian.PutUint64(buf[1:], w.Seq)
	binary.BigEndian.PutUint64(buf[9:], w.Ack)
	binary.BigEndian.PutUint64(buf[17:], w.Ping.Seq)
	binary.BigEndian.PutUint64(buf[25:], w.Ping.Echo)
	binary.BigEndian.PutUint64(buf[33:], w.Ping.Tokens)
	binary.BigEndian.PutUint32(buf[41:], uint32(len(w.Payload)))
}

// PushHeader marshals w's header into f's headroom, directly below any
// bytes already pushed, so f.Datagram() becomes the complete encoded
// datagram for the frame's current payload — the zero-copy Marshal.
// w.Payload must be f's datagram bytes before the push (its length is
// encoded in the header).
func (w Wire) PushHeader(f *netbuf.Frame) {
	w.marshalHeader(f.Push(wireHeader))
}

// Marshal encodes w into a fresh buffer — the reference encoding the decoder
// is fuzzed against. The drivers never call it: the simulator passes Wire
// values by reference, and the socket driver writes pre-marshaled frames or
// marshals into its scratch buffer.
func (w Wire) Marshal() []byte {
	buf := make([]byte, wireHeader+len(w.Payload))
	w.marshalHeader(buf)
	copy(buf[wireHeader:], w.Payload)
	return buf
}

// ErrBadWire reports a malformed encoded datagram.
var ErrBadWire = errors.New("rudp: malformed wire datagram")

// UnmarshalWire decodes a datagram produced by Marshal. The returned
// Payload aliases buf — it is valid only as long as the caller keeps buf
// alive and unmodified; receivers that retain it longer must copy (or hold a
// reference on the owning frame).
func UnmarshalWire(buf []byte) (Wire, error) {
	if len(buf) < wireHeader {
		return Wire{}, fmt.Errorf("%w: %d bytes", ErrBadWire, len(buf))
	}
	w := Wire{
		Kind: Kind(buf[0]),
		Seq:  binary.BigEndian.Uint64(buf[1:]),
		Ack:  binary.BigEndian.Uint64(buf[9:]),
		Ping: linkstate.Ping{
			Seq:    binary.BigEndian.Uint64(buf[17:]),
			Echo:   binary.BigEndian.Uint64(buf[25:]),
			Tokens: binary.BigEndian.Uint64(buf[33:]),
		},
	}
	n := binary.BigEndian.Uint32(buf[41:])
	if int(n) != len(buf)-wireHeader {
		return Wire{}, fmt.Errorf("%w: payload length %d vs %d", ErrBadWire, n, len(buf)-wireHeader)
	}
	if w.Kind < KindData || w.Kind > KindHello {
		return Wire{}, fmt.Errorf("%w: kind %d", ErrBadWire, w.Kind)
	}
	if n > 0 {
		w.Payload = buf[wireHeader:]
	}
	return w, nil
}
