package rudp

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"rain/internal/linkstate"
	"rain/internal/netbuf"
	"rain/internal/rt"
	"rain/internal/telemetry"
)

// The socket driver writes each datagram during the send call: inside one
// loop callback a plain socket reads back a frame-backed data wire, then a
// long and a short frameless wire, each byte-exact (the short one shows the
// shared marshal scratch leaks no stale tail), and the driver keeps no
// reference to the caller's frame. A datagram the kernel refuses (a
// frameless wire beyond the UDP maximum: EMSGSIZE) is counted in
// rudp.udp.send_errors rather than lost unseen.
func TestUDPDriverWritesThrough(t *testing.T) {
	loop := rt.New(5)
	loop.Start()
	defer loop.Stop()
	ep, err := NewRealMesh(loop, RealConfig{Name: "a", Locals: []string{"127.0.0.1:0"}, Conn: Config{Telemetry: telemetry.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	d := ep.drv.(*udpDriver)
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	to := sink.LocalAddr().(*net.UDPAddr)
	live := telemetry.Default().Root().Gauge("netbuf.frames.live", "")
	buf := make([]byte, maxDatagram)
	// The endpoint's read goroutine takes its receive frame as it starts:
	// let the gauge settle before counting.
	for prev := int64(-1); prev != live.Value(); {
		prev = live.Value()
		time.Sleep(10 * time.Millisecond)
	}
	// check sends w and reads it back from the sink; t.Errorf only, as it
	// runs on the loop's goroutine.
	check := func(w Wire, encoded []byte) {
		d.send(0, to, w)
		sink.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := sink.ReadFromUDP(buf)
		if err != nil {
			t.Errorf("%v wire not written by the time send returned: %v", w.Kind, err)
			return
		}
		if n != w.WireSize() || !bytes.Equal(buf[:n], encoded) {
			t.Errorf("%v wire arrived as %d bytes, want its %d encoded bytes", w.Kind, n, w.WireSize())
		}
		got, err := UnmarshalWire(buf[:n])
		w.Frame = nil
		if err != nil || !reflect.DeepEqual(got, w) {
			t.Errorf("%v wire decoded as %+v (%v), want %+v", w.Kind, got, err, w)
		}
	}
	loop.Call(func() {
		before := live.Value()
		f := netbuf.NewFrame(3000)
		for i := range f.Payload() {
			f.Payload()[i] = byte(i * 7)
		}
		data := Wire{Kind: KindData, Seq: 42, Payload: f.Payload()}
		data.PushHeader(f)
		data.Frame = f
		check(data, f.Datagram())
		f.Release()
		if got := live.Value(); got != before {
			t.Errorf("netbuf.frames.live = %d after the caller released its frame, %d before the send", got, before)
		}

		long := Wire{Kind: KindHello, Seq: 9, Ack: 8, Payload: bytes.Repeat([]byte{0xab}, 1500)}
		check(long, long.Marshal())
		short := Wire{Kind: KindPing, Ping: linkstate.Ping{Seq: 3, Echo: 2, Tokens: 1}}
		check(short, short.Marshal())

		d.send(0, to, Wire{Kind: KindHello, Payload: make([]byte, 70000)})
		if n := d.sendErrors.Value(); n != 1 {
			t.Errorf("rudp.udp.send_errors = %d after one oversize send, want 1", n)
		}
	})
}
