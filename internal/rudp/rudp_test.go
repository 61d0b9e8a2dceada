package rudp

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"rain/internal/linkstate"
	"rain/internal/sim"
)

func newTestMesh(t *testing.T, nodes []string, loss float64) *Mesh {
	t.Helper()
	s := sim.New(7)
	net := sim.NewNetwork(s)
	for _, a := range nodes {
		for _, b := range nodes {
			if a >= b {
				continue
			}
			for i := 0; i < 2; i++ {
				net.SetLink(sim.NodeAddr(a, i), sim.NodeAddr(b, i),
					sim.LinkConfig{Delay: time.Millisecond, Jitter: 500 * time.Microsecond, Loss: loss})
			}
		}
	}
	m, err := NewMesh(s, net, nodes, Config{Paths: 2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWireMarshalRoundTrip(t *testing.T) {
	f := func(seq, ack, ps, pe, pt uint64, payload []byte) bool {
		w := Wire{Kind: KindData, Seq: seq, Ack: ack,
			Ping: linkstate.Ping{Seq: ps, Echo: pe, Tokens: pt}, Payload: payload}
		got, err := UnmarshalWire(w.Marshal())
		if err != nil {
			return false
		}
		return got.Kind == w.Kind && got.Seq == w.Seq && got.Ack == w.Ack &&
			got.Ping == w.Ping && bytes.Equal(got.Payload, w.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalWire([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer accepted")
	}
	w := Wire{Kind: KindData, Seq: 1, Payload: []byte("xy")}
	buf := w.Marshal()
	buf[0] = 99 // bad kind
	if _, err := UnmarshalWire(buf); err == nil {
		t.Fatal("bad kind accepted")
	}
	buf = w.Marshal()
	buf = buf[:len(buf)-1] // truncated payload
	if _, err := UnmarshalWire(buf); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindData: "data", KindAck: "ack", KindPing: "ping", Kind(9): "kind(9)"} {
		if k.String() != want {
			t.Fatalf("%d -> %q", k, k.String())
		}
	}
}

func TestReliableInOrderDelivery(t *testing.T) {
	m := newTestMesh(t, []string{"a", "b"}, 0)
	var got []string
	m.OnMessage("b", func(from string, p []byte) { got = append(got, string(p)) })
	for i := 0; i < 100; i++ {
		m.Send("a", "b", []byte(fmt.Sprintf("msg-%03d", i)))
	}
	m.S.RunFor(2 * time.Second)
	if len(got) != 100 {
		t.Fatalf("delivered %d of 100", len(got))
	}
	for i, s := range got {
		if s != fmt.Sprintf("msg-%03d", i) {
			t.Fatalf("out of order at %d: %s", i, s)
		}
	}
	st := m.Conn("a", "b").Stats()
	if st.Retransmits != 0 {
		t.Fatalf("lossless link needed %d retransmits", st.Retransmits)
	}
}

func TestReliabilityUnderLoss(t *testing.T) {
	m := newTestMesh(t, []string{"a", "b"}, 0.25)
	var got []string
	m.OnMessage("b", func(from string, p []byte) { got = append(got, string(p)) })
	for i := 0; i < 200; i++ {
		m.Send("a", "b", []byte(fmt.Sprintf("msg-%03d", i)))
	}
	m.S.RunFor(30 * time.Second)
	if len(got) != 200 {
		t.Fatalf("delivered %d of 200 under 25%% loss", len(got))
	}
	for i, s := range got {
		if s != fmt.Sprintf("msg-%03d", i) {
			t.Fatalf("out of order at %d: %s (exactly-once violated?)", i, s)
		}
	}
	st := m.Conn("a", "b").Stats()
	if st.Retransmits == 0 {
		t.Fatal("no retransmits under 25% loss is implausible")
	}
}

func TestBundlingStripesAcrossPaths(t *testing.T) {
	// §2.5: bundled interfaces provide increased bandwidth — fresh traffic
	// must use both paths, not just one.
	m := newTestMesh(t, []string{"a", "b"}, 0)
	m.OnMessage("b", func(string, []byte) {})
	for i := 0; i < 100; i++ {
		m.Send("a", "b", []byte("x"))
	}
	m.S.RunFor(2 * time.Second)
	st := m.Conn("a", "b").Stats()
	if st.PerPathData[0] == 0 || st.PerPathData[1] == 0 {
		t.Fatalf("traffic not striped: per-path %v", st.PerPathData)
	}
	ratio := float64(st.PerPathData[0]) / float64(st.PerPathData[1])
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("striping badly skewed: %v", st.PerPathData)
	}
}

func TestFailoverMasksSingleLinkFailure(t *testing.T) {
	// §2.5: "if all machines have two network adaptors and one link fails,
	// the MPI program will proceed as if nothing had happened."
	m := newTestMesh(t, []string{"a", "b"}, 0)
	delivered := 0
	m.OnMessage("b", func(string, []byte) { delivered++ })

	m.S.RunFor(200 * time.Millisecond) // monitors settle Up
	m.CutPath("a", "b", 0)
	m.S.RunFor(500 * time.Millisecond) // monitors notice

	conn := m.Conn("a", "b")
	if conn.PathStatus(0) != linkstate.Down {
		t.Fatal("path 0 not marked Down after cut")
	}
	if conn.PathStatus(1) != linkstate.Up {
		t.Fatal("path 1 wrongly marked Down")
	}
	for i := 0; i < 50; i++ {
		m.Send("a", "b", []byte("after-cut"))
	}
	m.S.RunFor(2 * time.Second)
	if delivered != 50 {
		t.Fatalf("delivered %d of 50 with one path down", delivered)
	}
	st := conn.Stats()
	if st.PerPathData[1] < 50 {
		t.Fatalf("surviving path carried only %d datagrams", st.PerPathData[1])
	}
}

func TestSecondLinkFailureStallsThenResumes(t *testing.T) {
	// §2.5: "If a second link fails, the MPI application may hang until
	// the link is restored" — RUDP must stall without losing data, then
	// deliver everything after the heal.
	m := newTestMesh(t, []string{"a", "b"}, 0)
	delivered := 0
	m.OnMessage("b", func(string, []byte) { delivered++ })

	m.S.RunFor(200 * time.Millisecond)
	m.CutPath("a", "b", 0)
	m.CutPath("a", "b", 1)
	m.S.RunFor(500 * time.Millisecond)

	for i := 0; i < 20; i++ {
		m.Send("a", "b", []byte("stalled"))
	}
	m.S.RunFor(time.Second)
	if delivered != 0 {
		t.Fatalf("%d datagrams crossed a fully cut channel", delivered)
	}
	if m.Conn("a", "b").UpPaths() != 0 {
		t.Fatal("paths should all be Down")
	}

	m.HealPath("a", "b", 1)
	m.S.RunFor(3 * time.Second)
	if delivered != 20 {
		t.Fatalf("delivered %d of 20 after heal", delivered)
	}
}

func TestRetransmitPrefersOtherPath(t *testing.T) {
	// Cut a path and immediately send, before the monitor notices: the
	// retransmission should fail over to the healthy path.
	m := newTestMesh(t, []string{"a", "b"}, 0)
	delivered := 0
	m.OnMessage("b", func(string, []byte) { delivered++ })
	m.S.RunFor(200 * time.Millisecond)
	m.CutPath("a", "b", 0)
	// Send immediately: roughly half the datagrams head into the dead path.
	for i := 0; i < 10; i++ {
		m.Send("a", "b", []byte("x"))
	}
	m.S.RunFor(2 * time.Second)
	if delivered != 10 {
		t.Fatalf("delivered %d of 10", delivered)
	}
	st := m.Conn("a", "b").Stats()
	if st.Retransmits == 0 {
		t.Fatal("expected retransmissions for datagrams lost on the cut path")
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	m := newTestMesh(t, []string{"a", "b"}, 0.1)
	gotA, gotB := 0, 0
	m.OnMessage("a", func(string, []byte) { gotA++ })
	m.OnMessage("b", func(string, []byte) { gotB++ })
	for i := 0; i < 50; i++ {
		m.Send("a", "b", []byte("ping"))
		m.Send("b", "a", []byte("pong"))
	}
	m.S.RunFor(10 * time.Second)
	if gotA != 50 || gotB != 50 {
		t.Fatalf("delivered a=%d b=%d, want 50/50", gotA, gotB)
	}
}

func TestMeshThreeNodes(t *testing.T) {
	m := newTestMesh(t, []string{"a", "b", "c"}, 0)
	counts := map[string]int{}
	for _, n := range []string{"a", "b", "c"} {
		n := n
		m.OnMessage(n, func(from string, p []byte) { counts[n+"<-"+from]++ })
	}
	for i := 0; i < 10; i++ {
		m.Send("a", "b", []byte("x"))
		m.Send("b", "c", []byte("x"))
		m.Send("c", "a", []byte("x"))
	}
	m.S.RunFor(2 * time.Second)
	for _, k := range []string{"b<-a", "c<-b", "a<-c"} {
		if counts[k] != 10 {
			t.Fatalf("%s = %d, want 10 (all: %v)", k, counts[k], counts)
		}
	}
}

func TestStopNodeAndRestart(t *testing.T) {
	m := newTestMesh(t, []string{"a", "b"}, 0)
	delivered := 0
	m.OnMessage("b", func(string, []byte) { delivered++ })
	m.S.RunFor(100 * time.Millisecond)
	m.StopNode("b")
	if !m.Stopped("b") {
		t.Fatal("StopNode did not mark node stopped")
	}
	for i := 0; i < 5; i++ {
		m.Send("a", "b", []byte("x"))
	}
	m.S.RunFor(time.Second)
	if delivered != 0 {
		t.Fatal("stopped node received datagrams")
	}
	m.StartNode("b")
	m.S.RunFor(3 * time.Second)
	if delivered != 5 {
		t.Fatalf("delivered %d of 5 after restart", delivered)
	}
}

func TestConnRejectsZeroPaths(t *testing.T) {
	if _, err := newConn(Config{Paths: -1}, nil, nil, nil); err == nil {
		t.Fatal("negative paths accepted")
	}
}

func TestExactlyOnceUnderDuplication(t *testing.T) {
	// Feed a Conn duplicate data directly: deliver must fire once.
	var out [][]byte
	var sentWires []Wire
	c, err := newConn(Config{Paths: 1}, nil,
		func(path int, w Wire) { sentWires = append(sentWires, w) },
		func(p []byte) { out = append(out, p) })
	if err != nil {
		t.Fatal(err)
	}
	w := Wire{Kind: KindData, Seq: 1, Payload: []byte("once")}
	c.OnWire(0, w, 0)
	c.OnWire(0, w, 1)
	c.OnWire(0, w, 2)
	if len(out) != 1 {
		t.Fatalf("delivered %d times, want 1", len(out))
	}
	st := c.Stats()
	if st.Duplicates != 2 {
		t.Fatalf("duplicates = %d, want 2", st.Duplicates)
	}
	// Duplicates mean the sender retransmitted (an earlier ack was lost), so
	// each must trigger an immediate ack. The initial in-order arrival's ack
	// coalesces and is covered by the first duplicate's flush.
	acks := 0
	for _, sw := range sentWires {
		if sw.Kind == KindAck {
			acks++
			if sw.Ack != 1 {
				t.Fatalf("ack %d, want 1", sw.Ack)
			}
		}
	}
	if acks != 2 {
		t.Fatalf("acks = %d, want 2 (one per duplicate)", acks)
	}
}

func TestOutOfOrderArrivalReordered(t *testing.T) {
	var out []string
	c, err := newConn(Config{Paths: 1}, nil,
		func(int, Wire) {},
		func(p []byte) { out = append(out, string(p)) })
	if err != nil {
		t.Fatal(err)
	}
	c.OnWire(0, Wire{Kind: KindData, Seq: 2, Payload: []byte("two")}, 0)
	if len(out) != 0 {
		t.Fatal("out-of-order datagram delivered early")
	}
	c.OnWire(0, Wire{Kind: KindData, Seq: 1, Payload: []byte("one")}, 1)
	if len(out) != 2 || out[0] != "one" || out[1] != "two" {
		t.Fatalf("reordering failed: %v", out)
	}
}
