package rudp

import (
	"testing"

	"rain/internal/netbuf"
	"rain/internal/telemetry"
)

// TestConnSendReceiveAllocs pins the instrumented hot path: a steady-state
// send → deliver → ack round trip over a Conn pair — pooled frame, wire
// header push, telemetry counters, RTT observation, pending-record reuse —
// allocates nothing.
func TestConnSendReceiveAllocs(t *testing.T) {
	type item struct {
		path int
		w    Wire
		to   *Conn
	}
	var queue []item
	var a, b *Conn
	cfg := Config{Paths: 1, Telemetry: telemetry.NewRegistry()}
	var err error
	// a's datagrams go to b, b's (acks) go back to a. Wires are queued and
	// drained after the call returns, like a driver, so ack processing never
	// re-enters a pump in progress.
	a, err = newConn(cfg, nil,
		func(path int, w Wire) { queue = append(queue, item{path, w, b}) },
		nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err = newConn(cfg, nil,
		func(path int, w Wire) { queue = append(queue, item{path, w, a}) },
		func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}

	var now int64
	drain := func() {
		for i := 0; i < len(queue); i++ {
			it := queue[i]
			queue[i] = item{}
			it.to.OnWire(it.path, it.w, now)
		}
		queue = queue[:0]
	}
	roundTrip := func() {
		// ackEvery in-order arrivals coalesce into one flushed ack, so a
		// full ack cycle is the natural steady-state unit.
		for i := 0; i < ackEvery; i++ {
			now += 1000
			f := netbuf.NewFrame(64)
			copy(f.Payload(), "zero-alloc instrumented send path payload bytes")
			a.send(f, nil, now)
			drain()
		}
		if a.Backlog() != 0 {
			t.Fatal("backlog after ack cycle")
		}
	}

	for i := 0; i < 16; i++ { // warm pools, queue capacity, pending freelist
		roundTrip()
	}
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 && !raceEnabled {
		t.Fatalf("instrumented send/receive allocated %.2f per ack cycle, want 0", n)
	}

	st := a.Stats()
	if st.Sent == 0 || st.Retransmits != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	// The clean round trips above must all have produced RTT samples.
	snap := cfg.Telemetry.Snapshot()
	for _, f := range snap.Families {
		if f.Name == "rudp.conn.rtt_ns" {
			if f.Series[0].Histogram.Count != st.Sent {
				t.Fatalf("rtt samples %d, want %d", f.Series[0].Histogram.Count, st.Sent)
			}
			return
		}
	}
	t.Fatal("rtt histogram family missing")
}
