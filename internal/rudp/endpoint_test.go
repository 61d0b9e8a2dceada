package rudp

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"rain/internal/netbuf"
	"rain/internal/rt"
	"rain/internal/sim"
	"rain/internal/telemetry"
)

// meshRig runs one table row's endpoints on one packet driver: sockets on
// rt.Loops against the wall clock (the "udp" row), or sim.Network on one
// scheduler's virtual clock (the "sim" row) — the same test body over both.
type meshRig struct {
	t     *testing.T
	loops map[*Endpoint]*rt.Loop // udp row
	mesh  *Mesh                  // sim row: holds the endpoints for the fault helpers
}

// eachDriver runs body once per packet driver. The sim row's a↔b links lose
// 5% of packets and are slower one way than the other.
func eachDriver(t *testing.T, body func(t *testing.T, r *meshRig)) {
	t.Run("udp", func(t *testing.T) {
		body(t, &meshRig{t: t, loops: make(map[*Endpoint]*rt.Loop)})
	})
	t.Run("sim", func(t *testing.T) {
		s := sim.New(11)
		net := sim.NewNetwork(s)
		sim.ApplyAsymmetric(net, "a", "b", 2, sim.Lossy(sim.ProfileLAN, 0.05), sim.Lossy(sim.ProfileCampus, 0.05))
		body(t, &meshRig{t: t, mesh: &Mesh{S: s, Net: net, eps: make(map[string]*Endpoint)}})
	})
}

// open starts an endpoint that knows the peers in book. locals pins the udp
// row's bind addresses (nil: ephemeral loopback ports); a sim endpoint's
// addresses always follow from its name. It is closed with the test.
func (r *meshRig) open(name string, paths int, locals []string, book map[string][]string) *Endpoint {
	r.t.Helper()
	cfg := Config{Paths: paths, Telemetry: telemetry.NewRegistry()}
	var ep *Endpoint
	if r.mesh != nil {
		ep = newSimEndpoint(r.mesh.S, r.mesh.Net, name, cfg.withDefaults())
		for peer, addrs := range book {
			if err := ep.addPeer(peer, addrs); err != nil {
				r.t.Fatalf("mesh %s: %v", name, err)
			}
		}
		r.mesh.eps[name] = ep
	} else {
		loop := rt.New(int64(len(r.loops)) + 7)
		loop.Start()
		if locals == nil {
			locals = make([]string, paths)
			for i := range locals {
				locals[i] = "127.0.0.1:0"
			}
		}
		var err error
		ep, err = NewRealMesh(loop, RealConfig{Name: name, Locals: locals, Peers: book, Conn: cfg})
		if err != nil {
			loop.Stop()
			r.t.Fatalf("mesh %s: %v", name, err)
		}
		r.loops[ep] = loop
	}
	r.t.Cleanup(func() { r.close(ep) })
	return ep
}

// close tears an endpoint down for good; repeatable.
func (r *meshRig) close(ep *Endpoint) {
	ep.Close()
	if loop := r.loops[ep]; loop != nil {
		loop.Stop()
	}
}

// on runs fn on ep's protocol goroutine.
func (r *meshRig) on(ep *Endpoint, fn func()) {
	if loop := r.loops[ep]; loop != nil {
		loop.Call(fn)
		return
	}
	fn()
}

// eventually lets the protocol run until cond holds: up to 5 s of wall
// clock on sockets, 30 s of virtual time on the simulator.
func (r *meshRig) eventually(cond func() bool) bool {
	if r.mesh == nil {
		for tries := 0; !cond(); tries++ {
			if tries == 2500 {
				return false
			}
			time.Sleep(2 * time.Millisecond)
		}
		return true
	}
	for deadline := r.mesh.S.Now().Add(30 * time.Second); !cond(); r.mesh.S.Step() {
		if r.mesh.S.Now() > deadline {
			return false
		}
	}
	return true
}

// await receives the next value a handler pushed into ch.
func await[T any](r *meshRig, ch chan T) (v T, ok bool) {
	ok = r.eventually(func() bool {
		select {
		case v = <-ch:
			return true
		default:
			return false
		}
	})
	return v, ok
}

// Two endpoints exchange service datagrams both ways, including a peer that
// was only learned from the inbound hello.
func TestRealMeshRoundTrip(t *testing.T) {
	eachDriver(t, func(t *testing.T, r *meshRig) {
		// b knows a from its book; a learns b from b's hello.
		a := r.open("a", 2, nil, nil)
		b := r.open("b", 2, nil, map[string][]string{"a": a.LocalAddrs()})

		// Handlers run on the protocol goroutines; the channels hold a whole
		// burst so a failed assertion never leaves a loop blocked under the
		// deferred Close.
		atA := make(chan string, 128)
		atB := make(chan string, 128)
		r.on(a, func() {
			a.Handle("a", "echo", func(from string, payload []byte) {
				atA <- from + ":" + string(payload)
				a.SendService("a", from, "echo", append([]byte("re-"), payload...))
			})
		})
		r.on(b, func() {
			b.Handle("b", "echo", func(from string, payload []byte) {
				atB <- from + ":" + string(payload)
			})
		})

		r.on(b, func() { b.SendService("b", "a", "echo", []byte("hi")) })

		want := func(ch chan string, want string) {
			t.Helper()
			if got, ok := await(r, ch); !ok {
				t.Fatalf("timed out waiting for %q", want)
			} else if got != want {
				t.Fatalf("got %q, want %q", got, want)
			}
		}
		want(atA, "b:hi")
		want(atB, "a:re-hi")

		// A burst each way arrives complete and in order (one state machine,
		// over kernel UDP or the simulator, §2.5).
		const burst = 50
		r.on(a, func() {
			for i := 0; i < burst; i++ {
				a.SendService("a", "b", "echo", []byte(fmt.Sprintf("a%02d", i)))
			}
		})
		r.on(b, func() {
			for i := 0; i < burst; i++ {
				b.SendService("b", "a", "echo", []byte(fmt.Sprintf("b%02d", i)))
			}
		})
		// b hears a's burst interleaved with a's echoes of its own; each
		// stream must be in order within itself.
		for i := 0; i < burst; i++ {
			want(atA, fmt.Sprintf("b:b%02d", i))
		}
		nextBurst, nextEcho := 0, 0
		for nextBurst < burst || nextEcho < burst {
			got, ok := await(r, atB)
			switch {
			case !ok:
				t.Fatalf("b got %d of a's burst and %d echoes, want %d each", nextBurst, nextEcho, burst)
			case got == fmt.Sprintf("a:a%02d", nextBurst):
				nextBurst++
			case got == fmt.Sprintf("a:re-b%02d", nextEcho):
				nextEcho++
			default:
				t.Fatalf("b got %q out of order (burst at %d, echoes at %d)", got, nextBurst, nextEcho)
			}
		}

		// Both bundled paths come Up on both ends.
		for _, end := range []struct {
			mesh *Endpoint
			peer string
		}{{a, "b"}, {b, "a"}} {
			var status [2]string
			if !r.eventually(func() bool {
				r.on(end.mesh, func() {
					for i := range status {
						status[i] = end.mesh.peers[end.peer].conn.PathStatus(i).String()
					}
				})
				return status == [2]string{"Up", "Up"}
			}) {
				t.Fatalf("%s's paths to %s not Up: %v", end.mesh.name, end.peer, status)
			}
		}

		// Loopback delivery works without the driver.
		r.on(b, func() { b.SendService("b", "b", "echo", []byte("self")) })
		want(atB, "b:self")
	})
}

// A restarted peer (same addresses, new incarnation) is detected via the
// hello handshake: the survivor's conn resets once and traffic resumes, and
// PeerUp reports the outage. A delivery report in flight across the restart
// dies with the old conn (false, once); one sent after the new handshake
// reports true.
func TestRealMeshPeerRestart(t *testing.T) {
	eachDriver(t, func(t *testing.T, r *meshRig) {
		a := r.open("a", 1, nil, nil)
		b := r.open("b", 1, nil, map[string][]string{"a": a.LocalAddrs()})
		bAddrs := b.LocalAddrs()

		atA := make(chan string, 64)
		r.on(a, func() {
			a.Handle("a", "t", func(from string, payload []byte) { atA <- string(payload) })
		})
		r.on(b, func() { b.SendService("b", "a", "t", []byte("one")) })

		recv := func(want string) {
			t.Helper()
			for {
				if got, ok := await(r, atA); !ok {
					t.Fatalf("timed out waiting for %q", want)
				} else if got == want {
					return
				}
			}
		}
		waitUp := func(want bool) {
			t.Helper()
			if !r.eventually(func() bool {
				var up bool
				r.on(a, func() { up = a.PeerUp("b") })
				return up == want
			}) {
				t.Fatalf("timed out waiting for PeerUp(b) = %v", want)
			}
		}
		// Report channels hold more than the one report each send may
		// fire, so a second report is counted instead of blocking a loop.
		notify := func(ch chan bool) {
			r.on(a, func() { a.SendNotify("a", "b", "t", nil, func(ok bool) { ch <- ok }) })
		}
		recv("one")
		waitUp(true)

		// Kill b (twice: Close is idempotent) with a report in flight; a's
		// ping monitors notice the silence.
		r.close(b)
		r.close(b)
		lost := make(chan bool, 4)
		notify(lost)
		waitUp(false)

		// Restart b on the same addresses with a fresh incarnation.
		b2 := r.open("b", 1, bAddrs, map[string][]string{"a": a.LocalAddrs()})
		if b2.inc == b.inc {
			t.Fatalf("restarted endpoint reused incarnation %d", b.inc)
		}
		r.on(b2, func() { b2.SendService("b", "a", "t", []byte("two")) })
		recv("two")
		waitUp(true)
		if n := a.resets.Value(); n != 1 {
			t.Fatalf("rudp.mesh.conn_resets = %d on the survivor, want 1", n)
		}
		fresh := make(chan bool, 4)
		notify(fresh)
		if ok, got := await(r, fresh); !got || !ok {
			t.Fatalf("report after the new handshake: got=%v ok=%v, want true", got, ok)
		}
		if ok, got := await(r, lost); !got || ok {
			t.Fatalf("report in flight across the restart: got=%v ok=%v, want false", got, ok)
		}
		if len(lost) != 0 {
			t.Fatalf("in-flight report fired %d more times", len(lost))
		}
	})
}

// Sends to an unreachable peer queue up to the backlog cap and are shed
// beyond it instead of growing without bound, and Close gives every queued
// frame back.
func TestRealMeshBacklogCap(t *testing.T) {
	live := telemetry.Default().Root().Gauge("netbuf.frames.live", "")
	eachDriver(t, func(t *testing.T, r *meshRig) {
		start := live.Value()
		// The dead peer: the discard port on sockets, a stopped node on the
		// simulator.
		ghost := []string{"127.0.0.1:9"}
		if r.mesh != nil {
			ghost = r.open("b", 1, nil, nil).LocalAddrs()
		}
		a := r.open("a", 1, nil, map[string][]string{"b": ghost})
		if r.mesh != nil {
			r.mesh.StopNode("b")
		}

		r.on(a, func() {
			for i := 0; i < maxBacklog+100; i++ {
				a.SendService("a", "b", "t", nil)
			}
			if got := a.Backlog("b"); got > maxBacklog {
				t.Errorf("backlog %d exceeds cap %d", got, maxBacklog)
			}
			if got := a.shed.Value(); got == 0 {
				t.Errorf("rudp.mesh.sends_shed = 0 after overrunning the cap")
			}
		})
		r.close(a)
		// Socket read goroutines give their receive frame back as they exit.
		if !r.eventually(func() bool { return live.Value() <= start }) {
			t.Fatalf("netbuf.frames.live = %d after Close, %d before the endpoint existed", live.Value(), start)
		}
	})
}

// A burst of window-sized frames over loopback sockets arrives in order
// without a single retransmission: the path sockets hold a whole window, so
// the kernel drops nothing RUDP would then pay an RTO for.
func TestRealMeshBurstNoLoss(t *testing.T) {
	r := &meshRig{t: t, loops: make(map[*Endpoint]*rt.Loop)}
	a := r.open("a", 1, nil, nil)
	b := r.open("b", 1, nil, map[string][]string{"a": a.LocalAddrs()})
	for _, ep := range []*Endpoint{a, b} {
		if asked, rcv, snd := ep.SocketBuffers(); rcv < asked || snd < asked {
			t.Skipf("kernel granted %d B receive / %d B send socket buffers of %d asked (raise net.core.rmem_max and wmem_max)", rcv, snd, asked)
		}
	}

	const frames, size = 256, 32 << 10
	got := make(chan int, frames)
	r.on(a, func() {
		a.Handle("a", "burst", func(_ string, payload []byte) {
			if len(payload) != size {
				t.Errorf("frame of %d bytes, want %d", len(payload), size)
			}
			got <- int(binary.BigEndian.Uint32(payload))
		})
	})
	r.on(b, func() {
		for i := 0; i < frames; i++ {
			f := netbuf.NewFrame(size)
			binary.BigEndian.PutUint32(f.Payload(), uint32(i))
			b.SendFrame("b", "a", "burst", f)
		}
	})
	for i := 0; i < frames; i++ {
		if seq, ok := await(r, got); !ok {
			t.Fatalf("timed out after %d of %d frames", i, frames)
		} else if seq != i {
			t.Fatalf("frame %d arrived at position %d", seq, i)
		}
	}
	var st Stats
	r.on(b, func() { st = b.peers["a"].conn.Stats() })
	if st.Retransmits != 0 {
		t.Fatalf("%d retransmissions for %d frames sent: the sockets dropped datagrams", st.Retransmits, st.Sent)
	}
}

// Construction rejects what cannot bind or pair: no local addresses, an
// unparseable one, and a peer whose bundle has the wrong path count.
func TestRealMeshValidation(t *testing.T) {
	loop := rt.New(3)
	loop.Start()
	defer loop.Stop()
	for _, cfg := range []RealConfig{
		{Name: "a"},
		{Name: "a", Locals: []string{"not-an-addr"}},
		{Name: "a", Locals: []string{"127.0.0.1:0"}, Peers: map[string][]string{"b": {"127.0.0.1:1", "127.0.0.1:2"}}},
	} {
		if m, err := NewRealMesh(loop, cfg); err == nil {
			m.Close()
			t.Errorf("accepted %+v", cfg)
		}
	}
}

// Ten thousand datagrams each way over a two-path socket pair, both paths
// carrying traffic at once, arrive exactly once and in order per conn: the
// read goroutines of both sockets feed one inbound queue that the loop
// drains a wakeup at a time, and no datagram is lost, repeated or reordered
// on the way.
func TestRealMeshTwoPathDrainExactlyOnce(t *testing.T) {
	const total, size = 10000, 512
	r := &meshRig{t: t, loops: make(map[*Endpoint]*rt.Loop)}
	a := r.open("a", 2, nil, nil)
	b := r.open("b", 2, nil, map[string][]string{"a": a.LocalAddrs()})

	// Each receiver checks the sequence on its loop; next and bad are
	// loop-owned and read back through r.on.
	type receiver struct {
		next int
		bad  string
	}
	rx := map[*Endpoint]*receiver{a: {}, b: {}}
	for ep, st := range rx {
		ep, st := ep, st
		r.on(ep, func() {
			ep.Handle(ep.name, "seq", func(_ string, payload []byte) {
				if seq := int(binary.BigEndian.Uint32(payload)); seq != st.next && st.bad == "" {
					st.bad = fmt.Sprintf("datagram %d arrived when %d was due", seq, st.next)
				}
				st.next++
			})
		})
	}
	// a learns b from its hello; open that direction before the bursts.
	r.on(b, func() { b.SendService("b", "a", "hi", nil) })
	if !r.eventually(func() bool {
		known := false
		r.on(a, func() { known = a.peers["b"] != nil && a.peers["b"].ready() })
		return known
	}) {
		t.Fatal("a never learned b")
	}

	// Both senders run at once, each keeping its backlog well under the
	// shedding cap.
	send := func(from *Endpoint, to string, errc chan<- error) {
		deadline := time.Now().Add(20 * time.Second)
		for sent := 0; sent < total; {
			if time.Now().After(deadline) {
				errc <- fmt.Errorf("%s sent %d of %d datagrams before its backlog stopped draining", from.name, sent, total)
				return
			}
			backlog := 0
			r.on(from, func() {
				for ; sent < total && from.Backlog(to) < maxBacklog/4; sent++ {
					f := netbuf.NewFrame(size)
					binary.BigEndian.PutUint32(f.Payload(), uint32(sent))
					from.SendFrame(from.name, to, "seq", f)
				}
				backlog = from.Backlog(to)
			})
			if backlog >= maxBacklog/4 {
				time.Sleep(time.Millisecond)
			}
		}
		errc <- nil
	}
	errc := make(chan error, 2)
	go send(a, "b", errc)
	go send(b, "a", errc)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for ep, st := range rx {
		var next int
		var bad string
		if !r.eventually(func() bool {
			r.on(ep, func() { next, bad = st.next, st.bad })
			return next >= total || bad != ""
		}) {
			t.Fatalf("%s received %d of %d datagrams", ep.name, next, total)
		}
		if bad != "" {
			t.Fatalf("%s: %s", ep.name, bad)
		}
	}
	// Nothing trails the last datagram: no duplicate was delivered late.
	time.Sleep(20 * time.Millisecond)
	for ep, st := range rx {
		var next int
		var perPath []uint64
		r.on(ep, func() {
			next = st.next
			peer := map[*Endpoint]string{a: "b", b: "a"}[ep]
			perPath = ep.peers[peer].conn.Stats().PerPathData
		})
		if next != total {
			t.Fatalf("%s delivered %d datagrams, want exactly %d", ep.name, next, total)
		}
		if len(perPath) != 2 || perPath[0] == 0 || perPath[1] == 0 {
			t.Fatalf("%s sent data per path %v, want traffic on both", ep.name, perPath)
		}
	}
}
