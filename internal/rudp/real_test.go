package rudp

import (
	"fmt"
	"testing"
	"time"

	"rain/internal/rt"
)

// startMesh builds a loop+mesh bound to ephemeral loopback ports.
func startMesh(t *testing.T, name string, paths int, peers map[string][]string) (*rt.Loop, *RealMesh) {
	t.Helper()
	loop := rt.New(int64(len(name)) + 7)
	loop.Start()
	locals := make([]string, paths)
	for i := range locals {
		locals[i] = "127.0.0.1:0"
	}
	m, err := NewRealMesh(loop, RealConfig{Name: name, Locals: locals, Peers: peers})
	if err != nil {
		loop.Stop()
		t.Fatalf("mesh %s: %v", name, err)
	}
	return loop, m
}

// Two meshes exchange service datagrams both ways over real sockets,
// including a peer that was only learned from the inbound hello.
func TestRealMeshRoundTrip(t *testing.T) {
	la, a := startMesh(t, "a", 2, nil)
	defer la.Stop()
	defer a.Close()

	// b knows a from its book; a learns b from b's hello.
	lb, b := startMesh(t, "b", 2, map[string][]string{"a": a.LocalAddrs()})
	defer lb.Stop()
	defer b.Close()

	// Handlers run on the loops; the channels hold a whole burst so a failed
	// assertion never leaves a loop blocked under the deferred Close.
	atA := make(chan string, 128)
	atB := make(chan string, 128)
	la.Call(func() {
		a.Handle("a", "echo", func(from string, payload []byte) {
			atA <- from + ":" + string(payload)
			a.SendService("a", from, "echo", append([]byte("re-"), payload...))
		})
	})
	lb.Call(func() {
		b.Handle("b", "echo", func(from string, payload []byte) {
			atB <- from + ":" + string(payload)
		})
	})

	lb.Post(func() { b.SendService("b", "a", "echo", []byte("hi")) })

	want := func(ch chan string, want string) {
		t.Helper()
		select {
		case got := <-ch:
			if got != want {
				t.Fatalf("got %q, want %q", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %q", want)
		}
	}
	want(atA, "b:hi")
	want(atB, "a:re-hi")

	// A burst each way arrives complete and in order (the same state
	// machine the simulator drives, over kernel UDP, §2.5).
	const burst = 50
	la.Post(func() {
		for i := 0; i < burst; i++ {
			a.SendService("a", "b", "echo", []byte(fmt.Sprintf("a%02d", i)))
		}
	})
	lb.Post(func() {
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
		select {
		case got := <-atB:
			switch got {
			case fmt.Sprintf("a:a%02d", nextBurst):
				nextBurst++
			case fmt.Sprintf("a:re-b%02d", nextEcho):
				nextEcho++
			default:
				t.Fatalf("b got %q out of order (burst at %d, echoes at %d)", got, nextBurst, nextEcho)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("b got %d of a's burst and %d echoes, want %d each", nextBurst, nextEcho, burst)
		}
	}

	// Both bundled paths come Up on both ends.
	for _, end := range []struct {
		loop *rt.Loop
		mesh *RealMesh
		peer string
	}{{la, a, "b"}, {lb, b, "a"}} {
		deadline := time.Now().Add(2 * time.Second)
		for {
			var status [2]string
			end.loop.Call(func() {
				for i := range status {
					status[i] = end.mesh.peers[end.peer].conn.PathStatus(i).String()
				}
			})
			if status == [2]string{"Up", "Up"} {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s's paths to %s not Up: %v", end.mesh.Name(), end.peer, status)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Loopback delivery works without sockets.
	lb.Post(func() { b.SendService("b", "b", "echo", []byte("self")) })
	want(atB, "b:self")
}

// A restarted peer (same addresses, new incarnation) is detected via the
// hello handshake: the conn pair resets and traffic resumes, and the
// liveness callback reports the outage.
func TestRealMeshPeerRestart(t *testing.T) {
	la, a := startMesh(t, "a", 1, nil)
	defer la.Stop()
	defer a.Close()

	lb, b := startMesh(t, "b", 1, map[string][]string{"a": a.LocalAddrs()})
	bAddrs := b.LocalAddrs()

	atA := make(chan string, 64)
	upDown := make(chan bool, 64)
	la.Call(func() {
		a.Handle("a", "t", func(from string, payload []byte) { atA <- string(payload) })
	})
	a.OnPeerChange(func(name string, up bool) {
		if name == "b" {
			upDown <- up
		}
	})
	lb.Post(func() { b.SendService("b", "a", "t", []byte("one")) })

	recv := func(want string) {
		t.Helper()
		for {
			select {
			case got := <-atA:
				if got == want {
					return
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("timed out waiting for %q", want)
			}
		}
	}
	waitFlip := func(want bool) {
		t.Helper()
		for {
			select {
			case got := <-upDown:
				if got == want {
					return
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("timed out waiting for up=%v", want)
			}
		}
	}
	recv("one")
	waitFlip(true)

	// Kill b (twice: Close is idempotent); a's ping monitors notice the
	// silence.
	b.Close()
	b.Close()
	lb.Stop()
	waitFlip(false)

	// Restart b on the same addresses with a fresh incarnation.
	lb2 := rt.New(99)
	lb2.Start()
	defer lb2.Stop()
	b2, err := NewRealMesh(lb2, RealConfig{Name: "b", Locals: bAddrs, Peers: map[string][]string{"a": a.LocalAddrs()}})
	if err != nil {
		t.Fatalf("restart b: %v", err)
	}
	defer b2.Close()
	lb2.Post(func() { b2.SendService("b", "a", "t", []byte("two")) })
	recv("two")
	waitFlip(true)
}

// Sends to an unreachable peer queue up to the backlog cap and are shed
// beyond it instead of growing without bound.
func TestRealMeshBacklogCap(t *testing.T) {
	loop := rt.New(5)
	loop.Start()
	defer loop.Stop()
	m, err := NewRealMesh(loop, RealConfig{
		Name:       "a",
		Locals:     []string{"127.0.0.1:0"},
		Peers:      map[string][]string{"ghost": {"127.0.0.1:9"}}, // discard port
		MaxBacklog: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	loop.Call(func() {
		for i := 0; i < 100; i++ {
			m.SendService("a", "ghost", "t", []byte(fmt.Sprintf("m%d", i)))
		}
		if got := m.Backlog("ghost"); got > 8 {
			t.Errorf("backlog %d exceeds cap 8", got)
		}
	})
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
