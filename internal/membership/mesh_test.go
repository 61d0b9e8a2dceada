package membership

import (
	"reflect"
	"testing"
	"time"

	"rain/internal/rudp"
	"rain/internal/sim"
)

func TestWireRoundTrip(t *testing.T) {
	msgs := []any{
		&Token{Seq: 42, Ring: []string{"a", "b", "c"}, Failures: map[string]int{"b": 1}, Payload: []byte("state")},
		&Token{Seq: 1, Ring: []string{"solo"}},
		&Nine11{Requester: "x", ReqSeq: 7, Visited: []string{"x", "y"}, Failed: []string{"z"}},
		&Approve911{ReqSeq: 7, Failed: []string{"z"}},
		&Probe{From: "p", Seq: 9},
	}
	for _, msg := range msgs {
		got, ok := decodeMessage(encodeMessage(msg))
		if !ok {
			t.Fatalf("%T: decode failed", msg)
		}
		if tok, isTok := msg.(*Token); isTok && tok.Failures == nil {
			// nil and empty Failures encode identically; normalise.
			got.(*Token).Failures = nil
		}
		if !reflect.DeepEqual(msg, got) {
			t.Fatalf("%T round trip: sent %+v got %+v", msg, msg, got)
		}
	}
	// Kind 0 is no message: the transport acknowledges, not the codec.
	for _, junk := range [][]byte{nil, {0}, {99}, {wireToken}, {wireNine11, 0x80}} {
		if _, ok := decodeMessage(junk); ok {
			t.Fatalf("decoded junk %v", junk)
		}
	}
}

// TestMeshNodeRestartRejoins is a process restart as peers see it: node c
// lives long enough to send a few hundred messages, dies, is excised, and a
// brand-new driver for c (fresh engine, no memory of its previous life)
// asks to join. The survivors still hold the protocol state of c's previous
// life; none of it may keep the new life out, so every survivor readmits c
// within two starve timeouts.
func TestMeshNodeRestartRejoins(t *testing.T) {
	names := []string{"a", "b", "c"}
	s := sim.New(13)
	net := sim.NewNetwork(s)
	sim.ApplyProfile(net, names, 2, sim.ProfileLAN)
	mesh, err := rudp.NewMesh(s, net, names, rudp.Config{Paths: 2})
	if err != nil {
		t.Fatal(err)
	}
	var cfg Config
	nodes := map[string]*MeshNode{}
	for _, n := range names {
		nodes[n] = NewMeshNode(s, mesh, n, names, cfg)
	}
	nodes["a"].StartWithToken()
	s.RunFor(20 * time.Second)

	nodes["c"].Stop()
	mesh.StopNode("c")
	s.RunFor(3 * time.Second)
	if v := nodes["a"].Node().View(); len(v) != 2 {
		t.Fatalf("dead c not excised: %v", v)
	}

	mesh.StartNode("c")
	reborn := NewMeshNode(s, mesh, "c", []string{"c"}, cfg)
	reborn.Join("a")
	s.RunFor(2 * cfg.withDefaults().StarveTimeout)
	for _, n := range []*MeshNode{nodes["a"], nodes["b"], reborn} {
		if v := n.Node().View(); len(v) != 3 {
			t.Fatalf("restarted c not readmitted within 2×StarveTimeout: %s sees %v", n.Node().Name(), v)
		}
	}
}

// TestTokenHopIsOneDatagram: on an idle six-node ring, each token hop costs
// one RUDP data datagram. The transport's own ack confirms the pass, so the
// driver sends no acknowledgement datagram of its own and retries nothing.
func TestTokenHopIsOneDatagram(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	s := sim.New(21)
	net := sim.NewNetwork(s)
	sim.ApplyProfile(net, names, 2, sim.ProfileLAN)
	mesh, err := rudp.NewMesh(s, net, names, rudp.Config{Paths: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := NewMeshCluster(s, mesh, names, Config{})
	s.RunFor(10 * time.Second)
	var sent, hops uint64
	for _, a := range names {
		hops += c.Members[a].TokenVisits()
		for _, b := range names {
			if conn := mesh.Conn(a, b); a != b && conn != nil {
				sent += conn.Stats().Sent
			}
		}
	}
	if hops == 0 {
		t.Fatal("the token never moved")
	}
	if perHop := float64(sent) / float64(hops); perHop > 1.05 {
		t.Fatalf("%d data datagrams for %d token hops: %.2f per hop, want ≤ 1.05", sent, hops, perHop)
	}
	t.Logf("%d data datagrams for %d token hops", sent, hops)
}
