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
		id, ack, got, ok := decodeMessage(encodeMessage(77, msg))
		if !ok || ack || id != 77 {
			t.Fatalf("%T: decode id=%d ack=%v ok=%v", msg, id, ack, ok)
		}
		if tok, isTok := msg.(*Token); isTok && tok.Failures == nil {
			// nil and empty Failures encode identically; normalise.
			got.(*Token).Failures = nil
		}
		if !reflect.DeepEqual(msg, got) {
			t.Fatalf("%T round trip: sent %+v got %+v", msg, msg, got)
		}
	}
	id, ack, _, ok := decodeMessage(encodeAck(5))
	if !ok || !ack || id != 5 {
		t.Fatalf("ack round trip: id=%d ack=%v ok=%v", id, ack, ok)
	}
	for _, junk := range [][]byte{nil, {99}, {wireToken}, {wireNine11, 0x80}} {
		if _, _, _, ok := decodeMessage(junk); ok {
			t.Fatalf("decoded junk %v", junk)
		}
	}
}

// TestMeshNodeRestartRejoins is a process restart as peers see it: node c
// lives long enough to send a few hundred messages, dies, is excised, and a
// brand-new driver for c (fresh engine, fresh id counter) asks to join. The
// survivors still remember the ids c's previous life used; the new life's
// ids must not collide with them, or every join request is acked and
// dropped until the counter overtakes its past.
func TestMeshNodeRestartRejoins(t *testing.T) {
	names := []string{"a", "b", "c"}
	s := sim.New(13)
	net := sim.NewNetwork(s)
	sim.ApplyProfile(net, names, 2, sim.ProfileLAN)
	conn := rudp.Config{Paths: 2}
	mesh, err := rudp.NewMesh(s, net, names, conn)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MeshConfig{AckTimeout: AckTimeout(conn, sim.ProfileLAN.Delay)}
	nodes := map[string]*MeshNode{}
	for _, n := range names {
		nodes[n] = NewMeshNode(s, mesh, n, names, cfg, nil)
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
	reborn := NewMeshNode(s, mesh, "c", []string{"c"}, cfg, nil)
	reborn.Join("a")
	s.RunFor(2 * cfg.withDefaults().StarveTimeout)
	for _, n := range []*MeshNode{nodes["a"], nodes["b"], reborn} {
		if v := n.Node().View(); len(v) != 3 {
			t.Fatalf("restarted c not readmitted within 2×StarveTimeout: %s sees %v", n.Node().Name(), v)
		}
	}
}
