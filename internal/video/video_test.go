package video

import (
	"testing"
	"time"

	"rain"
)

// newTestSystem builds a video system on a six-node cluster running the
// default (6,4) B-Code, settled to a full membership view.
func newTestSystem(t *testing.T) (*System, *rain.Cluster) {
	t.Helper()
	p, err := rain.NewCluster([]string{"vs0", "vs1", "vs2", "vs3", "vs4", "vs5"},
		rain.ClusterOptions{Seed: 7, Policy: rain.PolicyLeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(time.Second)
	return NewSystem(p, Config{BlockSize: 4096}), p
}

func TestPlaybackFaultFree(t *testing.T) {
	sys, _ := newTestSystem(t)
	if err := sys.AddVideo("demo", 20, 1); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Play("demo", FaultScript{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksPlayed != 20 || rep.Stalls != 0 || rep.Corrupt != 0 {
		t.Fatalf("fault-free playback: %+v", rep)
	}
	if rep.BytesServed != 20*4096 {
		t.Fatalf("bytes served %d", rep.BytesServed)
	}
}

func TestPlaybackSurvivesTwoServerFailures(t *testing.T) {
	// §5.1: videos continue without interruption while each client can
	// reach at least k servers. n-k = 2 failures mid-stream.
	sys, _ := newTestSystem(t)
	if err := sys.AddVideo("demo", 30, 2); err != nil {
		t.Fatal(err)
	}
	script := FaultScript{Down: map[int][]int{5: {0}, 12: {3}}}
	rep, err := sys.Play("demo", script)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksPlayed != 30 || rep.Stalls != 0 {
		t.Fatalf("playback with 2 failures: %+v", rep)
	}
}

func TestPlaybackStallsBelowK(t *testing.T) {
	sys, _ := newTestSystem(t)
	if err := sys.AddVideo("demo", 30, 3); err != nil {
		t.Fatal(err)
	}
	// Three servers die at block 10; one recovers at block 20.
	script := FaultScript{
		Down: map[int][]int{10: {0, 1, 2}},
		Up:   map[int][]int{20: {0}},
	}
	rep, err := sys.Play("demo", script)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalls != 10 {
		t.Fatalf("stalls = %d, want 10 (blocks 10..19)", rep.Stalls)
	}
	if rep.BlocksPlayed != 20 {
		t.Fatalf("played = %d, want 20", rep.BlocksPlayed)
	}
	if rep.Corrupt != 0 {
		t.Fatalf("corrupt blocks: %d", rep.Corrupt)
	}
}

func TestUnknownVideo(t *testing.T) {
	sys, _ := newTestSystem(t)
	if _, err := sys.Play("nope", FaultScript{}); err == nil {
		t.Fatal("playing an unknown video must fail")
	}
}

func TestMultipleClientsLoadBalance(t *testing.T) {
	// Several concurrent viewers with the least-loaded policy must spread
	// reads across all n servers, not just k of them.
	sys, p := newTestSystem(t)
	if err := sys.AddVideo("demo", 25, 4); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		rep, err := sys.Play("demo", FaultScript{})
		if err != nil || rep.BlocksPlayed != 25 {
			t.Fatalf("client %d: %+v err=%v", c, rep, err)
		}
	}
	for _, n := range p.Nodes {
		if r, _ := p.Backends[n].Loads(); r == 0 {
			t.Fatalf("server %s served no reads despite least-loaded policy", n)
		}
	}
}

func TestBlocksAccessor(t *testing.T) {
	sys, _ := newTestSystem(t)
	if err := sys.AddVideo("demo", 7, 5); err != nil {
		t.Fatal(err)
	}
	if sys.Blocks("demo") != 7 {
		t.Fatalf("Blocks = %d", sys.Blocks("demo"))
	}
}
