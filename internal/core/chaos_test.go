package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestChaosCrashRecoverLoop subjects a full platform to a scripted sequence
// of crashes, recoveries and path cuts while continuously writing and
// reading objects: the integration test that every layer (storage code,
// membership and its leader, RUDP) survives together.
func TestChaosCrashRecoverLoop(t *testing.T) {
	p, err := New(sixNodes, Options{Seed: 99, LinkLoss: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	p.Run(time.Second)

	stored := map[string][]byte{}
	put := func(round int) {
		id := fmt.Sprintf("obj-%d", round)
		data := make([]byte, 256+rng.Intn(2048))
		rng.Read(data)
		if err := p.Put(id, data); err != nil {
			t.Fatalf("round %d: put: %v", round, err)
		}
		stored[id] = data
	}
	checkAll := func(round int) {
		for id, want := range stored {
			got, err := p.Get(id)
			if err != nil {
				t.Fatalf("round %d: get %s: %v", round, id, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: %s corrupted", round, id)
			}
		}
	}

	crashed := ""
	for round := 0; round < 8; round++ {
		put(round)
		switch round % 4 {
		case 0: // crash a random node (at most one down at a time keeps
			// us within the (6,4) code's comfort zone alongside loss)
			crashed = sixNodes[1+rng.Intn(5)]
			if err := p.Pause(crashed); err != nil {
				t.Fatal(err)
			}
		case 1: // cut one bundled path somewhere
			a, b := sixNodes[rng.Intn(6)], sixNodes[rng.Intn(6)]
			if a != b {
				p.CutPath(a, b, rng.Intn(2))
			}
		case 2: // recover the crashed node
			if crashed != "" {
				if err := p.Resume(crashed); err != nil {
					t.Fatal(err)
				}
				crashed = ""
			}
		case 3: // heal everything
			for i, a := range sixNodes {
				for _, b := range sixNodes[i+1:] {
					p.HealPath(a, b, 0)
					p.HealPath(a, b, 1)
				}
			}
		}
		p.Run(2 * time.Second)
		checkAll(round)
	}
	// Final convergence: recover any straggler and require full consensus.
	if crashed != "" {
		if err := p.Resume(crashed); err != nil {
			t.Fatal(err)
		}
	}
	p.Run(15 * time.Second)
	view, ok := p.Consensus()
	if !ok || len(view) != 6 {
		t.Fatalf("cluster did not reconverge: %v ok=%v", view, ok)
	}
	checkAll(99)
}
