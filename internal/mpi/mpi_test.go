package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"rain/internal/rudp"
	"rain/internal/sim"
)

func newRuntime(t *testing.T, n int, loss float64) (*Runtime, *rudp.Mesh) {
	t.Helper()
	s := sim.New(31)
	net := sim.NewNetwork(s)
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("r%d", i)
	}
	for i := range nodes {
		for j := range nodes {
			if i >= j {
				continue
			}
			for p := 0; p < 2; p++ {
				net.SetLink(sim.NodeAddr(nodes[i], p), sim.NodeAddr(nodes[j], p),
					sim.LinkConfig{Delay: time.Millisecond, Jitter: 200 * time.Microsecond, Loss: loss})
			}
		}
	}
	mesh, err := rudp.NewMesh(s, net, nodes, rudp.Config{Paths: 2})
	if err != nil {
		t.Fatal(err)
	}
	return NewRuntime(mesh), mesh
}

func TestSendRecvTwoRanks(t *testing.T) {
	rt, _ := newRuntime(t, 2, 0)
	err := rt.Run(2, time.Minute, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello from 0"))
			if got := string(c.Recv(1, 8)); got != "hello from 1" {
				panic("rank 0 got " + got)
			}
		} else {
			if got := string(c.Recv(0, 7)); got != "hello from 0" {
				panic("rank 1 got " + got)
			}
			c.Send(0, 8, []byte("hello from 1"))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingPerStream(t *testing.T) {
	rt, _ := newRuntime(t, 2, 0.2)
	err := rt.Run(2, time.Minute, func(c *Comm) {
		const n = 40
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 1, []byte{byte(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				b := c.Recv(0, 1)
				if int(b[0]) != i {
					panic(fmt.Sprintf("got %d want %d", b[0], i))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	rt, _ := newRuntime(t, 2, 0)
	err := rt.Run(2, time.Minute, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("five"))
			c.Send(1, 6, []byte("six"))
		} else {
			// Receive in the opposite order from sending: tags demux.
			if got := string(c.Recv(0, 6)); got != "six" {
				panic("tag 6 got " + got)
			}
			if got := string(c.Recv(0, 5)); got != "five" {
				panic("tag 5 got " + got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	rt, _ := newRuntime(t, 2, 0)
	err := rt.Run(1, time.Minute, func(c *Comm) {
		c.Send(0, 3, []byte("me"))
		if got := string(c.Recv(0, 3)); got != "me" {
			panic("self-send got " + got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRingPass(t *testing.T) {
	rt, _ := newRuntime(t, 4, 0)
	err := rt.Run(4, time.Minute, func(c *Comm) {
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		if c.Rank() == 0 {
			c.Send(next, 0, []byte{1})
			b := c.Recv(prev, 0)
			if int(b[0]) != c.Size() {
				panic(fmt.Sprintf("token counted %d hops", b[0]))
			}
		} else {
			b := c.Recv(prev, 0)
			c.Send(next, 0, []byte{b[0] + 1})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	rt, _ := newRuntime(t, 4, 0)
	var mu = make(chan int, 100)
	err := rt.Run(4, time.Minute, func(c *Comm) {
		for round := 0; round < 3; round++ {
			mu <- round
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	close(mu)
	// All four round-0 entries must precede any round-2 entry, etc: with a
	// correct barrier the recorded rounds are non-decreasing in blocks.
	var rounds []int
	for r := range mu {
		rounds = append(rounds, r)
	}
	if len(rounds) != 12 {
		t.Fatalf("recorded %d entries", len(rounds))
	}
	for i, r := range rounds {
		if r != i/4 {
			t.Fatalf("barrier leaked: entry %d has round %d (%v)", i, r, rounds)
		}
	}
}

func TestBcast(t *testing.T) {
	rt, _ := newRuntime(t, 4, 0.1)
	err := rt.Run(4, time.Minute, func(c *Comm) {
		var data []byte
		if c.Rank() == 2 {
			data = []byte("from root 2")
		}
		got := c.Bcast(2, data)
		if string(got) != "from root 2" {
			panic("bcast got " + string(got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceAndAllReduce(t *testing.T) {
	rt, _ := newRuntime(t, 4, 0)
	err := rt.Run(4, time.Minute, func(c *Comm) {
		v := float64(c.Rank() + 1) // 1,2,3,4
		if got := c.Reduce(0, Sum, v); c.Rank() == 0 && got != 10 {
			panic(fmt.Sprintf("reduce sum = %v", got))
		}
		if got := c.AllReduce(Max, v); got != 4 {
			panic(fmt.Sprintf("allreduce max = %v", got))
		}
		if got := c.AllReduce(Min, v); got != 1 {
			panic(fmt.Sprintf("allreduce min = %v", got))
		}
		if got := c.AllReduce(Prod, v); got != 24 {
			panic(fmt.Sprintf("allreduce prod = %v", got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterAllGather(t *testing.T) {
	rt, _ := newRuntime(t, 3, 0)
	err := rt.Run(3, time.Minute, func(c *Comm) {
		mine := []byte(fmt.Sprintf("rank%d", c.Rank()))
		parts := c.Gather(1, mine)
		if c.Rank() == 1 {
			for r, p := range parts {
				if string(p) != fmt.Sprintf("rank%d", r) {
					panic("gather wrong at " + string(p))
				}
			}
		} else if parts != nil {
			panic("non-root gather returned data")
		}

		var scatterParts [][]byte
		if c.Rank() == 0 {
			scatterParts = [][]byte{[]byte("p0"), []byte("p1"), []byte("p2")}
		}
		part := c.Scatter(0, scatterParts)
		if string(part) != fmt.Sprintf("p%d", c.Rank()) {
			panic("scatter got " + string(part))
		}

		all := c.AllGather(mine)
		if len(all) != 3 {
			panic("allgather size")
		}
		for r, p := range all {
			if !bytes.Equal(p, []byte(fmt.Sprintf("rank%d", r))) {
				panic("allgather wrong")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSingleLinkFailureMasked reproduces the paper's claim: one link failure
// between two ranks is invisible to the MPI program (E22).
func TestSingleLinkFailureMasked(t *testing.T) {
	rt, mesh := newRuntime(t, 2, 0)
	// Cut path 0 between the ranks 50 virtual ms into the run.
	mesh.S.After(50*time.Millisecond, func() { mesh.CutPath("r0", "r1", 0) })
	err := rt.Run(2, time.Minute, func(c *Comm) {
		for i := 0; i < 60; i++ {
			if c.Rank() == 0 {
				c.Send(1, 1, []byte{byte(i)})
				if int(c.Recv(1, 2)[0]) != i {
					panic("echo mismatch")
				}
			} else {
				c.Send(0, 2, c.Recv(0, 1))
			}
		}
	})
	if err != nil {
		t.Fatalf("MPI job failed despite redundant path: %v", err)
	}
	if mesh.Conn("r0", "r1").UpPaths() != 1 {
		t.Fatal("expected exactly one surviving path")
	}
}

// TestDoubleLinkFailureStallsUntilRepair reproduces the second half of the
// claim: with both links down the job hangs; once the link is restored the
// job completes (E22).
func TestDoubleLinkFailureStallsUntilRepair(t *testing.T) {
	rt, mesh := newRuntime(t, 2, 0)
	mesh.S.After(20*time.Millisecond, func() {
		mesh.CutPath("r0", "r1", 0)
		mesh.CutPath("r0", "r1", 1)
	})
	err := rt.Run(2, 2*time.Second, func(c *Comm) {
		for i := 0; i < 50; i++ {
			if c.Rank() == 0 {
				c.Send(1, 1, []byte{byte(i)})
				c.Recv(1, 2)
			} else {
				c.Send(0, 2, c.Recv(0, 1))
			}
		}
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expected stall (ErrDeadline), got %v", err)
	}
	// Heal and resume: the job must run to completion.
	mesh.HealPath("r0", "r1", 0)
	if err := rt.Resume(time.Minute); err != nil {
		t.Fatalf("job did not complete after repair: %v", err)
	}
}

// TestBundledPathsAddBandwidth reproduces the bandwidth half of the claim
// (§2.5: bundling "provides increased network bandwidth by utilizing the
// redundant hardware"): moving 200 KiB from rank 0 to rank 1 over two bundled
// 33 Mbps paths takes well under the one-path time (E22).
func TestBundledPathsAddBandwidth(t *testing.T) {
	transfer := func(paths int) time.Duration {
		s := sim.New(8)
		net := sim.NewNetwork(s)
		for p := 0; p < paths; p++ {
			net.SetLink(sim.NodeAddr("r0", p), sim.NodeAddr("r1", p),
				sim.LinkConfig{Delay: time.Millisecond, RateMbps: 33})
		}
		mesh, err := rudp.NewMesh(s, net, []string{"r0", "r1"}, rudp.Config{Paths: paths, Window: 64})
		if err != nil {
			t.Fatal(err)
		}
		const volume = 200
		start := s.Now()
		err = NewRuntime(mesh).Run(2, time.Minute, func(c *Comm) {
			if c.Rank() == 0 {
				for i := 0; i < volume; i++ {
					c.Send(1, 1, make([]byte, 1024))
				}
				c.Recv(1, 2)
			} else {
				for i := 0; i < volume; i++ {
					c.Recv(0, 1)
				}
				c.Send(0, 2, nil)
			}
		})
		if err != nil {
			t.Fatalf("%d path(s): %v", paths, err)
		}
		return time.Duration(s.Now() - start)
	}
	one, two := transfer(1), transfer(2)
	t.Logf("200 KiB over 1 path: %v, over 2 paths: %v (virtual)", one, two)
	if float64(two) > 0.6*float64(one) {
		t.Fatalf("two bundled paths took %v, over 0.6 × the one-path %v", two, one)
	}
}

func TestRunSizeValidation(t *testing.T) {
	rt, _ := newRuntime(t, 2, 0)
	if err := rt.Run(0, time.Second, func(*Comm) {}); err == nil {
		t.Fatal("size 0 accepted")
	}
	if err := rt.Run(3, time.Second, func(*Comm) {}); err == nil {
		t.Fatal("size beyond node count accepted")
	}
}

func TestRankPanicPropagates(t *testing.T) {
	rt, _ := newRuntime(t, 2, 0)
	err := rt.Run(2, time.Minute, func(c *Comm) {
		if c.Rank() == 1 {
			panic("deliberate")
		}
		c.Recv(1, 9) // would block forever; rank 1's panic must end the run
	})
	if err == nil {
		t.Fatal("panic in a rank not reported")
	}
}
