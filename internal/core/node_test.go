package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/placement"
	"rain/internal/telemetry"
)

// reservePorts binds and releases paths loopback UDP ports per name, so the
// address book is complete before the first node starts — what `rainnode
// serve` expects. Another process can take a released port before its node
// binds it; callers retry on a bind error.
func reservePorts(t *testing.T, names []string, paths int) map[string][]string {
	t.Helper()
	book := make(map[string][]string)
	var held []*net.UDPConn
	for _, name := range names {
		for p := 0; p < paths; p++ {
			s, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatalf("reserving a UDP port: %v", err)
			}
			held = append(held, s)
			book[name] = append(book[name], s.LocalAddr().String())
		}
	}
	for _, h := range held {
		h.Close()
	}
	return book
}

// realCluster is N RealNodes on loopback UDP with in-memory backends, each
// reporting into its own registry so per-node counters read directly.
type realCluster struct {
	names []string
	nodes []*RealNode
	regs  []*telemetry.Registry
}

func startRealCluster(t *testing.T, names []string, code ecc.Code) *realCluster {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		book := reservePorts(t, names, 2)
		c := &realCluster{names: names}
		for i, name := range names {
			reg := telemetry.NewRegistry()
			n, err := StartRealNode(NodeConfig{
				Name:              name,
				Ring:              names,
				Locals:            book[name],
				Peers:             book,
				Code:              code,
				RebalanceDebounce: 100 * time.Millisecond,
				Telemetry:         reg,
				Tracer:            telemetry.NewTracer(0),
				Seed:              int64(i + 1),
			})
			if err != nil {
				lastErr = err
				c.stop()
				c = nil
				break
			}
			c.nodes, c.regs = append(c.nodes, n), append(c.regs, reg)
		}
		if c != nil {
			t.Cleanup(c.stop)
			return c
		}
	}
	t.Fatalf("starting the cluster: %v", lastErr)
	return nil
}

// stop halts every node — again, for one a test already stopped:
// RealNode.Stop is repeatable.
func (c *realCluster) stop() {
	for _, n := range c.nodes {
		n.Stop()
	}
}

func viewHas(view []string, name string) bool {
	for _, v := range view {
		if v == name {
			return true
		}
	}
	return false
}

// TestRealNodeCluster is the deployed assembly's tier-1 test: four RealNodes
// over real loopback sockets serve the whole bridge API from plain
// goroutines, abort a cancelled put without leaking, and — through the same
// self-heal controller the chaos suite drives on the simulator — detect a
// stopped node, count the view change and complete a rebalance pass, after
// which every object still reads back bit-exact.
func TestRealNodeCluster(t *testing.T) {
	code, err := ecc.NewReedSolomon(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c", "d"}
	c := startRealCluster(t, names, code)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, n := range c.nodes {
		n := n
		if err := n.WaitReady(ctx); err != nil {
			t.Fatalf("node %s never became ready: %v", names[i], err)
		}
		// Ready is a view as wide as the code (3); the steps below count on
		// all four.
		waitFor(t, 10*time.Second, "node "+names[i]+" to see the whole ring", func() bool {
			return len(n.View()) == len(names)
		})
	}

	// Round trips through the shared bridge, one goroutine per node: write
	// through node i, read through its neighbour.
	objects := make(map[string][]byte)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range c.nodes {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, r := c.nodes[i], c.nodes[(i+1)%len(c.nodes)]
			small, big := fmt.Sprintf("obj-%d", i), fmt.Sprintf("stream-%d", i)
			data := selfHealPayload(i, 12<<10)
			stream := selfHealPayload(i+10, 200<<10) // more than one block
			if err := w.Put(ctx, small, data); err != nil {
				t.Errorf("put %s: %v", small, err)
				return
			}
			if _, err := w.PutStream(ctx, big, bytes.NewReader(stream), int64(len(stream))); err != nil {
				t.Errorf("putstream %s: %v", big, err)
				return
			}
			for id, want := range map[string][]byte{small: data, big: stream} {
				got, err := r.Get(ctx, id)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("get %s: err=%v equal=%v", id, err, bytes.Equal(got, want))
				}
				meta, err := r.Head(ctx, id)
				if err != nil || meta.DataLen != int64(len(want)) {
					t.Errorf("head %s = %+v, %v", id, meta, err)
				}
				mu.Lock()
				objects[id] = want
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	listed, err := c.nodes[2].List(ctx)
	if err != nil || len(listed) != len(objects) {
		t.Fatalf("list: %d objects, err=%v, want %d", len(listed), err, len(objects))
	}
	for _, st := range listed {
		if st.DataLen != int64(len(objects[st.ID])) || st.Shards < code.K() {
			t.Fatalf("listed %+v, want %d bytes on at least %d holders", st, len(objects[st.ID]), code.K())
		}
	}
	if err := c.nodes[3].Delete(ctx, "obj-0"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	delete(objects, "obj-0")
	if _, err := c.nodes[1].Get(ctx, "obj-0"); !errors.Is(err, dstore.ErrNotFound) {
		t.Fatalf("get after delete: err=%v, want ErrNotFound", err)
	}

	// A put whose context dies while its shard fan-out is on the wire is
	// aborted, not leaked: the bridge cancels the Handle on the loop. The
	// writer is the one node outside the object's placement, so all three
	// transfers are remote and none can commit before the cancel lands. (A
	// holder's own shard is delivered through the scheduler and commits
	// before the posted cancel runs; that sub-quorum orphan then fails
	// every later rebalance pass — recorded under ROADMAP item 3.)
	writer := c.nodes[0]
	holders := placement.Assign("doomed", names, code.N())
	for i, name := range names {
		if !viewHas(holders, name) {
			writer = c.nodes[i]
		}
	}
	dead, kill := context.WithCancel(ctx)
	kill()
	if err := writer.Put(dead, "doomed", selfHealPayload(7, 4<<20)); !errors.Is(err, dstore.ErrCanceled) {
		t.Fatalf("cancelled put: err=%v, want ErrCanceled", err)
	}
	waitFor(t, 5*time.Second, "cancelled put's request handlers to drain", func() bool {
		pending := -1
		writer.Call(func() { pending = writer.Client.PendingRequests() })
		return pending == 0
	})
	if _, err := c.nodes[1].Get(ctx, "doomed"); !errors.Is(err, dstore.ErrNotFound) {
		t.Fatalf("get of cancelled put: err=%v, want ErrNotFound", err)
	}

	// Stop d, from a settled cluster: everyone sees the whole ring and no
	// pass is in flight (a busy box can vote a live node out for a moment,
	// and a pass caught mid-transfer by the stop was seen to stall past
	// 10 s, hence the long limit on the completed-pass wait below).
	waitFor(t, 30*time.Second, "the cluster to settle before the stop", func() bool {
		for _, n := range c.nodes {
			st := n.SelfHealStats()
			if len(n.View()) != len(names) || st.Passes != st.Completed+st.Yields+st.Failures {
				return false
			}
		}
		return true
	})
	survivors, survivorRegs := c.nodes[:3], c.regs[:3]
	viewChanges := make([]uint64, len(survivors))
	completed := 0
	for i, n := range survivors {
		viewChanges[i] = telemetryCounterTotal(survivorRegs[i].Snapshot(), "selfheal.view_changes")
		completed += n.SelfHealStats().Completed
	}
	c.nodes[3].Stop()
	// Every survivor drops d from its view and counts the change; the
	// leader's debounced pass runs to completion.
	for i, n := range survivors {
		n := n
		waitFor(t, 10*time.Second, "survivor "+names[i]+" to drop d from its view", func() bool {
			return !viewHas(n.View(), "d")
		})
		if got := telemetryCounterTotal(survivorRegs[i].Snapshot(), "selfheal.view_changes"); got <= viewChanges[i] {
			t.Fatalf("survivor %s: selfheal.view_changes %d -> %d across the stop", names[i], viewChanges[i], got)
		}
	}
	waitFor(t, 45*time.Second, "a survivor to complete a rebalance pass", func() bool {
		now := 0
		for _, n := range survivors {
			now += n.SelfHealStats().Completed
		}
		return now > completed
	}, func() string {
		var b strings.Builder
		for i, n := range survivors {
			st := n.SelfHealStats()
			fmt.Fprintf(&b, "\n  %s: passes %d, completed %d, yields %d, failures %d; view %v, leader %s",
				names[i], st.Passes, st.Completed, st.Yields, st.Failures, n.View(), n.Leader())
		}
		return b.String()
	})
	for id, want := range objects {
		got, err := survivors[1].Get(ctx, id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("get %s after self-heal: err=%v equal=%v", id, err, bytes.Equal(got, want))
		}
	}
}

// waitFor polls cond every 20 ms until it holds or the deadline passes. A
// timeout's failure message appends whatever the explain funcs report.
func waitFor(t *testing.T, limit time.Duration, what string, cond func() bool, explain ...func() string) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			var state string
			for _, e := range explain {
				state += e()
			}
			t.Fatalf("timed out after %v waiting for %s%s", limit, what, state)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStartRealNodeBuildErrorReturns pins the build-error path: a StorageDir
// that cannot be created must surface as StartRealNode's error — not hang on
// a mesh teardown issued from the loop's own goroutine — and release the UDP
// ports.
func TestStartRealNodeBuildErrorReturns(t *testing.T) {
	file := filepath.Join(t.TempDir(), "regular-file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	book := reservePorts(t, []string{"a"}, 2)
	errc := make(chan error, 1)
	go func() {
		_, err := StartRealNode(NodeConfig{
			Name:       "a",
			Ring:       []string{"a", "b", "c"},
			Locals:     book["a"],
			StorageDir: filepath.Join(file, "shards"),
			Telemetry:  telemetry.NewRegistry(),
		})
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, syscall.ENOTDIR) {
			t.Fatalf("StartRealNode error = %v, want the MkdirAll failure", err)
		}
	case <-time.After(time.Second):
		t.Fatal("StartRealNode still blocked 1s after a build error")
	}
	for _, addr := range book["a"] {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			t.Fatal(err)
		}
		s, err := net.ListenUDP("udp", ua)
		if err != nil {
			t.Fatalf("port %s not released after the failed start: %v", addr, err)
		}
		s.Close()
	}
}

// TestDefaultCodeOneRule checks both assemblies pick the same code when the
// caller names none: B-Code where n admits it, otherwise RS(n, n-2), and the
// mirror at n = 2.
func TestDefaultCodeOneRule(t *testing.T) {
	want := map[int]string{
		2: "rs(2,1)", 3: "rs(3,1)", 4: "bcode(4,2)", 5: "rs(5,3)",
		6: "bcode(6,4)", 7: "rs(7,5)", 8: "rs(8,6)", 9: "rs(9,7)",
	}
	ring := []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9"}
	for n := 2; n <= 9; n++ {
		p, err := New(ring[:n], Options{})
		if err != nil {
			t.Fatalf("n=%d: core.New: %v", n, err)
		}
		node, err := StartRealNode(NodeConfig{
			Name:      "n1",
			Ring:      ring[:n],
			Locals:    []string{"127.0.0.1:0"},
			Telemetry: telemetry.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("n=%d: StartRealNode: %v", n, err)
		}
		node.Stop()
		sim, real := p.Code(), node.code
		if sim.Name() != want[n] || sim.N() != real.N() || sim.K() != real.K() || sim.Name() != real.Name() {
			t.Errorf("n=%d: core.New picked %s, StartRealNode %s, want %s", n, sim.Name(), real.Name(), want[n])
		}
	}
}
