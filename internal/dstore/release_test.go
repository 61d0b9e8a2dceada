package dstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rain/internal/ecc"
	"rain/internal/rudp"
	"rain/internal/sim"
	"rain/internal/storage"
)

// tracked returns a flag obj's finalizer sets once obj has been collected.
// (runtime.SetFinalizer rather than package weak: go.mod says 1.21.)
func tracked[T any](obj *T) *atomic.Bool {
	gone := new(atomic.Bool)
	runtime.SetFinalizer(obj, func(*T) { gone.Store(true) })
	return gone
}

// collected forces collections until flag's object has been finalized.
func collected(flag *atomic.Bool) bool {
	for i := 0; i < 100 && !flag.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return flag.Load()
}

// newClients starts a daemon on each of six simulated LAN nodes a..f and a
// client configured by cfg on each node named in on. The code is RS(6,4)
// unless cfg names one; the daemons report into cfg.Telemetry.
func newClients(t *testing.T, seed int64, cfg Config, on ...string) (*sim.Scheduler, []*Client) {
	t.Helper()
	if cfg.Code == nil {
		code, err := ecc.NewReedSolomon(6, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Code = code
	}
	nodes := []string{"a", "b", "c", "d", "e", "f"}
	s := sim.New(seed)
	net := sim.NewNetwork(s)
	sim.ApplyProfile(net, nodes, 2, sim.ProfileLAN)
	mesh, err := rudp.NewMesh(s, net, nodes, rudp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		NewDaemon(mesh, n, i, storage.NewBackend(), cfg.ChunkSize, WithDaemonTelemetry(cfg.Telemetry))
	}
	cfg.Nodes = nodes
	var clients []*Client
	for _, n := range on {
		cl, err := NewClient(s, mesh, n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
	}
	s.RunFor(100 * time.Millisecond) // let path monitors come up
	return s, clients
}

// TestPutFeedBufferBounded pins the feed's memory bound: a producer that
// honours Offer's backpressure never makes the feed buffer more than one
// block plus the offer in hand, however long the object. The buffer used to
// be reset only when it drained to exactly zero bytes, which misaligned
// offers almost never do, so it grew to the whole object.
func TestPutFeedBufferBounded(t *testing.T) {
	const (
		size  = 8 << 20
		piece = 7001 // misaligned with chunk and block sizes
	)
	s, clients := newClients(t, 32, Config{}, "a", "b")
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + i>>13)
	}
	finished := false
	var putErr error
	f, err := clients[0].NewPutFeed("big", size, func(_ int, err error) { putErr, finished = err, true })
	if err != nil {
		t.Fatal(err)
	}
	room := true
	f.OnRoom(func() { room = true })
	bound := DefaultBlockSize + piece
	for off := 0; off < size && !finished; off += piece {
		room = f.Offer(data[off:min(off+piece, size)])
		if c := cap(f.pipe); c > bound {
			t.Fatalf("after %d bytes offered the feed buffers %d bytes of capacity, want <= %d", off+piece, c, bound)
		}
		for !room && !finished && s.Step() {
		}
	}
	f.Close(sha256.Sum256(data))
	for !finished && s.Step() {
	}
	if putErr != nil {
		t.Fatal(putErr)
	}
	got, err := clients[1].Get("big")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: err %v, equal %v", err, bytes.Equal(got, data))
	}
}

// TestFinishedOpsReleased pins the op-lifetime rule: a finished operation
// holds nothing of what it moved — not the get's sink writer, not the put's
// done callback, not the feed's buffered bytes (its pipe goes back to the
// client's bounded recycle list) — even though its handle (and the feed) are
// still held and its OpTimeout is far off. A deadline closure that outlived
// its op kept all of it reachable for 15 s.
func TestFinishedOpsReleased(t *testing.T) {
	s, clients := newClients(t, 31, Config{ChunkSize: 4 << 10}, "a")
	cl := clients[0]
	began := s.Now()
	run := func(what string, finished *bool) {
		t.Helper()
		for !*finished && s.Step() {
		}
		if !*finished {
			t.Fatalf("%s never finished", what)
		}
	}
	data := bytes.Repeat([]byte("rain"), 50<<10) // 200 KiB: several blocks

	// A whole-object put whose done callback holds a tracked object. The
	// constructors run in closures so only the handles outlive them here.
	putFinished := false
	putHandle, doneGone := func() (*Handle, *atomic.Bool) {
		owner := new([64 << 10]byte)
		gone := tracked(owner)
		return cl.PutAsync("whole", data, func(_ int, err error) {
			if err != nil {
				t.Errorf("put: %v", err)
			}
			owner[0]++
			putFinished = true
		}), gone
	}()
	run("put", &putFinished)

	// A streaming get into a tracked writer.
	getFinished := false
	getHandle, sinkGone := func() (*Handle, *atomic.Bool) {
		w := new(bytes.Buffer)
		gone := tracked(w)
		return cl.GetRangeAsync("whole", w, GetOptions{Length: -1}, func(n int64, err error) {
			if err != nil || n != int64(len(data)) {
				t.Errorf("get: %d bytes, %v", n, err)
			}
			getFinished = true
		}), gone
	}()
	run("get", &getFinished)

	// A feed put, offered a block at a time as a producer that honours
	// Offer's answer does, so its pipe stays within one block.
	feedFinished := false
	feed, err := cl.NewPutFeed("fed", int64(len(data)), func(_ int, err error) {
		if err != nil {
			t.Errorf("feed put: %v", err)
		}
		feedFinished = true
	})
	if err != nil {
		t.Fatal(err)
	}
	room := true
	feed.OnRoom(func() { room = true })
	for off := 0; off < len(data); off += DefaultBlockSize {
		room = feed.Offer(data[off:min(off+DefaultBlockSize, len(data))])
		for !room && !feedFinished && s.Step() {
		}
	}
	pipe := &feed.pipe[:1][0]
	feed.Close(sha256.Sum256(data))
	run("feed put", &feedFinished)

	// The resolved feed holds no buffer: its pipe is on the client's
	// recycle list, for the next feed.
	if feed.pipe != nil {
		t.Errorf("resolved PutFeed still holds a %d-byte pipe", cap(feed.pipe))
	}
	recycled := false
	for _, p := range cl.pipes {
		recycled = recycled || &p[:1][0] == pipe
	}
	if !recycled {
		t.Errorf("PutFeed's pipe is not on the client's recycle list (%d pipes there)", len(cl.pipes))
	}
	if el := s.Now() - began; el >= sim.Time(DefaultOpTimeout) {
		t.Fatalf("operations took %v of virtual time; the check needs them inside OpTimeout", time.Duration(el))
	}
	for _, c := range []struct {
		what string
		gone *atomic.Bool
	}{
		{"PutAsync's done callback", doneGone},
		{"GetRangeAsync's sink writer", sinkGone},
	} {
		if !collected(c.gone) {
			t.Errorf("%s still reachable after its op finished", c.what)
		}
	}

	// More puts in flight than the list holds: it keeps at most its cap.
	inFlight := 0
	for i := 0; i < maxPipes+4; i++ {
		inFlight++
		cl.PutAsync(fmt.Sprintf("small-%d", i), data[:4<<10], func(_ int, err error) {
			if err != nil {
				t.Errorf("small put: %v", err)
			}
			inFlight--
		})
	}
	for inFlight > 0 && s.Step() {
	}
	if inFlight > 0 {
		t.Fatalf("%d small puts never finished", inFlight)
	}
	if len(cl.pipes) > maxPipes {
		t.Errorf("%d pipes on the recycle list, cap %d", len(cl.pipes), maxPipes)
	}
	runtime.KeepAlive(putHandle)
	runtime.KeepAlive(getHandle)
	runtime.KeepAlive(feed)
}
