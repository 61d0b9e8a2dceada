package dstore_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"
	"time"

	"rain/internal/dstore"
	"rain/internal/sim"
)

// TestGetRange exercises ranged retrieves at block boundaries ±1, suffix
// ranges and past-the-end clamping — both un-hinted (decode from the front,
// trim) and hinted (streams start at the range's first block) — and checks
// that a hint naming another version fails the retrieve instead of decoding
// this one's shards.
func TestGetRange(t *testing.T) {
	c := newCluster(t, 21, 6, 4, sim.ProfileLAN, nil)
	const bs = dstore.DefaultBlockSize // the client's block size (RS(6,4) needs no trim)
	const size = 3*bs + 8<<10
	data := randBytes(99, size)
	if _, err := c.clients["a"].PutStream("obj", bytes.NewReader(data), size); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ off, length int64 }{
		{0, 10},
		{bs - 1, 2}, // straddles the first block boundary
		{bs, 1},
		{bs + 1, 100},
		{2*bs - 1, bs + 2},    // spans three blocks
		{3 * bs, size - 3*bs}, // exactly the short final block
		{size - 5, -1},        // suffix
		{size - 5, 100},       // length clamped at the end
		{0, -1},               // everything
		{0, 0},                // nothing
	}
	for _, hint := range []*dstore.ObjectMeta{nil, {DataLen: size, BlockLen: bs, Digest: sha256.Sum256(data)}} {
		for _, tc := range cases {
			var buf bytes.Buffer
			var n int64
			var err error
			finished := false
			c.clients["b"].GetRangeAsync("obj", &buf,
				dstore.GetOptions{Off: tc.off, Length: tc.length, Meta: hint},
				func(written int64, e error) { n, err, finished = written, e, true })
			for !finished && c.s.Step() {
			}
			if err != nil {
				t.Fatalf("range off=%d len=%d hint=%v: %v", tc.off, tc.length, hint != nil, err)
			}
			end := int64(size)
			if tc.length >= 0 && tc.off+tc.length < end {
				end = tc.off + tc.length
			}
			want := data[tc.off:end]
			if n != int64(len(want)) || !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("range off=%d len=%d hint=%v: got %d bytes, want %d (equal=%v)",
					tc.off, tc.length, hint != nil, n, len(want), bytes.Equal(buf.Bytes(), want))
			}
		}
		if got := c.clients["b"].PendingRequests(); got != 0 {
			t.Fatalf("hint=%v: %d request handlers leaked", hint != nil, got)
		}
	}

	stale := &dstore.ObjectMeta{DataLen: size, BlockLen: bs, Digest: sha256.Sum256(data[1:])}
	var err error
	finished := false
	c.clients["b"].GetRangeAsync("obj", &bytes.Buffer{}, dstore.GetOptions{Off: bs, Length: 10, Meta: stale},
		func(_ int64, e error) { err, finished = e, true })
	for !finished && c.s.Step() {
	}
	if !errors.Is(err, dstore.ErrNotEnoughDaemons) {
		t.Fatalf("range pinned to another version: err %v, want ErrNotEnoughDaemons", err)
	}
}

// TestPutFeed stores an object through the push-mode feed in odd-sized
// pieces, riding the Offer/OnRoom backpressure, and reads it back through
// another node.
func TestPutFeed(t *testing.T) {
	c := newCluster(t, 22, 6, 4, sim.ProfileLAN, nil)
	const size = 150 << 10
	data := randBytes(123, size)
	var stored int
	var ferr error
	finished := false
	f, err := c.clients["a"].NewPutFeed("fed", size, func(s int, e error) { stored, ferr, finished = s, e, true })
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < size && !finished; {
		n := 7001 // deliberately misaligned with chunk and block sizes
		if off+n > size {
			n = size - off
		}
		room := f.Offer(data[off : off+n])
		off += n
		if !room {
			c.s.RunFor(2 * time.Millisecond) // let acks drain the window
		}
	}
	f.Close(sha256.Sum256(data))
	for !finished && c.s.Step() {
	}
	if ferr != nil {
		t.Fatal(ferr)
	}
	if stored != 6 {
		t.Fatalf("stored %d of 6 shards", stored)
	}
	got, err := c.clients["b"].Get("fed")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fed object corrupted")
	}
}

// TestPutFeedSlowProducer pauses a feed for several stall timeouts with one
// chunk outstanding per transfer — fewer than the daemons' coalesced acks
// cover, so they rightly stay silent. The transfers must wait for the
// producer, not fail against healthy peers.
func TestPutFeedSlowProducer(t *testing.T) {
	const block = 16 << 10 // one 4 KiB chunk per shard per block
	c := newCluster(t, 24, 6, 4, sim.ProfileLAN, func(cfg *dstore.Config) { cfg.BlockSize = block })
	data := randBytes(124, 4*block)
	var stored int
	var ferr error
	finished := false
	f, err := c.clients["a"].NewPutFeed("slow", int64(len(data)), func(s int, e error) { stored, ferr, finished = s, e, true })
	if err != nil {
		t.Fatal(err)
	}
	f.Offer(data[:block])
	c.s.RunFor(3 * dstore.DefaultReqTimeout)
	if finished {
		t.Fatalf("put resolved while its producer was paused: stored %d, err %v", stored, ferr)
	}
	f.Offer(data[block:])
	f.Close(sha256.Sum256(data))
	for !finished && c.s.Step() {
	}
	if ferr != nil || stored != 6 {
		t.Fatalf("stored %d of 6 shards, err %v", stored, ferr)
	}
	got, err := c.clients["b"].Get("slow")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("slow-fed object: err %v, equal %v", err, bytes.Equal(got, data))
	}
}

// TestPutFeedLengthMismatch checks the feed surfaces over- and under-long
// producers as the typed source errors.
func TestPutFeedLengthMismatch(t *testing.T) {
	c := newCluster(t, 23, 6, 4, sim.ProfileLAN, nil)
	var errLong, errShort error
	long := false
	f, err := c.clients["a"].NewPutFeed("long", 10, func(_ int, e error) { errLong, long = e, true })
	if err != nil {
		t.Fatal(err)
	}
	f.Offer(make([]byte, 11))
	for !long && c.s.Step() {
	}
	if !errors.Is(errLong, dstore.ErrLongSource) {
		t.Fatalf("over-long feed: err=%v, want ErrLongSource", errLong)
	}
	short := false
	f, err = c.clients["a"].NewPutFeed("short", 10, func(_ int, e error) { errShort, short = e, true })
	if err != nil {
		t.Fatal(err)
	}
	f.Offer(make([]byte, 5))
	f.Close(sha256.Sum256(make([]byte, 5)))
	for !short && c.s.Step() {
	}
	if !errors.Is(errShort, dstore.ErrShortSource) {
		t.Fatalf("short feed: err=%v, want ErrShortSource", errShort)
	}
}

// TestPutFeedOverlongAfterFinalBlock offers exactly the declared length and
// then one byte more. The block that completes the stream must wait for
// Close, so the extra byte fails the put with ErrLongSource while no daemon
// holds a whole shard — nothing is committed, nothing silently truncated.
func TestPutFeedOverlongAfterFinalBlock(t *testing.T) {
	c := newCluster(t, 26, 6, 4, sim.ProfileLAN, nil)
	var putErr error
	finished := false
	f, err := c.clients["a"].NewPutFeed("x", 10, func(_ int, e error) { putErr, finished = e, true })
	if err != nil {
		t.Fatal(err)
	}
	f.Offer(randBytes(5, 10))
	c.s.RunFor(50 * time.Millisecond)
	if finished {
		t.Fatalf("put resolved before Close: err %v", putErr)
	}
	f.Offer([]byte{1})
	if !finished || !errors.Is(putErr, dstore.ErrLongSource) {
		t.Fatalf("over-long feed: finished %v, err %v, want ErrLongSource", finished, putErr)
	}
	c.s.RunFor(time.Second)
	if _, err := c.clients["b"].Get("x"); !errors.Is(err, dstore.ErrNotFound) {
		t.Fatalf("get of over-long put: err %v, want ErrNotFound", err)
	}
}

// TestDeleteAndList stores three objects, lists them, deletes one and
// checks it is gone from both reads (ErrNotFound) and the listing.
func TestDeleteAndList(t *testing.T) {
	c := newCluster(t, 24, 6, 4, sim.ProfileLAN, nil)
	for _, id := range []string{"x1", "x2", "x3"} {
		if _, err := c.clients["a"].Put(id, randBytes(1, 9<<10)); err != nil {
			t.Fatal(err)
		}
	}
	objs, err := c.clients["b"].List()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 || objs[0].ID != "x1" || objs[2].ID != "x3" {
		t.Fatalf("listing = %+v, want x1..x3 sorted", objs)
	}
	if objs[1].Shards != 6 || objs[1].DataLen != 9<<10 {
		t.Fatalf("x2 stat = %+v", objs[1])
	}
	if err := c.clients["b"].Delete("x2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.clients["c"].Get("x2"); !errors.Is(err, dstore.ErrNotFound) {
		t.Fatalf("get after delete: err=%v, want ErrNotFound", err)
	}
	objs, err = c.clients["c"].List()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 || objs[0].ID != "x1" || objs[1].ID != "x3" {
		t.Fatalf("listing after delete = %+v", objs)
	}
}

// TestCtxCancellation checks that cancelling an in-flight operation's Handle
// — what a dead request context turns into on a node's loop — aborts it with
// ErrCanceled and leaks no request handlers.
func TestCtxCancellation(t *testing.T) {
	c := newCluster(t, 25, 6, 4, sim.ProfileLAN, nil)
	data := randBytes(7, 100<<10)
	if _, err := c.clients["a"].Put("obj", data); err != nil {
		t.Fatal(err)
	}
	// cancelInFlight lets the operation's first event run, cancels it, and
	// pumps until the cancellation resolves it.
	cancelInFlight := func(h *dstore.Handle, done *bool) {
		c.s.Step()
		h.Cancel()
		for !*done && c.s.Step() {
		}
	}
	var getErr, putErr error
	getDone, putDone := false, false
	cancelInFlight(c.clients["b"].GetAsync("obj", func(_ []byte, e error) { getErr, getDone = e, true }), &getDone)
	if !errors.Is(getErr, dstore.ErrCanceled) {
		t.Fatalf("cancelled get: err=%v, want ErrCanceled", getErr)
	}
	cancelInFlight(c.clients["b"].PutAsync("obj2", data, func(_ int, e error) { putErr, putDone = e, true }), &putDone)
	if !errors.Is(putErr, dstore.ErrCanceled) {
		t.Fatalf("cancelled put: err=%v, want ErrCanceled", putErr)
	}
	c.s.RunFor(2 * time.Second) // cancels and abort poisons settle
	if got := c.clients["b"].PendingRequests(); got != 0 {
		t.Fatalf("%d request handlers leaked after cancellation", got)
	}
	// The cancelled put must not have committed anywhere.
	if _, err := c.clients["c"].Get("obj2"); !errors.Is(err, dstore.ErrNotFound) {
		t.Fatalf("get of cancelled put: err=%v, want ErrNotFound", err)
	}
	// And the object untouched by all this still reads back.
	got, err := c.clients["c"].Get("obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after cancellations: err=%v, equal=%v", err, bytes.Equal(got, data))
	}
}
