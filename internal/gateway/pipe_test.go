package gateway

import (
	"bytes"
	"sync"
	"testing"
)

// ringPool is a gateway-style pool of size-byte rings.
func ringPool(size int) *sync.Pool {
	return &sync.Pool{New: func() any {
		ring := make([]byte, size)
		return &ring
	}}
}

// drain consumes everything buffered, run by run, into out.
func drain(t *testing.T, p *getPipe, out *bytes.Buffer, limit int) {
	t.Helper()
	for p.n > 0 {
		run, err := p.next(limit)
		if err != nil {
			t.Fatalf("next with %d buffered: %v", p.n, err)
		}
		out.Write(run)
		p.consume(len(run))
	}
}

// Writes that straddle the ring's end wrap to its front, and runs come back
// in order: the read offset wraps instead of the remainder moving.
func TestGetPipeWraparound(t *testing.T) {
	p := newGetPipe(ringPool(10), 8)
	var got, want bytes.Buffer
	w := func(s string) {
		t.Helper()
		if _, err := p.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
		want.WriteString(s)
	}
	w("abcdef")
	run, _ := p.next(4)
	got.Write(run)
	p.consume(len(run)) // r=4, n=2
	w("ghijkl")         // 6 bytes from offset 6: wraps after "ghij"
	if len(p.ring) != 10 {
		t.Fatalf("ring grew to %d on a write that fit", len(p.ring))
	}
	run, _ = p.next(100)
	if string(run) != "efghij" {
		t.Fatalf("first run %q, want the contiguous tail %q", run, "efghij")
	}
	got.Write(run)
	p.consume(len(run))
	drain(t, p, &got, 100)
	if got.String() != want.String() {
		t.Fatalf("read %q, want %q", got.String(), want.String())
	}
	if p.r != 0 {
		t.Fatalf("empty ring left its read offset at %d", p.r)
	}
}

// A single write larger than the ring — a block stored with a larger block
// size, with the consumer still holding a run of the old ring — grows this
// pipe, keeps the held run intact, and the grown ring is not pooled.
func TestGetPipeWriteLargerThanRing(t *testing.T) {
	pool := ringPool(8)
	p := newGetPipe(pool, 6)
	p.Write([]byte("0123"))
	held, _ := p.next(2) // "01", not yet consumed
	big := bytes.Repeat([]byte("x"), 20)
	if n, err := p.Write(big); n != len(big) || err != nil {
		t.Fatalf("Write(%d bytes) = %d, %v", len(big), n, err)
	}
	if string(held) != "01" {
		t.Fatalf("run held across the grow reads %q", held)
	}
	p.consume(len(held))
	var got bytes.Buffer
	drain(t, p, &got, 100)
	if want := "23" + string(big); got.String() != want {
		t.Fatalf("read %q, want %q", got.String(), want)
	}
	p.release()
	if ring := pool.Get().(*[]byte); len(*ring) != 8 {
		t.Fatalf("pool handed out a %d-byte ring; the grown one must not be pooled", len(*ring))
	}
}

// kill while the consumer waits ends the stream on both sides: the blocked
// next returns, and the loop's next Write fails instead of buffering.
func TestGetPipeKillMidRead(t *testing.T) {
	p := newGetPipe(ringPool(16), 8)
	ended := make(chan error)
	go func() {
		_, err := p.next(16)
		ended <- err
	}()
	p.kill()
	if err := <-ended; err == nil {
		t.Fatal("next returned no end after kill")
	}
	if _, err := p.Write([]byte("late")); err != errConsumerGone {
		t.Fatalf("Write after kill: %v, want errConsumerGone", err)
	}
	if !p.ready() {
		t.Fatal("ready() false after kill: the decode would pause instead of aborting")
	}
	p.release()
	if _, err := p.Write([]byte("later")); err != errConsumerGone {
		t.Fatalf("Write after release: %v, want errConsumerGone", err)
	}
}

// A warm write/read cycle allocates nothing: the ring is reused in place.
func TestGetPipeNoAllocs(t *testing.T) {
	p := newGetPipe(ringPool(3<<10), 2<<10)
	block := make([]byte, 1500) // not a divisor of the ring: cycles wrap
	allocs := testing.AllocsPerRun(100, func() {
		p.Write(block)
		for p.n > 0 {
			run, _ := p.next(1 << 10)
			p.consume(len(run))
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per write/read cycle, want 0", allocs)
	}
}
