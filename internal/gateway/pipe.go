package gateway

import (
	"errors"
	"sync"

	"rain/internal/dstore"
)

// getPipe is the bounded ring buffer between the loop-side streaming decode
// and the handler goroutine draining it to the HTTP response. The decode
// writes whole blocks into it (never blocking the loop: GetOptions.Ready
// consults ready() before each block, so at most one block overshoots max,
// and the ring holds max plus one block), the consumer writes the oldest
// buffered run straight from the ring to the response and then frees it,
// and the producer is re-driven with Handle.Resume when that frees space. A
// consumer that vanished kills the pipe, which fails the next loop-side
// Write and aborts the decode — the daemons' sessions are cancelled, not
// leaked. The ring comes from the gateway's pool and goes back at release.
type getPipe struct {
	mu   sync.Mutex
	cond *sync.Cond
	ring []byte
	r, n int // ring offset of the oldest buffered byte; bytes buffered
	max  int

	pool *sync.Pool
	slot *[]byte // the pooled ring; nil once the ring outgrew it

	paused  bool // producer saw a full pipe: the consumer must Resume it
	wclosed bool // producer finished (werr holds the outcome)
	werr    error
	dead    bool               // consumer gone
	meta    *dstore.ObjectMeta // the version being read, once the producer knows it
}

var errConsumerGone = errors.New("gateway: response consumer gone")

// newGetPipe takes a ring from pool (of *[]byte) and pauses the producer
// once max bytes are buffered.
func newGetPipe(pool *sync.Pool, max int) *getPipe {
	slot := pool.Get().(*[]byte)
	p := &getPipe{ring: *slot, max: max, pool: pool, slot: slot}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Write copies decoded bytes into the ring's free space; loop-side (the
// decoder's sink). A write larger than the free space — a block bigger than
// the ring was sized for, which only an object stored by a node run with a
// larger -block produces — grows this pipe's ring instead of blocking the
// loop.
func (p *getPipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return 0, errConsumerGone
	}
	if len(b) == 0 {
		return 0, nil
	}
	if p.n+len(b) > len(p.ring) {
		p.grow(p.n + len(b))
	}
	w := (p.r + p.n) % len(p.ring)
	c := copy(p.ring[w:], b)
	copy(p.ring, b[c:])
	p.n += len(b)
	p.cond.Signal()
	return len(b), nil
}

// grow moves the buffered bytes to the front of a ring of size bytes. The
// old ring is not pooled again: the consumer may still be writing from it.
func (p *getPipe) grow(size int) {
	ring := make([]byte, size)
	first := min(p.n, len(p.ring)-p.r)
	copy(ring, p.ring[p.r:p.r+first])
	copy(ring[first:], p.ring[:p.n-first])
	p.ring, p.r, p.slot = ring, 0, nil
}

// ready gates the decode on downstream backpressure; loop-side. A false
// return pauses the operation, so it also records that the consumer owes a
// Resume.
func (p *getPipe) ready() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return true // let the decode run into Write's error and abort
	}
	if p.n >= p.max {
		p.paused = true
		return false
	}
	return true
}

// setMeta records the version being read, before any byte; loop-side.
func (p *getPipe) setMeta(m dstore.ObjectMeta) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.meta = &m
	p.cond.Broadcast()
}

// waitMeta blocks until the producer names the version it reads, finishes
// without one, or the consumer is gone; ok reports the first. Consumer-side.
func (p *getPipe) waitMeta() (m dstore.ObjectMeta, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.meta == nil && !p.wclosed && !p.dead {
		p.cond.Wait()
	}
	if p.meta == nil {
		return m, false
	}
	return *p.meta, true
}

// closeWrite marks the producer done with its outcome; loop-side.
func (p *getPipe) closeWrite(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wclosed = true
	p.werr = err
	p.cond.Broadcast()
}

// kill marks the consumer gone; consumer-side.
func (p *getPipe) kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dead = true
	p.cond.Broadcast()
}

// next blocks for buffered bytes and returns the oldest contiguous run of
// them, at most limit long; consumer-side. The run stays valid until
// consume — the producer only ever fills free space. A non-nil error means
// the stream ended; the outcome is in err().
func (p *getPipe) next(limit int) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.n == 0 && !p.wclosed && !p.dead {
		p.cond.Wait()
	}
	if p.n == 0 {
		return nil, errConsumerGone // closed or dead: stream over
	}
	k := min(p.n, len(p.ring)-p.r, limit)
	return p.ring[p.r : p.r+k], nil
}

// consume frees the first k buffered bytes, the run next returned;
// consumer-side. wake reports that the producer paused on a full pipe and
// this freed space — the caller must post Handle.Resume.
func (p *getPipe) consume(k int) (wake bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n -= k
	p.r += k
	if p.n == 0 || p.r == len(p.ring) {
		p.r = 0 // an empty ring refills from the front, keeping runs long
	}
	if p.paused && p.n < p.max {
		p.paused = false
		wake = true
	}
	return wake
}

// err reports the producer's outcome once next signalled the end.
func (p *getPipe) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.werr
}

// release ends the pipe and returns its ring to the pool; consumer-side,
// once nothing of the ring is in use. A later loop-side Write fails as one
// to a vanished consumer, so a decode the cancel has not reached yet never
// touches a ring another request now owns.
func (p *getPipe) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dead = true
	if p.slot != nil {
		p.pool.Put(p.slot)
	}
	p.ring, p.slot, p.r, p.n = nil, nil, 0, 0
}
