package dstore

import (
	"context"
	"crypto/sha256"
	"io"
	"sync"

	"rain/internal/storage"
)

// Bridge is the goroutine-safe front of a loop-owned Client. The client and
// everything it touches belong to one scheduler goroutine (an rt.Loop on a
// deployed node, a pumped simulator in tests); request-scoped callers — the
// node's own Put/Get facade, the HTTP gateway's handlers — live on others.
// Every method posts its operation onto the loop through call, waits for the
// outcome on the caller's goroutine, and turns a dead context into
// Handle.Cancel on the loop, so an abandoned request poisons its put stages
// and cancels its get sessions instead of leaking them. The loop itself is
// never blocked: readers are consumed and results delivered off it.
type Bridge struct {
	call   func(func()) bool
	client *Client
	bufs   sync.Pool // PutStream's block-sized read buffers (*[]byte)
}

// NewBridge bridges onto c. call must run its closure on the goroutine that
// owns c and report whether it ran (false once that loop has stopped).
func NewBridge(call func(func()) bool, c *Client) *Bridge {
	return &Bridge{call: call, client: c}
}

// await starts one operation on the loop and waits for its outcome. If ctx
// dies first, an operation that returned a Handle is cancelled on the loop
// and its (now ErrCanceled) outcome awaited; one without — idempotent or
// read-only — just stops being waited for. A stopped loop reports
// ErrCanceled.
func await[T any](ctx context.Context, b *Bridge, start func(done func(T, error)) *Handle) (T, error) {
	type outcome struct {
		v   T
		err error
	}
	var zero T
	ch := make(chan outcome, 1)
	var h *Handle
	if !b.call(func() { h = start(func(v T, err error) { ch <- outcome{v, err} }) }) {
		return zero, ErrCanceled
	}
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		if h == nil || !b.call(h.Cancel) {
			return zero, ctx.Err()
		}
		r := <-ch
		return r.v, r.err
	}
}

// Put stores an object across the cluster, aborting the shard fan-out when
// ctx is cancelled.
func (b *Bridge) Put(ctx context.Context, id string, data []byte) error {
	_, err := await(ctx, b, func(done func(int, error)) *Handle {
		return b.client.PutAsync(id, data, done)
	})
	return err
}

// Get retrieves a whole object into memory.
func (b *Bridge) Get(ctx context.Context, id string) ([]byte, error) {
	return await(ctx, b, func(done func([]byte, error)) *Handle {
		return b.client.GetAsync(id, done)
	})
}

// Head runs the metadata probe (HeadAsync).
func (b *Bridge) Head(ctx context.Context, id string) (ObjectMeta, error) {
	return await(ctx, b, func(done func(ObjectMeta, error)) *Handle {
		return b.client.HeadAsync(id, done)
	})
}

// List walks the cluster inventory.
func (b *Bridge) List(ctx context.Context) ([]ObjectStat, error) {
	return await(ctx, b, func(done func([]ObjectStat, error)) *Handle {
		b.client.ListAsync(done)
		return nil
	})
}

// Delete removes an object's shards cluster-wide. Deletes are idempotent,
// so cancellation just stops the wait.
func (b *Bridge) Delete(ctx context.Context, id string) error {
	_, err := await(ctx, b, func(done func(struct{}, error)) *Handle {
		b.client.DeleteAsync(id, func(err error) { done(struct{}{}, err) })
		return nil
	})
	return err
}

// PutStream stores an object of exactly size bytes from r through a
// PutFeed and returns its SHA-256. r is read and hashed on the calling
// goroutine into a pooled buffer, filled to a block (or to EOF) before each
// loop call: the first call opens the feed and offers, and the call that
// has seen EOF also closes it, so an object of at most a block costs one
// loop round trip. While a block is buffered and the daemons' credit
// windows are full it is the caller that parks, so a slow cluster throttles
// the producer and never the loop; OnRoom fires only to end such a pause, so
// the feed never holds more than one block. A read error or a dead ctx
// aborts the put (the daemons' staged writes are poisoned).
func (b *Bridge) PutStream(ctx context.Context, id string, r io.Reader, size int64) (storage.Digest, error) {
	var none storage.Digest
	if err := checkLen(size); err != nil {
		return none, err
	}
	bp := b.readBuf()
	buf, reuse := *bp, true
	defer func() {
		if reuse {
			b.bufs.Put(bp)
		}
	}()
	var (
		feed    *PutFeed
		room    = make(chan struct{}, 1)
		done    = make(chan struct{})
		putErr  error // written on the loop before done closes
		openErr error
		hasRoom bool
		n       int
		eof     bool
		read    int64
		digest  storage.Digest
		hashing = sha256.New()
	)
	step := func() {
		if feed == nil {
			feed, openErr = b.client.NewPutFeed(id, size, func(_ int, e error) {
				putErr = e
				close(done)
			})
			if openErr != nil {
				return
			}
			feed.OnRoom(func() {
				select {
				case room <- struct{}{}:
				default:
				}
			})
		}
		hasRoom = n == 0 || feed.Offer(buf[:n])
		if eof {
			feed.Close(digest)
		}
	}
	for !eof {
		// Up to a block per call, what the feed asks for before it pauses;
		// once at most a block is left, one byte more, which reads the EOF
		// (or reveals an over-long source) in the same call.
		want := int64(len(buf) - 1)
		if left := size - read; left <= want {
			want = max(left, 0) + 1
		}
		var rerr error
		n, rerr = fill(r, buf[:want])
		read += int64(n)
		hashing.Write(buf[:n])
		if rerr != nil && rerr != io.EOF {
			if feed != nil {
				b.call(feed.Cancel)
			}
			return none, rerr
		}
		if eof = rerr == io.EOF; eof {
			digest = sum(hashing)
		}
		if !b.call(step) {
			reuse = false // the loop stopped, maybe mid-call, with buf in hand
			return none, ErrCanceled
		}
		if openErr != nil {
			return none, openErr
		}
		if !hasRoom {
			select {
			case <-room:
			case <-done: // resolved early: the outcome surfaces below
			case <-ctx.Done():
				b.call(feed.Cancel)
				return none, ctx.Err()
			}
		}
		select {
		case <-done: // resolved before the source ended: it failed
			eof = true
		default:
		}
	}
	select {
	case <-done:
	case <-ctx.Done():
		if !b.call(feed.Cancel) {
			return none, ctx.Err()
		}
		<-done
	}
	if putErr != nil {
		return none, putErr
	}
	return digest, nil
}

// readBuf borrows a PutStream read buffer: a block plus the probe byte.
func (b *Bridge) readBuf() *[]byte {
	if bp, ok := b.bufs.Get().(*[]byte); ok {
		return bp
	}
	buf := make([]byte, b.client.BlockSize()+1)
	return &buf
}

// fill reads into buf until it is full, r reports EOF, or a read fails.
func fill(r io.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
