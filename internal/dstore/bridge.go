package dstore

import (
	"context"
	"crypto/sha256"
	"io"

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

// Stat looks one object up in the merged inventory.
func (b *Bridge) Stat(ctx context.Context, id string) (ObjectStat, error) {
	return await(ctx, b, func(done func(ObjectStat, error)) *Handle {
		b.client.StatAsync(id, done)
		return nil
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
// goroutine, and while a block is buffered and the daemons' credit windows
// are full it is the caller that parks, so a slow cluster throttles the
// producer and never the loop. A read error or a dead ctx aborts the put
// (the daemons' staged writes are poisoned).
func (b *Bridge) PutStream(ctx context.Context, id string, r io.Reader, size int64) (storage.Digest, error) {
	var (
		feed    *PutFeed
		room    = make(chan struct{}, 1)
		done    = make(chan struct{})
		putErr  error // written on the loop before done closes
		err     error
		none    storage.Digest
		hashing = sha256.New()
	)
	if !b.call(func() {
		feed, err = b.client.NewPutFeed(id, size, func(_ int, e error) {
			putErr = e
			close(done)
		})
		if err == nil {
			feed.OnRoom(func() {
				select {
				case room <- struct{}{}:
				default:
				}
			})
		}
	}) {
		return none, ErrCanceled
	}
	if err != nil {
		return none, err
	}
	abort := func(err error) (storage.Digest, error) {
		b.call(feed.Cancel)
		return none, err
	}
	// Up to a block per read, what the feed asks for before it pauses; one
	// byte past size is enough to see the EOF (or an overlong source) of a
	// small object without a block-sized buffer per request.
	buf := make([]byte, min(int64(b.client.BlockSize()), size+1))
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			hashing.Write(buf[:n])
			hasRoom := false
			if !b.call(func() { hasRoom = feed.Offer(buf[:n]) }) {
				return none, ErrCanceled
			}
			if !hasRoom {
				select {
				case <-room:
				case <-done: // resolved early: the outcome surfaces below
				case <-ctx.Done():
					return abort(ctx.Err())
				}
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return abort(rerr)
		}
	}
	digest := sum(hashing)
	if !b.call(func() { feed.Close(digest) }) {
		return none, ErrCanceled
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
