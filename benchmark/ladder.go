package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/gf"
	"rain/internal/netbuf"
	"rain/internal/rt"
	"rain/internal/rudp"
	"rain/internal/sim"
	"rain/internal/storage"
	"rain/internal/telemetry"
)

// ladder measures each layer alone, by calling its public functions directly
// at the workload's object size. The difference between a rung and the one
// above it is what the layer in between costs; every call is a span, so the
// trace file carries the same breakdown.
type ladder struct {
	m      metrics
	spans  *spanLog
	budget time.Duration // per rung
	root   string        // scratch directory
	seed   int64
	size   int
	ops    opStats // the requests the cluster rungs made
}

// maxCalls caps a rung of very cheap calls, which would otherwise fill the
// span file with hundreds of thousands of identical spans.
const maxCalls = 2000

// rung calls fn until the rung's budget or maxCalls is spent, at least three
// times, and returns the per-call durations.
func (l *ladder) rung(name string, fn func() error) ([]time.Duration, error) {
	parent := l.spans.newID()
	begin := time.Now()
	var d []time.Duration
	for len(d) < 3 || (len(d) < maxCalls && time.Since(begin) < l.budget) {
		t := time.Now()
		if err := fn(); err != nil {
			return nil, fmt.Errorf("ladder rung %s: %w", name, err)
		}
		end := time.Now()
		d = append(d, end.Sub(t))
		l.spans.add(l.spans.newID(), parent, 0, name, t, end)
	}
	l.spans.add(parent, 0, 0, "ladder."+name, begin, time.Now())
	return d, nil
}

// putRungs measures a PUT at the core facade and through HTTP with one
// client on the live cluster, then deletes what it wrote so the disk figures
// see only the workload's keys. It runs before any node is stopped. Like
// every request of the run, a call the cluster refuses is a failed op in
// l.ops, not the end of the run.
func (l *ladder) putRungs(ctx context.Context, c *cluster) error {
	data := make([]byte, l.size)
	fill(data, l.seed, "ladder-core")
	core, err := l.rung("core.put", func() error {
		l.coreOp(c.nodes[0].Put(ctx, "ladder-core", data))
		return nil
	})
	if err != nil {
		return err
	}
	l.coreOp(c.nodes[0].Delete(ctx, "ladder-core"))
	cl := newClient(9, workload{size: l.size, live: 1}, l.seed, c.urls[0])
	_, err = l.rung("http.put", func() error { cl.put(ctx, &l.ops, true); return nil })
	for len(cl.live) > 0 {
		cl.delete(ctx, &l.ops, 0)
	}
	l.m.set("core.put_ms", "ms", ms(median(core)))
	l.m.set("gateway.self_put_ms", "ms", ms(median(l.ops.put)-median(core)))
	return err
}

// coreOp books one call at the core facade as a request.
func (l *ladder) coreOp(err error) {
	l.ops.attempted++
	if err != nil {
		l.ops.fail("core")
	}
}

// getRungs measures a GET of one of the workload's own objects at the core
// facade and through HTTP with one client — in the cluster's current mode,
// so after a node stop these are degraded reads of a key that lost a shard.
func (l *ladder) getRungs(ctx context.Context, c *cluster, cl *client) error {
	if len(cl.live) == 0 {
		return errors.New("ladder: the workload left no key to read")
	}
	key := cl.live[0]
	for _, k := range cl.live {
		if cl.lostShard(k) {
			key = k
			break
		}
	}
	want := make([]byte, l.size)
	fill(want, l.seed, key)
	core, err := l.rung("core.get", func() error {
		got, err := c.nodes[0].Get(ctx, key)
		l.coreOp(err)
		if err == nil && !bytes.Equal(got, want) {
			l.ops.mismatches++
			l.ops.fail("mismatch")
		}
		return nil
	})
	if err != nil {
		return err
	}
	_, err = l.rung("http.get", func() error { cl.get(ctx, &l.ops, key); return nil })
	l.m.set("core.get_ms", "ms", ms(median(core)))
	l.m.set("gateway.self_get_ms", "ms", ms(median(l.ops.get)-median(core)))
	return err
}

// offlineRungs measures the layers that need no cluster. It runs after the
// cluster is gone, so six nodes' timers do not compete with it.
func (l *ladder) offlineRungs() error {
	for _, f := range []func() error{l.gfRung, l.eccRungs, l.netbufRung, l.storageRungs, l.rtRungs, l.rudpRungs, l.simRungs} {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) gfRung() error {
	src, dst := make([]byte, 64<<10), make([]byte, 64<<10)
	fill(src, l.seed, "gf")
	d, err := l.rung("gf.muladd", func() error { gf.MulAddSlice(0x57, src, dst); return nil })
	l.m.set("gf.muladd_MBps", "MB/s", ratio(float64(len(src)), us(median(d))))
	return err
}

// eccRungs runs the streaming codec the store uses — rs(6,4) in 64 KiB block
// codewords — over one object: encode, decode with every shard present, and
// decode with data shard 0 missing.
func (l *ladder) eccRungs() error {
	code, err := ecc.NewReedSolomon(codeN, codeK)
	if err != nil {
		return err
	}
	obj := make([]byte, l.size)
	fill(obj, l.seed, "ecc")
	var blocks [][][]byte // [block][shard], copied out of the encoder's reused buffers
	enc, err := l.rung("ecc.encode", func() error {
		e, err := ecc.NewStreamEncoder(code, bytes.NewReader(obj), dstore.DefaultBlockSize)
		if err != nil {
			return err
		}
		keep := blocks == nil
		for {
			shards, _, err := e.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if keep {
				cp := make([][]byte, len(shards))
				for i, s := range shards {
					cp[i] = append([]byte(nil), s...)
				}
				blocks = append(blocks, cp)
			}
		}
	})
	if err != nil {
		return err
	}
	var out bytes.Buffer // reused, so the rungs time the codec and not the allocator
	out.Grow(l.size)
	decode := func(drop bool) func() error {
		return func() error {
			out.Reset()
			d, err := ecc.NewStreamDecoder(code, &out, int64(l.size), dstore.DefaultBlockSize)
			if err != nil {
				return err
			}
			in := make([][]byte, codeN)
			for _, b := range blocks {
				copy(in, b)
				if drop {
					in[0] = nil
				}
				if err := d.NextBlock(in); err != nil {
					return err
				}
			}
			if !bytes.Equal(out.Bytes(), obj) {
				return errors.New("decoded object differs")
			}
			return nil
		}
	}
	dec, err := l.rung("ecc.decode", decode(false))
	if err != nil {
		return err
	}
	rec, err := l.rung("ecc.reconstruct", decode(true))
	if err != nil {
		return err
	}
	l.m.set("ecc.encode_us", "us", us(median(enc)))
	l.m.set("ecc.decode_us", "us", us(median(dec)))
	l.m.set("ecc.reconstruct_us", "us", us(median(rec)))
	return nil
}

// netbufRung sends one 32 KiB chunk down and up the header pipeline: marshal
// into a pooled frame, push the service and wire headers, parse all three
// layers back by aliasing.
func (l *ladder) netbufRung() error {
	payload := make([]byte, dstore.DefaultChunkSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := l.rung("netbuf.frame", func() error {
		f, data := dstore.NewMsgFrame(dstore.Msg{Kind: dstore.KindPutChunk, Req: 3, ID: "obj",
			ShardLen: 1 << 20, DataLen: 4 << 20, BlockLen: dstore.DefaultBlockSize, Win: 4}, len(payload))
		defer f.Release()
		copy(data, payload)
		rudp.PushService(f, dstore.ServiceDaemon)
		rudp.Wire{Kind: rudp.KindData, Seq: 9, Payload: f.Datagram()}.PushHeader(f)
		w, err := rudp.UnmarshalWire(f.Datagram())
		if err != nil {
			return err
		}
		_, framed, ok := rudp.SplitService(w.Payload)
		if !ok {
			return errors.New("bad service frame")
		}
		m, err := dstore.Unmarshal(framed)
		if err == nil && len(m.Data) != len(payload) {
			err = errors.New("payload truncated")
		}
		return err
	})
	runtime.ReadMemStats(&after)
	l.m.set("netbuf.frame_ns", "ns", float64(median(d)))
	// The rung's own bookkeeping (a span and a slice append per call) is in
	// this count when tracing; it is a constant of the benchmark.
	l.m.set("netbuf.frame_allocs", "count", ratio(float64(after.Mallocs-before.Mallocs), float64(len(d))))
	return err
}

// storageRungs writes, commits and reads back one shard of the object on a
// file backend, in the 32 KiB chunks the daemon uses.
func (l *ladder) storageRungs() error {
	dir, err := os.MkdirTemp(l.root, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b, err := storage.NewFileBackend(dir, telemetry.NewRegistry().Root())
	if err != nil {
		return err
	}
	shard := make([]byte, (l.size+codeK-1)/codeK)
	fill(shard, l.seed, "storage")
	chunk := dstore.DefaultChunkSize
	var commits []time.Duration
	writes, err := l.rung("storage.write", func() error {
		st := b.NewStage()
		for off := 0; off < len(shard); off += chunk {
			if err := st.Append(shard[off:min(off+chunk, len(shard))]); err != nil {
				return err
			}
		}
		t := time.Now()
		err := b.Commit(st, "shard", 0, l.size, dstore.DefaultBlockSize)
		commits = append(commits, time.Since(t))
		return err
	})
	if err != nil {
		return err
	}
	buf := make([]byte, chunk)
	reads, err := l.rung("storage.read_verify", func() error {
		for off := 0; off < len(shard); off += chunk {
			p := buf[:min(chunk, len(shard)-off)]
			if err := b.ReadAt("shard", p, int64(off)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m.set("storage.write_us", "us", us(median(writes)))
	l.m.set("storage.commit_us", "us", us(median(commits)))
	l.m.set("storage.read_verify_us", "us", us(median(reads)))
	return nil
}

// rtRungs measures the two hand-offs every request pays on an idle loop: a
// Call round trip from another goroutine, and how late a 1 ms timer fires.
func (l *ladder) rtRungs() error {
	loop := rt.New(l.seed)
	loop.Start()
	defer loop.Stop()
	calls, err := l.rung("rt.call", func() error {
		if !loop.Call(func() {}) {
			return errors.New("loop stopped")
		}
		return nil
	})
	if err != nil {
		return err
	}
	var late []time.Duration
	fired := make(chan time.Duration, 1) // one timer in flight at a time, so the loop never blocks on it
	_, err = l.rung("rt.timer", func() error {
		loop.Post(func() {
			armed := time.Now()
			loop.Scheduler().After(time.Millisecond, func() {
				fired <- time.Since(armed) - time.Millisecond
			})
		})
		late = append(late, <-fired)
		return nil
	})
	l.m.set("rt.call_us", "us", us(median(calls)))
	l.m.set("rt.timer_late_us", "us", us(median(late)))
	return err
}

// rudpRungs runs two RealMesh endpoints on loopback: 32 KiB frames one way
// for throughput, then a small frame bounced back and forth for round-trip
// time. Their counters go to a private registry.
func (l *ladder) rudpRungs() error {
	const burst = 256 // frames per throughput call: 8 MiB, far below the 4096-datagram backlog cap
	reg := telemetry.NewRegistry()
	type end struct {
		loop *rt.Loop
		mesh *rudp.RealMesh
	}
	open := func(name string, peers map[string][]string) (end, error) {
		e := end{loop: rt.New(l.seed)}
		e.loop.Start()
		var err error
		e.loop.Call(func() {
			e.mesh, err = rudp.NewRealMesh(e.loop, rudp.RealConfig{Name: name, Locals: []string{"127.0.0.1:0"},
				Peers: peers, Conn: rudp.Config{Telemetry: reg}})
		})
		if err != nil {
			e.loop.Stop()
		}
		return e, err
	}
	shut := func(e end) {
		e.mesh.Close()
		e.loop.Stop()
	}
	x, err := open("x", nil)
	if err != nil {
		return err
	}
	defer shut(x)
	y, err := open("y", map[string][]string{"x": x.mesh.LocalAddrs()})
	if err != nil {
		return err
	}
	defer shut(y)

	got := make(chan int, 1) // x reports each full burst; one slot so its loop never blocks
	pong := make(chan struct{}, 1)
	x.loop.Call(func() {
		n := 0
		x.mesh.Handle("x", "sink", func(_ string, p []byte) {
			if n++; n%burst == 0 {
				got <- n
			}
		})
		x.mesh.Handle("x", "echo", func(from string, p []byte) { x.mesh.SendService("x", from, "echo", p) })
	})
	y.loop.Call(func() {
		y.mesh.Handle("y", "echo", func(string, []byte) { pong <- struct{}{} })
	})
	wait := func(ch <-chan struct{}) error {
		select {
		case <-ch:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("loopback peer never answered")
		}
	}
	ping := func() error {
		y.loop.Post(func() { y.mesh.SendService("y", "x", "echo", []byte("ping")) })
		return wait(pong)
	}
	if err := ping(); err != nil { // the first exchange carries the handshake
		return err
	}
	rtts, err := l.rung("rudp.pair_rtt", ping)
	if err != nil {
		return err
	}
	oneWay, err := l.rung("rudp.pair_burst", func() error {
		y.loop.Post(func() {
			for i := 0; i < burst; i++ {
				y.mesh.SendFrame("y", "x", "sink", netbuf.NewFrame(dstore.DefaultChunkSize))
			}
		})
		select {
		case <-got:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("burst never arrived")
		}
	})
	if err != nil {
		return err
	}
	l.m.set("rudp.pair_rtt_us", "us", us(median(rtts)))
	l.m.set("rudp.pair_MBps", "MB/s", ratio(float64(burst*dstore.DefaultChunkSize), us(median(oneWay))))
	return nil
}

// simRungs runs a store client and six daemons on the simulator's virtual
// clock over a zero-delay in-process mesh: the wall time of a Put or Get
// there is the protocol's CPU cost with no kernel and no waiting in it.
func (l *ladder) simRungs() error {
	code, err := ecc.NewReedSolomon(codeN, codeK)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	s := sim.New(l.seed)
	net := sim.NewNetwork(s)
	sim.ApplyProfile(net, ring, 2, sim.LinkConfig{})
	mesh, err := rudp.NewMesh(s, net, ring, rudp.Config{Paths: 2, Telemetry: reg})
	if err != nil {
		return err
	}
	for i, n := range ring {
		dstore.NewDaemon(mesh, n, i, storage.NewBackend(reg.Node(n)), 0, dstore.WithDaemonTelemetry(reg))
	}
	cl, err := dstore.NewClient(s, mesh, "a", dstore.Config{Code: code, Nodes: ring, Telemetry: reg})
	if err != nil {
		return err
	}
	s.RunFor(100 * time.Millisecond) // let the path monitors settle
	obj := make([]byte, l.size)
	fill(obj, l.seed, "sim")
	puts, err := l.rung("dstore.sim_put", func() error { _, err := cl.Put("obj", obj); return err })
	if err != nil {
		return err
	}
	gets, err := l.rung("dstore.sim_get", func() error {
		got, err := cl.Get("obj")
		if err == nil && !bytes.Equal(got, obj) {
			err = errors.New("object read back differs")
		}
		return err
	})
	l.m.set("dstore.simcpu_put_us", "us", us(median(puts)))
	l.m.set("dstore.simcpu_get_us", "us", us(median(gets)))
	return err
}
