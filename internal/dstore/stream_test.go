package dstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"rain/internal/dstore"
	"rain/internal/rudp"
	"rain/internal/sim"
	"rain/internal/storage"
)

// TestPutStreamGetStreamRoundtrip stores objects through the block-codeword
// streaming path and reads them back with streaming gets via a different
// node's client, across sizes around the block boundary.
func TestPutStreamGetStreamRoundtrip(t *testing.T) {
	const block = 8 << 10
	c := newCluster(t, 21, 6, 4, sim.ProfileLAN, func(cfg *dstore.Config) {
		cfg.BlockSize = block
	})
	for _, size := range []int{0, 1, block - 1, block, 5*block + 321, 300 << 10} {
		id := string(rune('A' + size%26))
		data := randBytes(int64(size), size)
		stored, err := c.clients["a"].PutStream(id, bytes.NewReader(data), int64(size))
		if err != nil {
			t.Fatalf("putstream %d bytes: %v", size, err)
		}
		if stored != 6 {
			t.Fatalf("putstream %d bytes: stored %d of 6", size, stored)
		}
		var out bytes.Buffer
		n, err := c.clients["b"].GetStream(id, &out)
		if err != nil {
			t.Fatalf("getstream %d bytes: %v", size, err)
		}
		if n != int64(size) || !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("roundtrip %d bytes: corrupted (read %d)", size, n)
		}
		// The daemons recorded the block layout, so the whole-buffer Get
		// decodes the same blocked shards.
		got, err := c.clients["c"].Get(id)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("whole-buffer get of blocked object (%d bytes): %v", size, err)
		}
	}
	// A whole-buffer put reads back through GetStream.
	data := randBytes(77, 90<<10)
	if _, err := c.clients["a"].Put("whole", data); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if n, err := c.clients["b"].GetStream("whole", &out); err != nil || n != int64(len(data)) || !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("getstream of a whole-buffer put: n=%d err=%v", n, err)
	}
	// The shard streams on disk are the encoder's block layout, bit for bit.
	streams := shardStreams(t, c.code, randBytes(int64(300<<10), 300<<10), block)
	id := string(rune('A' + (300<<10)%26))
	for _, node := range c.nodes {
		shard, _, err := c.backends[node].Get(id)
		if err != nil {
			t.Fatalf("backend %s: %v", node, err)
		}
		if !bytes.Equal(shard, streams[c.shardOn(id, node)]) {
			t.Fatalf("backend %s holds a shard stream that differs from the encoder layout", node)
		}
	}
}

// TestPutAndPutStreamStoreOneLayout pins the one object layout: a
// whole-buffer Put and a PutStream of the same bytes leave bit-identical
// shard streams and equal ObjectInfo, block length B, on every holder, for
// sizes around the block boundary and the empty object; a rebuilt holder
// gets exactly those back.
func TestPutAndPutStreamStoreOneLayout(t *testing.T) {
	const block = 8 << 10
	c := newCluster(t, 29, 5, 3, sim.ProfileLAN, func(cfg *dstore.Config) {
		cfg.BlockSize = block
	})
	type held struct {
		shard []byte
		info  storage.ObjectInfo
	}
	holdings := func(id string, nodes ...string) map[string]held {
		out := make(map[string]held)
		for _, node := range nodes {
			shard, _, err := c.backends[node].Get(id)
			if err != nil {
				t.Fatalf("%s on %s: %v", id, node, err)
			}
			info, err := c.backends[node].Info(id)
			if err != nil {
				t.Fatalf("%s on %s: %v", id, node, err)
			}
			out[node] = held{shard: append([]byte(nil), shard...), info: info}
		}
		return out
	}
	stored := make(map[string]map[string]held)
	for _, size := range []int{0, 1, block - 1, block, block + 1, 3*block + 7} {
		id := fmt.Sprintf("obj-%d", size)
		data := randBytes(int64(size)+90, size)
		if _, err := c.clients["a"].Put(id, data); err != nil {
			t.Fatalf("put %d bytes: %v", size, err)
		}
		put := holdings(id, c.nodes...)
		if _, err := c.clients["b"].PutStream(id, bytes.NewReader(data), int64(size)); err != nil {
			t.Fatalf("putstream %d bytes: %v", size, err)
		}
		streamed := holdings(id, c.nodes...)
		for _, node := range c.nodes {
			p, s := put[node], streamed[node]
			if !bytes.Equal(p.shard, s.shard) || p.info != s.info {
				t.Fatalf("%d bytes on %s: Put left %+v, PutStream %+v (shards equal: %v)",
					size, node, p.info, s.info, bytes.Equal(p.shard, s.shard))
			}
			if p.info.BlockLen != block {
				t.Fatalf("%d bytes on %s: block length %d, want %d", size, node, p.info.BlockLen, block)
			}
		}
		stored[id] = put
	}
	c.backends["e"].Wipe()
	if st, err := c.clients["a"].Rebalance(); err != nil || st.Moved+st.Rebuilt != len(stored) {
		t.Fatalf("rebuild: %d objects, %v", st.Moved+st.Rebuilt, err)
	}
	for id, want := range stored {
		got := holdings(id, "e")["e"]
		if !bytes.Equal(got.shard, want["e"].shard) || got.info != want["e"].info {
			t.Fatalf("rebuilt %s: %+v, want %+v (shards equal: %v)", id, got.info, want["e"].info, bytes.Equal(got.shard, want["e"].shard))
		}
	}
}

// TestGetStreamUnderLoss extends the 1-10% loss sweep to the streaming read
// path: blocked puts, n-k daemons dead, asymmetric latency on one link —
// GetStream must still deliver bit-exact data.
func TestGetStreamUnderLoss(t *testing.T) {
	for _, loss := range []float64{0.01, 0.05, 0.10} {
		c := newCluster(t, int64(2000*loss), 5, 3, sim.Lossy(sim.ProfileLAN, loss), func(cfg *dstore.Config) {
			cfg.BlockSize = 8 << 10
		})
		// Responses from d crawl back over a WAN-ish return path while
		// requests arrive quickly: the asymmetric regime.
		sim.ApplyAsymmetric(c.net, "a", "d", 2, sim.Lossy(sim.ProfileLAN, loss), sim.Lossy(sim.ProfileWAN, loss))
		data := randBytes(31, 120<<10)
		if _, err := c.clients["a"].PutStream("obj", bytes.NewReader(data), int64(len(data))); err != nil {
			t.Fatalf("loss %.0f%%: putstream: %v", loss*100, err)
		}
		// n-k = 2 daemons die; block-wise quorum reads must still succeed.
		c.mesh.StopNode("b")
		c.mesh.StopNode("e")
		var out bytes.Buffer
		n, err := c.clients["a"].GetStream("obj", &out)
		if err != nil {
			t.Fatalf("loss %.0f%%: getstream with n-k dead: %v", loss*100, err)
		}
		if n != int64(len(data)) || !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("loss %.0f%%: stream corrupted", loss*100)
		}
	}
}

// TestKillSurvivorMidRebuild is the degraded-repair scenario: during a
// block-wise hot-swap rebuild, one of the k survivor streams dies mid-object.
// The rebuild must hedge to the remaining spare and still deliver bit-exact
// shard streams to the newcomer.
func TestKillSurvivorMidRebuild(t *testing.T) {
	const block = 8 << 10
	c := newCluster(t, 23, 6, 4, sim.ProfileLAN, func(cfg *dstore.Config) {
		cfg.BlockSize = block
	})
	objects := map[string][]byte{
		"alpha": randBytes(50, 256<<10),
		"beta":  randBytes(51, 96<<10),
	}
	for id, data := range objects {
		if _, err := c.clients["a"].PutStream(id, bytes.NewReader(data), int64(len(data))); err != nil {
			t.Fatalf("putstream %s: %v", id, err)
		}
	}
	// Hot-swap b: blank node rejoins, a survivor's client rebuilds it.
	c.backends["b"].Wipe()
	if c.backends["b"].Objects() != 0 {
		t.Fatal("replacement node not blank")
	}
	finished := false
	var rebuilt int
	var rebuildErr error
	c.clients["d"].RebalanceAsync(nil, func(st dstore.RebalanceStats, err error) {
		rebuilt, rebuildErr, finished = st.Moved+st.Rebuilt, err, true
	})
	c.s.RunFor(2 * time.Millisecond) // survivor streams flowing, first blocks moving
	if finished {
		t.Fatal("rebuild finished before the kill — not mid-rebuild")
	}
	// Kill a survivor: with five left for k=4 sources, both objects' rebuilds
	// either read from it (and must hedge to the spare) or lose their spare.
	c.mesh.StopNode("e")
	for !finished && c.s.Step() {
	}
	if rebuildErr != nil {
		t.Fatalf("rebuild with survivor killed mid-stream: %v", rebuildErr)
	}
	if rebuilt != len(objects) {
		t.Fatalf("rebuilt %d objects, want %d", rebuilt, len(objects))
	}
	for id, data := range objects {
		want := shardStreams(t, c.code, data, block)
		shard, dataLen, err := c.backends["b"].Get(id)
		if err != nil {
			t.Fatalf("replacement missing %s: %v", id, err)
		}
		if !bytes.Equal(shard, want[c.shardOn(id, "b")]) {
			t.Fatalf("rebuilt shard stream of %s differs", id)
		}
		if dataLen != len(data) {
			t.Fatalf("rebuilt %s recorded size %d, want %d", id, dataLen, len(data))
		}
		if info, err := c.backends["b"].Info(id); err != nil || info.BlockLen != block {
			t.Fatalf("rebuilt %s lost its block layout: %+v %v", id, info, err)
		}
	}
}

// TestRebuildEmptyObjects hot-swaps a node holding empty objects: both
// puts store genuinely empty shard streams, which the rebuild must recreate
// (a metadata-only commit), not skip.
func TestRebuildEmptyObjects(t *testing.T) {
	c := newCluster(t, 27, 5, 3, sim.ProfileLAN, nil)
	if _, err := c.clients["a"].Put("put-empty", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.clients["a"].PutStream("blocked-empty", bytes.NewReader(nil), 0); err != nil {
		t.Fatal(err)
	}
	c.backends["e"].Wipe()
	stats, err := c.clients["b"].Rebalance()
	if err != nil {
		t.Fatalf("rebuild of empty objects: %v", err)
	}
	if rebuilt := stats.Moved + stats.Rebuilt; rebuilt != 2 {
		t.Fatalf("rebuilt %d objects, want 2", rebuilt)
	}
	for _, id := range []string{"put-empty", "blocked-empty"} {
		if shard, dataLen, err := c.backends["e"].Get(id); err != nil || len(shard) != 0 || dataLen != 0 {
			t.Fatalf("%s shard: %v %v dataLen=%d", id, shard, err, dataLen)
		}
	}
	for _, id := range []string{"put-empty", "blocked-empty"} {
		if got, err := c.clients["d"].Get(id); err != nil || len(got) != 0 {
			t.Fatalf("get %s after rebuild: %q %v", id, got, err)
		}
	}
}

// TestOrphanedSessionsReaped leaks a put assembly and a windowed get session
// on a daemon (their clients vanish mid-transfer) and watches the time-based
// sweep reap both, while a fresh assembly survives.
func TestOrphanedSessionsReaped(t *testing.T) {
	c := newCluster(t, 24, 5, 3, sim.ProfileLAN, nil)
	d := c.daemons["b"]
	// A put that will never finish: one chunk of a declared 64 KiB shard.
	c.mesh.SendService("a", "b", dstore.ServiceDaemon, dstore.Msg{
		Kind:     dstore.KindPutChunk,
		Req:      991,
		ID:       "leak",
		Off:      0,
		ShardLen: 64 << 10,
		DataLen:  64 << 10,
		BlockLen: 64 << 10,
		Data:     randBytes(1, 4<<10),
	}.Marshal())
	// A windowed get whose client never acks: store something first.
	if _, err := c.clients["a"].Put("obj", randBytes(2, 32<<10)); err != nil {
		t.Fatal(err)
	}
	c.mesh.SendService("a", "b", dstore.ServiceDaemon, dstore.Msg{
		Kind: dstore.KindGetReq,
		Req:  992,
		ID:   "obj",
		Win:  2,
	}.Marshal())
	c.s.RunFor(50 * time.Millisecond)
	if d.Assemblies() != 1 || d.GetSessions() != 1 {
		t.Fatalf("leaked sessions not present: asm=%d gets=%d", d.Assemblies(), d.GetSessions())
	}
	// Young sessions survive a sweep.
	if n := d.SweepOrphans(time.Minute); n != 0 {
		t.Fatalf("young sessions reaped: %d", n)
	}
	// Age them past the horizon and sweep again.
	c.s.RunFor(2 * time.Minute)
	if n := d.SweepOrphans(time.Minute); n != 2 {
		t.Fatalf("swept %d sessions, want 2", n)
	}
	if d.Assemblies() != 0 || d.GetSessions() != 0 {
		t.Fatalf("sessions survive sweep: asm=%d gets=%d", d.Assemblies(), d.GetSessions())
	}
	if st := d.Stats(); st.Reaped != 2 {
		t.Fatalf("reap counter %d, want 2", st.Reaped)
	}
	// The daemon still serves normally afterwards.
	if got, err := c.clients["c"].Get("obj"); err != nil || len(got) != 32<<10 {
		t.Fatalf("get after sweep: %v", err)
	}
}

// TestGetWindowPacing hand-rolls a windowed get against a daemon and checks
// the credit flow control: the daemon sends exactly Win chunks, stops until
// acked, resumes on credit, and closes its session at the final ack.
func TestGetWindowPacing(t *testing.T) {
	s := sim.New(25)
	net := sim.NewNetwork(s)
	nodes := []string{"cl", "dm"}
	sim.ApplyProfile(net, nodes, 2, sim.ProfileLAN)
	mesh, err := rudp.NewMesh(s, net, nodes, rudp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	backend := storage.NewBackend()
	shard := randBytes(3, 64<<10)
	backend.Put("obj", shard, 0, len(shard), 16<<10)
	const chunk = 4 << 10
	d := dstore.NewDaemon(mesh, "dm", 0, backend, chunk)
	var got []byte
	chunks := 0
	mesh.Handle("cl", dstore.ServiceClient, func(from string, payload []byte) {
		m, err := dstore.Unmarshal(payload)
		if err != nil || m.Err != "" {
			t.Fatalf("chunk error: %v %s", err, m.Err)
		}
		chunks++
		got = append(got, m.Data...)
	})
	send := func(m dstore.Msg) { mesh.SendService("cl", "dm", dstore.ServiceDaemon, m.Marshal()) }

	send(dstore.Msg{Kind: dstore.KindGetReq, Req: 7, ID: "obj", Win: 2})
	s.RunFor(time.Second)
	if chunks != 2 {
		t.Fatalf("daemon sent %d chunks into a 2-chunk window", chunks)
	}
	if d.GetSessions() != 1 {
		t.Fatalf("no open session: %d", d.GetSessions())
	}
	// Credit two chunks: exactly two more arrive.
	send(dstore.Msg{Kind: dstore.KindGetAck, Req: 7, ID: "obj", Off: int64(len(got)), Win: 2})
	s.RunFor(time.Second)
	if chunks != 4 {
		t.Fatalf("daemon sent %d chunks after one credit, want 4", chunks)
	}
	// Open the window wide and drain the rest.
	send(dstore.Msg{Kind: dstore.KindGetAck, Req: 7, ID: "obj", Off: int64(len(got)), Win: 64})
	s.RunFor(time.Second)
	if !bytes.Equal(got, shard) {
		t.Fatalf("streamed shard differs (%d of %d bytes)", len(got), len(shard))
	}
	// Final ack closes the session.
	send(dstore.Msg{Kind: dstore.KindGetAck, Req: 7, ID: "obj", Off: int64(len(shard))})
	s.RunFor(time.Second)
	if d.GetSessions() != 0 {
		t.Fatalf("session not closed at final ack: %d", d.GetSessions())
	}
	// A cancel ack (-1) tears down a fresh session immediately.
	send(dstore.Msg{Kind: dstore.KindGetReq, Req: 8, ID: "obj", Win: 1})
	s.RunFor(time.Second)
	send(dstore.Msg{Kind: dstore.KindGetAck, Req: 8, ID: "obj", Off: -1})
	s.RunFor(time.Second)
	if d.GetSessions() != 0 {
		t.Fatalf("cancelled session lingers: %d", d.GetSessions())
	}
}

// TestDaemonRefusesMalformedRequests pins what the daemon does with
// well-formed messages no client sends: a typed error reply, and no session,
// stage or stream opened on a hostile datagram's say-so.
func TestDaemonRefusesMalformedRequests(t *testing.T) {
	s := sim.New(26)
	net := sim.NewNetwork(s)
	nodes := []string{"cl", "dm"}
	sim.ApplyProfile(net, nodes, 2, sim.ProfileLAN)
	mesh, err := rudp.NewMesh(s, net, nodes, rudp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	backend := storage.NewBackend()
	shard := randBytes(4, 64<<10)
	backend.Put("obj", shard, 0, len(shard), 16<<10)
	d := dstore.NewDaemon(mesh, "dm", 0, backend, 4<<10)
	var replies []dstore.Msg
	mesh.Handle("cl", dstore.ServiceClient, func(from string, payload []byte) {
		m, err := dstore.Unmarshal(payload)
		if err != nil {
			t.Fatalf("unparseable reply: %v", err)
		}
		m.Data = nil // borrowed; only the header is checked
		replies = append(replies, m)
	})
	for _, tc := range []struct {
		name  string
		msg   dstore.Msg
		reply dstore.Kind
	}{
		{"get without a window", dstore.Msg{Kind: dstore.KindGetReq, Req: 1, ID: "obj"}, dstore.KindGetChunk},
		{"get with a negative window", dstore.Msg{Kind: dstore.KindGetReq, Req: 2, ID: "obj", Win: -3}, dstore.KindGetChunk},
		{"put chunk without a shard index", dstore.Msg{Kind: dstore.KindPutChunk, Req: 3, ID: "new", Shard: -1,
			ShardLen: 8, DataLen: 8, Data: []byte("8 bytes!")}, dstore.KindPutAck},
		{"put chunk with a negative shard length", dstore.Msg{Kind: dstore.KindPutChunk, Req: 4, ID: "new",
			ShardLen: -8, DataLen: 8, Data: []byte("8 bytes!")}, dstore.KindPutAck},
		{"put chunk with a negative object length", dstore.Msg{Kind: dstore.KindPutChunk, Req: 5, ID: "new",
			ShardLen: 8, DataLen: -1, Data: []byte("8 bytes!")}, dstore.KindPutAck},
		{"put chunk with a negative block length", dstore.Msg{Kind: dstore.KindPutChunk, Req: 6, ID: "new",
			ShardLen: 8, DataLen: 8, BlockLen: -1, Data: []byte("8 bytes!")}, dstore.KindPutAck},
		{"put chunk without a block length", dstore.Msg{Kind: dstore.KindPutChunk, Req: 7, ID: "new",
			ShardLen: 8, DataLen: 8, Data: []byte("8 bytes!")}, dstore.KindPutAck},
	} {
		replies = nil
		mesh.SendService("cl", "dm", dstore.ServiceDaemon, tc.msg.Marshal())
		s.RunFor(time.Second)
		if len(replies) != 1 || replies[0].Kind != tc.reply || replies[0].Req != tc.msg.Req ||
			!strings.Contains(replies[0].Err, dstore.ErrBadRequest.Error()) {
			t.Errorf("%s: replies %+v, want one %v carrying %q", tc.name, replies, tc.reply, dstore.ErrBadRequest)
		}
		if d.GetSessions() != 0 || d.Assemblies() != 0 {
			t.Errorf("%s: opened state: %d get sessions, %d assemblies", tc.name, d.GetSessions(), d.Assemblies())
		}
	}
	if _, err := backend.Info("new"); err == nil {
		t.Error("malformed put chunk was committed")
	}
	if st := d.Stats(); st.ChunksServed != 0 || st.ChunksStored != 0 || st.Errors != 7 {
		t.Errorf("daemon stats %+v, want 7 errors and no chunk traffic", st)
	}

	// A forged shard length is only a claim: the first chunk of a "64 TiB
	// shard" is staged like any other (on the memory backend an unbounded
	// up-front reservation would end the process here), and the transfer's
	// abort poison discards it.
	forged := dstore.Msg{Kind: dstore.KindPutChunk, Req: 8, ID: "new", ShardLen: 1 << 46, DataLen: 1 << 47, BlockLen: 64 << 10, Data: []byte("8 bytes!")}
	replies = nil
	mesh.SendService("cl", "dm", dstore.ServiceDaemon, forged.Marshal())
	s.RunFor(time.Second)
	if len(replies) != 1 || replies[0].Err != "" || replies[0].Off != 8 || d.Assemblies() != 1 {
		t.Fatalf("forged shard length: replies %+v, %d assemblies, want one clean ack at 8 and one open assembly", replies, d.Assemblies())
	}
	forged.Off, forged.Data = -1, nil
	mesh.SendService("cl", "dm", dstore.ServiceDaemon, forged.Marshal())
	s.RunFor(time.Second)
	if _, err := backend.Info("new"); err == nil || d.Assemblies() != 0 {
		t.Errorf("forged transfer not discarded: %d assemblies, info err %v", d.Assemblies(), err)
	}
}

// failingReader delivers its data then fails with err instead of EOF.
type failingReader struct {
	data []byte
	off  int
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, r.err
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestPutStreamLengthMismatch pins the abort contract for streaming puts
// whose source disagrees with the declared length: a short reader, an
// over-long reader, and a mid-stream read error must each fail cleanly —
// typed error, every daemon's staged write aborted, no partial object
// visible — and leave the cluster fully usable.
func TestPutStreamLengthMismatch(t *testing.T) {
	const block = 8 << 10
	c := newCluster(t, 33, 6, 4, sim.ProfileLAN, func(cfg *dstore.Config) {
		cfg.BlockSize = block
	})
	data := randBytes(7, 40<<10)
	boom := errors.New("disk on fire")
	long := append(append([]byte(nil), data...), 0x5a)

	cases := []struct {
		name    string
		r       io.Reader
		wantErr error
	}{
		{"short reader", bytes.NewReader(data[:30<<10]), dstore.ErrShortSource},
		{"long reader", bytes.NewReader(long), dstore.ErrLongSource},
		{"mid-stream error", &failingReader{data: data[:20<<10], err: boom}, boom},
	}
	for i, tc := range cases {
		id := fmt.Sprintf("bad%d", i)
		_, err := c.clients["a"].PutStream(id, tc.r, int64(len(data)))
		if !errors.Is(err, tc.wantErr) {
			t.Fatalf("%s: err=%v, want %v", tc.name, err, tc.wantErr)
		}
		// The abort poison must reach every daemon: no staged assembly
		// survives and no daemon committed a partial shard.
		c.s.RunFor(time.Second)
		for node, d := range c.daemons {
			if n := d.Assemblies(); n != 0 {
				t.Fatalf("%s: daemon %s keeps %d staged assemblies", tc.name, node, n)
			}
		}
		for node, b := range c.backends {
			if _, _, err := b.Stat(id); err == nil {
				t.Fatalf("%s: daemon %s committed a partial object", tc.name, node)
			}
		}
		if _, err := c.clients["b"].Get(id); err == nil {
			t.Fatalf("%s: get of aborted object succeeded", tc.name)
		}
	}
	// The same id and the same cluster still work after the failures.
	if _, err := c.clients["a"].PutStream("bad0", bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatalf("put after aborts: %v", err)
	}
	if got, err := c.clients["b"].Get("bad0"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("roundtrip after aborts: %v", err)
	}
}
