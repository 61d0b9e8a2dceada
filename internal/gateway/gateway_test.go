package gateway_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/gateway"
	"rain/internal/rt"
	"rain/internal/rudp"
	"rain/internal/sim"
	"rain/internal/storage"
	"rain/internal/telemetry"
)

// harness is a 6-node simulated dstore cluster driven by an rt.Loop against
// the wall clock, with the gateway serving over node a's client — the same
// loop discipline a real node runs, minus the sockets, so the HTTP
// semantics are exercised deterministically and fast.
type harness struct {
	t        *testing.T
	loop     *rt.Loop
	client   *dstore.Client
	backends map[string]*storage.Backend
	reg      *telemetry.Registry // the daemons', backends' and client's metrics
	gw       *gateway.Gateway
	srv      *httptest.Server
}

func newHarness(t *testing.T, seed int64, cfg gateway.Config) *harness {
	t.Helper()
	code, err := ecc.NewReedSolomon(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]string, 6)
	for i := range nodes {
		nodes[i] = string(rune('a' + i))
	}
	h := &harness{t: t, loop: rt.New(seed), backends: make(map[string]*storage.Backend), reg: telemetry.NewRegistry()}
	h.loop.Start()
	t.Cleanup(h.loop.Stop)
	ok := h.loop.Call(func() {
		s := h.loop.Scheduler()
		net := sim.NewNetwork(s)
		sim.ApplyProfile(net, nodes, 2, sim.ProfileLAN)
		mesh, merr := rudp.NewMesh(s, net, nodes, rudp.Config{})
		if merr != nil {
			err = merr
			return
		}
		clock := func() time.Time { return time.Unix(0, int64(s.Now())) }
		for i, node := range nodes {
			backend := storage.NewBackend(h.reg.Node(node))
			h.backends[node] = backend
			dstore.NewDaemon(mesh, node, i, backend, 4<<10, dstore.WithDaemonClock(clock), dstore.WithDaemonTelemetry(h.reg))
			cl, cerr := dstore.NewClient(s, mesh, node, dstore.Config{
				Code: code, Nodes: nodes, ChunkSize: 4 << 10, Telemetry: h.reg,
			})
			if cerr != nil {
				err = cerr
				return
			}
			if node == "a" {
				h.client = cl
			}
		}
	})
	if !ok || err != nil {
		t.Fatalf("building harness: ok=%v err=%v", ok, err)
	}
	h.gw = gateway.New(h.loop.Call, h.client, cfg)
	h.srv = httptest.NewServer(h.gw)
	t.Cleanup(h.srv.Close)
	time.Sleep(50 * time.Millisecond) // path monitors come up in wall time
	return h
}

func (h *harness) url(key string) string { return h.srv.URL + "/o/" + key }

func (h *harness) put(key string, data []byte) *http.Response {
	h.t.Helper()
	req, err := http.NewRequest(http.MethodPut, h.url(key), bytes.NewReader(data))
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func (h *harness) get(key string, hdr map[string]string) (*http.Response, []byte) {
	h.t.Helper()
	req, err := http.NewRequest(http.MethodGet, h.url(key), nil)
	if err != nil {
		h.t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		h.t.Fatal(err)
	}
	return resp, body
}

// count sums a counter family of the harness registry across its series.
func (h *harness) count(name string) uint64 {
	h.t.Helper()
	for _, f := range h.reg.Snapshot().Families {
		if f.Name != name {
			continue
		}
		var total uint64
		for _, s := range f.Series {
			total += s.Counter
		}
		return total
	}
	h.t.Fatalf("no counter %s", name)
	return 0
}

// pending reads the client's live request-handler count on the loop.
func (h *harness) pending() int {
	n := -1
	h.loop.Call(func() { n = h.client.PendingRequests() })
	return n
}

// waitDrained waits for every daemon session and request handler to settle.
func (h *harness) waitDrained() {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for h.pending() != 0 {
		if time.Now().After(deadline) {
			h.t.Fatalf("%d request handlers still live", h.pending())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestPutGetRoundtrip stores through HTTP and reads back bit-exact, with
// ETag and conditional If-Match behavior.
func TestPutGetRoundtrip(t *testing.T) {
	h := newHarness(t, 1, gateway.Config{})
	data := randBytes(42, 150<<10)
	resp := h.put("movie", data)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put status %d", resp.StatusCode)
	}
	wantETag := `"` + hex.EncodeToString(func() []byte { s := sha256.Sum256(data); return s[:] }()) + `"`
	if got := resp.Header.Get("ETag"); got != wantETag {
		t.Fatalf("put ETag %q, want %q", got, wantETag)
	}

	resp, body := h.get("movie", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("get status %d, equal=%v", resp.StatusCode, bytes.Equal(body, data))
	}
	if got := resp.Header.Get("ETag"); got != wantETag {
		t.Fatalf("get ETag %q, want %q", got, wantETag)
	}
	if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(data)) {
		t.Fatalf("Content-Length %q", cl)
	}

	// Conditional reads: matching tag serves, stale tag refuses.
	resp, _ = h.get("movie", map[string]string{"If-Match": wantETag})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matching If-Match: status %d", resp.StatusCode)
	}
	resp, _ = h.get("movie", map[string]string{"If-Match": `"deadbeef"`})
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("stale If-Match: status %d", resp.StatusCode)
	}

	// HEAD carries the metadata without a body.
	req, _ := http.NewRequest(http.MethodHead, h.url("movie"), nil)
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || hr.Header.Get("Content-Length") != fmt.Sprint(len(data)) {
		t.Fatalf("head status %d length %q", hr.StatusCode, hr.Header.Get("Content-Length"))
	}

	// Dotted keys are a reserved namespace (no gateway records live there
	// any more; the namespace is kept so it can hold some again).
	if resp := h.put(".sneaky", []byte("x")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dotted key: status %d", resp.StatusCode)
	}
	// Missing objects are a clean 404.
	if resp, _ := h.get("ghost", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing object: status %d", resp.StatusCode)
	}
	h.waitDrained()
}

// TestRangedReads exercises Range GETs at block boundaries ±1 — the stored
// block size is the client's default — plus suffix and clamped ranges, all
// served off the decode frontier with the metadata hint.
func TestRangedReads(t *testing.T) {
	h := newHarness(t, 2, gateway.Config{})
	const bs = dstore.DefaultBlockSize
	const size = 3*bs + 8<<10
	data := randBytes(7, size)
	if resp := h.put("obj", data); resp.StatusCode != http.StatusOK {
		t.Fatalf("put status %d", resp.StatusCode)
	}
	cases := []struct {
		spec     string
		from, to int64 // inclusive byte range expected back
	}{
		{"bytes=0-9", 0, 9},
		{fmt.Sprintf("bytes=%d-%d", bs-1, bs), bs - 1, bs}, // straddles the boundary
		{fmt.Sprintf("bytes=%d-%d", bs, bs), bs, bs},       // exactly one byte at the boundary
		{fmt.Sprintf("bytes=%d-%d", bs+1, bs+100), bs + 1, bs + 100},
		{fmt.Sprintf("bytes=%d-%d", 2*bs-1, 3*bs), 2*bs - 1, 3 * bs},       // spans three blocks
		{fmt.Sprintf("bytes=%d-", 3*bs), 3 * bs, size - 1},                 // the short final block
		{"bytes=-5", size - 5, size - 1},                                   // suffix
		{fmt.Sprintf("bytes=%d-%d", size-5, size+100), size - 5, size - 1}, // clamped
	}
	for _, tc := range cases {
		resp, body := h.get("obj", map[string]string{"Range": tc.spec})
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("%s: status %d", tc.spec, resp.StatusCode)
		}
		want := data[tc.from : tc.to+1]
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: got %d bytes, want %d (first diff at %d)", tc.spec, len(body), len(want), firstDiff(body, want))
		}
		wantCR := fmt.Sprintf("bytes %d-%d/%d", tc.from, tc.to, size)
		if cr := resp.Header.Get("Content-Range"); cr != wantCR {
			t.Fatalf("%s: Content-Range %q, want %q", tc.spec, cr, wantCR)
		}
	}
	// A range past the end is unsatisfiable.
	resp, _ := h.get("obj", map[string]string{"Range": fmt.Sprintf("bytes=%d-", size)})
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("past-the-end range: status %d", resp.StatusCode)
	}
	// A full-coverage range is served as a plain 200.
	resp, body := h.get("obj", map[string]string{"Range": fmt.Sprintf("bytes=0-%d", size-1)})
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("full range: status %d equal=%v", resp.StatusCode, bytes.Equal(body, data))
	}
	h.waitDrained()
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestClientDisconnectMidTransfer kills the HTTP client partway through a
// large GET whose decode is throttled by a small pipe, and asserts the
// retrieve is cancelled — no daemon session or request handler leaks.
func TestClientDisconnectMidTransfer(t *testing.T) {
	h := newHarness(t, 3, gateway.Config{PipeBuffer: 128 << 10})
	data := randBytes(9, 2<<20)
	if resp := h.put("big", data); resp.StatusCode != http.StatusOK {
		t.Fatalf("put status %d", resp.StatusCode)
	}
	resp, err := http.Get(h.url("big"))
	if err != nil {
		t.Fatal(err)
	}
	// Read a slice, then vanish.
	if _, err := io.ReadFull(resp.Body, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	h.waitDrained()

	// The cluster is unharmed: the object still reads back whole.
	resp2, body := h.get("big", nil)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("after disconnect: status %d equal=%v", resp2.StatusCode, bytes.Equal(body, data))
	}
	h.waitDrained()
}

// TestListPagination walks a listing in pages through the continuation
// token and checks the reserved dotted namespace never shows.
func TestListPagination(t *testing.T) {
	h := newHarness(t, 4, gateway.Config{})
	keys := []string{"k1", "k2", "k3", "k4", "k5"}
	for i, k := range keys {
		if resp := h.put(k, randBytes(int64(i), 5<<10)); resp.StatusCode != http.StatusOK {
			t.Fatalf("put %s: status %d", k, resp.StatusCode)
		}
	}
	var got []string
	start := ""
	for page := 0; ; page++ {
		if page > 5 {
			t.Fatal("pagination never terminated")
		}
		resp, body := h.get("?max=2&start="+start, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list status %d", resp.StatusCode)
		}
		var lp struct {
			Objects []struct {
				Key    string `json:"key"`
				Size   int64  `json:"size"`
				Shards int    `json:"shards"`
			} `json:"objects"`
			Truncated bool   `json:"truncated"`
			Next      string `json:"next"`
		}
		if err := json.Unmarshal(body, &lp); err != nil {
			t.Fatalf("list body: %v", err)
		}
		for _, o := range lp.Objects {
			if strings.HasPrefix(o.Key, ".") {
				t.Fatalf("hidden key %q leaked into the listing", o.Key)
			}
			if o.Size != 5<<10 || o.Shards != 6 {
				t.Fatalf("entry %+v", o)
			}
			got = append(got, o.Key)
		}
		if !lp.Truncated {
			break
		}
		start = lp.Next
	}
	if strings.Join(got, ",") != strings.Join(keys, ",") {
		t.Fatalf("paged listing = %v, want %v", got, keys)
	}
	h.waitDrained()
}

// TestConcurrentPutsSameKey races two writers on one key while readers
// fetch it: every put must succeed, and the final object must be exactly one
// of the two bodies (never an interleaving) with its ETag in agreement. Every
// read answered 200 in full must be one version whole — its ETag the SHA-256
// of its body, its Content-Length the body's length — and a read the store
// cannot finish after its headers went out is cut short, never completed
// with another version's bytes.
func TestConcurrentPutsSameKey(t *testing.T) {
	h := newHarness(t, 5, gateway.Config{})
	a := randBytes(100, 100<<10)
	b := randBytes(200, 130<<10)
	var wg sync.WaitGroup
	status := make([]int, 2)
	for i, body := range [][]byte{a, b} {
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				req, _ := http.NewRequest(http.MethodPut, h.url("contended"), bytes.NewReader(body))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("put %d: %v", i, err)
					return
				}
				resp.Body.Close()
				if status[i] = resp.StatusCode; status[i] != http.StatusOK {
					return
				}
			}
		}(i, body)
	}
	writing := make(chan struct{})
	var readers sync.WaitGroup
	var mu sync.Mutex
	whole := 0 // 200s read to the end
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-writing:
					return
				default:
				}
				resp, err := http.Get(h.url("contended"))
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					continue // not there yet, or no k holders agreed on a version
				}
				if rerr != nil {
					if int64(len(body)) >= resp.ContentLength {
						t.Errorf("read failed after the whole %d-byte body: %v", len(body), rerr)
					}
					continue
				}
				sum := sha256.Sum256(body)
				if etag := `"` + hex.EncodeToString(sum[:]) + `"`; resp.Header.Get("ETag") != etag {
					t.Errorf("200 with ETag %s over a body hashing to %s", resp.Header.Get("ETag"), etag)
				}
				if resp.ContentLength != int64(len(body)) || (!bytes.Equal(body, a) && !bytes.Equal(body, b)) {
					t.Errorf("200 with Content-Length %d over a %d-byte body that is neither writer's", resp.ContentLength, len(body))
				}
				mu.Lock()
				whole++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(writing)
	readers.Wait()
	if status[0] != http.StatusOK || status[1] != http.StatusOK {
		t.Fatalf("put statuses %v", status)
	}
	if whole == 0 {
		t.Fatal("no read overlapping the writers was answered in full")
	}
	resp, body := h.get("contended", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, a) && !bytes.Equal(body, b) {
		t.Fatalf("final object is neither writer's body (len %d)", len(body))
	}
	sum := sha256.Sum256(body)
	if want := `"` + hex.EncodeToString(sum[:]) + `"`; resp.Header.Get("ETag") != want {
		t.Fatalf("ETag %q disagrees with the surviving body", resp.Header.Get("ETag"))
	}
	h.waitDrained()
}

// TestDeleteAndAdmission deletes through the gateway and checks the 429
// admission path.
func TestDeleteAndAdmission(t *testing.T) {
	h := newHarness(t, 6, gateway.Config{})
	if resp := h.put("doomed", randBytes(1, 10<<10)); resp.StatusCode != http.StatusOK {
		t.Fatalf("put status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, h.url("doomed"), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if resp, _ := h.get("doomed", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", resp.StatusCode)
	}

	// Admission: a gateway with a tiny in-flight budget sheds the request
	// with 429 + Retry-After instead of queueing it.
	tiny := gateway.New(h.loop.Call, h.client, gateway.Config{MaxInflightBytes: 1})
	srv := httptest.NewServer(tiny)
	defer srv.Close()
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/o/nope", bytes.NewReader(make([]byte, 1<<10)))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("admission: status %d retry-after %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	h.waitDrained()
}

// TestCorruptObjectIs502 damages more shards of one object than the code's
// erasure margin can absorb and reads it back: the failure is verified
// corruption, not absence, so the gateway must answer 502 Bad Gateway (the
// store is at fault, the request was fine) with a body naming the object.
func TestCorruptObjectIs502(t *testing.T) {
	h := newHarness(t, 21, gateway.Config{})
	if resp := h.put("rotten", randBytes(5, 32<<10)); resp.StatusCode != http.StatusOK {
		t.Fatalf("put status %d", resp.StatusCode)
	}
	// rs(6,4) tolerates 2 erasures; corrupt 3 of the data object's shards
	// (the meta object stays intact so the GET reaches the data path).
	corrupted := 0
	for _, b := range h.backends {
		if corrupted == 3 {
			break
		}
		for _, info := range b.List() {
			if info.ID != "rotten" {
				continue
			}
			if err := b.CorruptShard(info.ID, 0); err != nil {
				t.Fatal(err)
			}
			corrupted++
		}
	}
	if corrupted != 3 {
		t.Fatalf("corrupted %d shards, want 3", corrupted)
	}
	resp, body := h.get("rotten", nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("get corrupt object: status %d, want 502 (body %q)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "rotten") {
		t.Fatalf("502 body does not name the object: %q", body)
	}
	h.waitDrained()
}

// TestOneStoreOperationPerRequest counts what each request costs the store:
// a 4 KiB PUT commits exactly n shard records, a GET opens exactly k daemon
// get sessions, a DELETE reaches n daemons — one store operation each. A
// HEAD is the metadata probe, which moves one chunk from each of the k
// streams that must agree on the version, even when every shard stream is
// many chunks long.
func TestOneStoreOperationPerRequest(t *testing.T) {
	h := newHarness(t, 7, gateway.Config{})
	const n, k = 6, 4
	data := randBytes(70, 4<<10)
	step := func(what string, want map[string]uint64, do func()) {
		t.Helper()
		before := make(map[string]uint64, len(want))
		for name := range want {
			before[name] = h.count(name)
		}
		do()
		h.waitDrained()
		for name, w := range want {
			if got := h.count(name) - before[name]; got != w {
				t.Errorf("%s: %s rose by %d, want %d", what, name, got, w)
			}
		}
	}
	step("PUT", map[string]uint64{"storage.backend.commits": n}, func() {
		if resp := h.put("small", data); resp.StatusCode != http.StatusOK {
			t.Fatalf("put status %d", resp.StatusCode)
		}
	})
	step("GET", map[string]uint64{"storage.backend.reads": k, "dstore.daemon.chunks_served": k, "dstore.client.hedges_fired": 0}, func() {
		if resp, body := h.get("small", nil); resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
			t.Fatalf("get status %d", resp.StatusCode)
		}
	})
	step("DELETE", map[string]uint64{"storage.backend.deletes": n, "rebalance.shards_deleted": n}, func() {
		req, _ := http.NewRequest(http.MethodDelete, h.url("small"), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete status %d", resp.StatusCode)
		}
	})

	big := randBytes(71, 150<<10) // ten 4 KiB chunks per shard stream
	if resp := h.put("big", big); resp.StatusCode != http.StatusOK {
		t.Fatalf("put status %d", resp.StatusCode)
	}
	h.waitDrained()
	served := h.count("dstore.daemon.chunks_served")
	req, _ := http.NewRequest(http.MethodHead, h.url("big"), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sum := sha256.Sum256(big)
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(big)) || resp.Header.Get("ETag") != `"`+hex.EncodeToString(sum[:])+`"` {
		t.Fatalf("head: status %d, length %d, ETag %s", resp.StatusCode, resp.ContentLength, resp.Header.Get("ETag"))
	}
	h.waitDrained()
	if moved := h.count("dstore.daemon.chunks_served") - served; moved != k {
		t.Fatalf("head moved %d chunks, want %d (one per probe stream)", moved, k)
	}
}

// TestStaleHolderIsOutvoted keeps one holder on an older version — as a node
// that was down during an overwrite does — and checks that no request takes
// that holder's word for the object's version, whichever holder it is (the
// client's own node, whose chunk arrives first, included). HEAD and GET
// report the current version, an If-Match naming it is honored, and a
// conditional DELETE naming the old version is refused.
func TestStaleHolderIsOutvoted(t *testing.T) {
	h := newHarness(t, 8, gateway.Config{})
	tag := func(data []byte) string {
		sum := sha256.Sum256(data)
		return `"` + hex.EncodeToString(sum[:]) + `"`
	}
	for i, node := range []string{"a", "b", "c", "d", "e", "f"} {
		key := "stale-" + node
		old, cur := randBytes(int64(80+i), 20<<10), randBytes(int64(90+i), 30<<10)
		if resp := h.put(key, old); resp.StatusCode != http.StatusOK {
			t.Fatalf("put status %d", resp.StatusCode)
		}
		h.waitDrained()
		b := h.backends[node]
		var info storage.ObjectInfo
		var shard []byte
		var err error
		h.loop.Call(func() {
			if info, err = b.Info(key); err == nil {
				shard, _, err = b.Get(key)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		shard = append([]byte(nil), shard...)
		if resp := h.put(key, cur); resp.StatusCode != http.StatusOK {
			t.Fatalf("put status %d", resp.StatusCode)
		}
		h.waitDrained()
		h.loop.Call(func() {
			st := b.NewStage()
			st.SetDigest(info.Digest)
			if err = st.Append(shard); err == nil {
				err = b.Commit(st, key, info.Shard, info.DataLen, info.BlockLen)
			}
		})
		if err != nil {
			t.Fatal(err)
		}

		req, _ := http.NewRequest(http.MethodHead, h.url(key), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(cur)) || resp.Header.Get("ETag") != tag(cur) {
			t.Fatalf("stale %s: head status %d, length %d, ETag %s; want the current version",
				node, resp.StatusCode, resp.ContentLength, resp.Header.Get("ETag"))
		}
		resp, body := h.get(key, map[string]string{"If-Match": tag(cur)})
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, cur) || resp.Header.Get("ETag") != tag(cur) {
			t.Fatalf("stale %s: get status %d, ETag %s, current body %v", node, resp.StatusCode, resp.Header.Get("ETag"), bytes.Equal(body, cur))
		}
		for _, c := range []struct {
			etag string
			want int
		}{{tag(old), http.StatusPreconditionFailed}, {tag(cur), http.StatusNoContent}} {
			req, _ = http.NewRequest(http.MethodDelete, h.url(key), nil)
			req.Header.Set("If-Match", c.etag)
			resp, err = http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("stale %s: delete If-Match %s: status %d, want %d", node, c.etag, resp.StatusCode, c.want)
			}
		}
		h.waitDrained()
	}
}
