package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"time"

	"rain"
)

// workload is one traffic mix. Every client is a closed loop on one
// keep-alive connection to the gateway of ring node (client mod 2): it sends
// its next request only when the previous response has been read and
// verified, so the numbers are for `clients` callers that each wait for
// their reply, never for an arrival rate.
//
// Keys are written once. A PUT always creates a fresh key, and when a client
// holds more than `live` keys it deletes its oldest (outside every timed
// interval). An overwrite that races one of the cluster's false death votes
// leaves a stale shard behind and a later GET returns a blend (ROADMAP item
// 3); a ruler has to run on workloads where no operation fails, so the
// workloads do not overwrite.
type workload struct {
	name    string
	why     string
	size    int  // object bytes
	clients int  // never above nproc=2 on the reference box
	keys    int  // keys per client preloaded before anything is timed
	live    int  // most keys a client keeps; beyond it the oldest is deleted
	puts    bool // half PUT, half GET (false: GET only)
	degrade bool // stop ring node f before the window
}

// The table BENCHMARK.json pins. `why` is copied there verbatim.
var workloads = []workload{
	{name: "small_mixed", size: 4 << 10, clients: 2, keys: 128, live: 128, puts: true,
		why: "4 KiB objects, 2 clients, half PUT half GET: per-request cost (meta round trips, loop hand-offs, per-datagram rudp, 12 commits per PUT) dominates; codec, CRC and copies do almost nothing"},
	{name: "large_stream", size: 8 << 20, clients: 1, keys: 4, live: 4, puts: true,
		why: "8 MiB objects, 1 client, half PUT half GET: bytes dominate (ecc, CRC32C, netbuf copies, rudp windows and retransmits, gateway pipe and sha256); per-request overhead is noise"},
	{name: "mid_get", size: 1 << 20, clients: 2, keys: 32, live: 32, puts: false,
		why: "1 MiB objects, 2 clients, GET only: normal-mode read and the control for degraded_get; bypasses encode and storage commit, so a write-side change must not move it"},
	{name: "degraded_get", size: 1 << 20, clients: 2, keys: 32, live: 32, puts: false, degrade: true,
		why: "mid_get after ring node f is stopped and dropped from every view: k-of-n reads with a holder gone (ecc reconstruct, liveness filter, hedging); 2/3 of keys lose a data shard"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const opTimeout = 30 * time.Second

// fill writes the payload of (seed, key) into buf: a xorshift64 stream, fast
// enough that generating 8 MiB costs a few milliseconds of the client's own
// time and nothing of the system's.
func fill(buf []byte, seed int64, key string) {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ h.Sum64()
	if x == 0 {
		x = 1
	}
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
	for ; i < len(buf); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
}

// opStats is what one client measured in one phase. Each client owns its
// own, so nothing here is shared while a phase runs.
type opStats struct {
	put, get, ttfb   []time.Duration
	send, wait, recv []time.Duration // traced phases only
	bytes            int64           // payload bytes of verified-successful PUTs and GETs
	ok               int             // verified-successful PUTs and GETs
	reconstructs     int             // successful GETs of keys whose data shard sat on the stopped node
	attempted        int             // every op, DELETEs included
	failed           int
	retried          int            // refusals waited out and sent again
	status           map[string]int // failure breakdown: HTTP code, "transport", "timeout", "mismatch"
	mismatches       int
	elapsed          time.Duration // phase start to this client's last response
	gap, maxGap      time.Duration // client's own time between a response and the next request
}

func (s *opStats) fail(kind string) {
	s.failed++
	if s.status == nil {
		s.status = make(map[string]int)
	}
	s.status[kind]++
}

func (s *opStats) merge(o *opStats) {
	s.put = append(s.put, o.put...)
	s.get = append(s.get, o.get...)
	s.ttfb = append(s.ttfb, o.ttfb...)
	s.send = append(s.send, o.send...)
	s.wait = append(s.wait, o.wait...)
	s.recv = append(s.recv, o.recv...)
	s.bytes += o.bytes
	s.ok += o.ok
	s.reconstructs += o.reconstructs
	s.attempted += o.attempted
	s.failed += o.failed
	s.retried += o.retried
	s.mismatches += o.mismatches
	for k, v := range o.status {
		if s.status == nil {
			s.status = make(map[string]int)
		}
		s.status[k] += v
	}
	s.gap += o.gap
	if o.maxGap > s.maxGap {
		s.maxGap = o.maxGap
	}
}

// client is one closed-loop HTTP caller. It owns its keys, so what it stored
// under a key is what a GET must return, byte for byte.
type client struct {
	id      int
	seed    int64
	url     string
	size    int
	maxLive int
	live    []string // keys whose PUT was acknowledged, oldest first
	made    int      // keys ever created; names the next one
	stopped string   // ring node that is down, "" in normal mode
	rng     *rand.Rand
	http    *http.Client
	spans   *spanLog // nil unless this phase is traced

	sendBuf, wantBuf, chunk []byte
	deck                    []bool // upcoming op kinds, true = PUT
	lastDone                time.Time
}

func newClient(id int, w workload, seed int64, url string) *client {
	return &client{
		id: id, seed: seed, url: url, size: w.size, maxLive: w.live,
		rng:     rand.New(rand.NewSource(seed*1000003 + int64(id))),
		sendBuf: make([]byte, w.size), wantBuf: make([]byte, w.size), chunk: make([]byte, 64<<10),
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
}

// lostShard reports whether one of the key's data shards lives on the
// stopped node, from the same placement function the store uses.
func (c *client) lostShard(key string) bool {
	if c.stopped == "" {
		return false
	}
	for shard, holder := range rain.Placement(key, ring, codeN) {
		if holder == c.stopped && shard < codeK {
			return true
		}
	}
	return false
}

// retries is how often a request the gateway refuses with a Retry-After is
// sent again before the op counts as failed.
const retries = 3

// do carries out one op and classifies the outcome. body is nil for GET and
// DELETE. It returns the response with its body still to be read.
//
// A refusal that names a Retry-After is waited out and retried, as an S3
// client would: several times a minute the cluster votes a live node out of
// the ring for a tenth of a second, and while it is the gateway's own node
// every request gets a 503. The op then succeeds late — its latency holds
// the wait, st.retried counts the refusal — and only a request refused
// `retries` times over is a failed op. Retrying is safe because a key's
// payload never changes.
func (c *client) do(ctx context.Context, st *opStats, method, key string, body []byte, tr *httptrace.ClientTrace) (*http.Response, context.CancelFunc, bool) {
	st.attempted++
	for attempt := 0; ; attempt++ {
		opCtx, cancel := context.WithTimeout(ctx, opTimeout)
		if tr != nil {
			opCtx = httptrace.WithClientTrace(opCtx, tr)
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(opCtx, method, c.url+key, rd)
		if err != nil {
			cancel()
			st.fail("transport")
			return nil, nil, false
		}
		resp, err := c.http.Do(req)
		if err != nil {
			cancel()
			st.fail(transportKind(err))
			return nil, nil, false
		}
		if resp.StatusCode/100 == 2 {
			return resp, cancel, true
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		cancel()
		wait, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || wait <= 0 || attempt == retries {
			st.fail(strconv.Itoa(resp.StatusCode))
			return nil, nil, false
		}
		st.retried++
		select {
		case <-ctx.Done():
			st.fail(strconv.Itoa(resp.StatusCode))
			return nil, nil, false
		case <-time.After(time.Duration(min(wait, 2)) * time.Second):
		}
	}
}

func transportKind(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "timeout"
	}
	return "transport"
}

// reqTrace times the three client-side stages of one request for the traced
// run: body written, first response byte, body drained.
type reqTrace struct {
	wrote, first time.Time
}

func (t *reqTrace) hooks() *httptrace.ClientTrace {
	return &httptrace.ClientTrace{
		WroteRequest:         func(httptrace.WroteRequestInfo) { t.wrote = time.Now() },
		GotFirstResponseByte: func() { t.first = time.Now() },
	}
}

// record files the request's root span and its three children.
func (c *client) record(st *opStats, name string, t *reqTrace, start, end time.Time) {
	if t.wrote.IsZero() || t.first.IsZero() {
		return
	}
	st.send = append(st.send, t.wrote.Sub(start))
	st.wait = append(st.wait, t.first.Sub(t.wrote))
	st.recv = append(st.recv, end.Sub(t.first))
	root := c.spans.newID()
	c.spans.add(root, 0, root, name, start, end)
	c.spans.add(c.spans.newID(), root, root, "req_send", start, t.wrote)
	c.spans.add(c.spans.newID(), root, root, "req_wait", t.wrote, t.first)
	c.spans.add(c.spans.newID(), root, root, "resp_recv", t.first, end)
}

// put stores a fresh key and, once it is acknowledged, makes it readable; a
// client over its key budget then deletes its oldest key, untimed. keep says
// whether the latency is a sample (preload PUTs are not).
func (c *client) put(ctx context.Context, st *opStats, keep bool) {
	key := fmt.Sprintf("c%d-k%06d", c.id, c.made)
	c.made++
	fill(c.sendBuf, c.seed, key)
	var t reqTrace
	var hooks *httptrace.ClientTrace
	if c.spans != nil {
		hooks = t.hooks()
	}
	start := c.begin(st)
	resp, cancel, ok := c.do(ctx, st, http.MethodPut, key, c.sendBuf, hooks)
	if !ok {
		c.lastDone = time.Now()
		return
	}
	_, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	cancel()
	end := time.Now()
	if err != nil {
		st.fail(transportKind(err))
		c.lastDone = time.Now()
		return
	}
	c.live = append(c.live, key)
	st.ok++
	st.bytes += int64(c.size)
	if keep {
		st.put = append(st.put, end.Sub(start))
	}
	if hooks != nil {
		c.record(st, "PUT", &t, start, end)
	}
	if len(c.live) > c.maxLive {
		c.delete(ctx, st, 0)
	}
	c.lastDone = time.Now()
}

// delete drops live key i. The key leaves the client's set whatever the
// gateway answers: a failed DELETE is counted, and its object is never read
// again.
func (c *client) delete(ctx context.Context, st *opStats, i int) {
	key := c.live[i]
	c.live = append(c.live[:i], c.live[i+1:]...)
	if resp, cancel, ok := c.do(ctx, st, http.MethodDelete, key, nil, nil); ok {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		cancel()
	}
}

// get reads a key back and compares every byte with what was stored as the
// body streams in.
func (c *client) get(ctx context.Context, st *opStats, key string) {
	fill(c.wantBuf, c.seed, key)
	var t reqTrace
	var hooks *httptrace.ClientTrace
	if c.spans != nil {
		hooks = t.hooks()
	}
	start := c.begin(st)
	resp, cancel, ok := c.do(ctx, st, http.MethodGet, key, nil, hooks)
	if !ok {
		c.lastDone = time.Now()
		return
	}
	var firstByte time.Time
	off, same := 0, true
	var err error
	for {
		var n int
		n, err = resp.Body.Read(c.chunk)
		if n > 0 {
			if firstByte.IsZero() {
				firstByte = time.Now()
			}
			if off+n > c.size || !bytes.Equal(c.chunk[:n], c.wantBuf[off:off+n]) {
				same = false
			}
			off += n
		}
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	cancel()
	end := time.Now()
	c.lastDone = end
	switch {
	case err != io.EOF:
		st.fail(transportKind(err))
		return
	case !same || off != c.size:
		st.mismatches++
		st.fail("mismatch")
		return
	}
	st.ok++
	st.bytes += int64(c.size)
	if c.lostShard(key) {
		st.reconstructs++
	}
	st.get = append(st.get, end.Sub(start))
	st.ttfb = append(st.ttfb, firstByte.Sub(start))
	if hooks != nil {
		c.record(st, "GET", &t, start, end)
	}
}

// begin stamps a request's start and books the time since the previous
// response as the client's own (payload generation): a closed loop should
// sit idle for none of the window.
func (c *client) begin(st *opStats) time.Time {
	now := time.Now()
	if !c.lastDone.IsZero() {
		g := now.Sub(c.lastDone)
		st.gap += g
		if g > st.maxGap {
			st.maxGap = g
		}
	}
	return now
}

// nextIsPut deals op kinds from a shuffled deck of eight PUTs and eight GETs:
// the mix is exactly half and half over every sixteen ops, yet two clients
// cannot fall into lockstep. Strict alternation would let them settle into
// "both PUT, then both GET" on one run and the opposite phase on the next,
// and a run's numbers would depend on the phase.
func (c *client) nextIsPut() bool {
	if len(c.deck) == 0 {
		c.deck = make([]bool, 16)
		for i := range c.deck {
			c.deck[i] = i%2 == 0
		}
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
	}
	put := c.deck[0]
	c.deck = c.deck[1:]
	return put
}

// loop runs the workload's mix until the deadline; the request in flight at
// the deadline completes and counts, so a phase never holds a partial op.
func (c *client) loop(ctx context.Context, puts bool, d time.Duration, traced *spanLog) *opStats {
	st := &opStats{}
	c.spans = traced
	c.lastDone = time.Time{}
	start := time.Now()
	for ctx.Err() == nil && time.Since(start) < d {
		if (puts && c.nextIsPut()) || len(c.live) == 0 { // with nothing to read (every preload PUT refused), write
			c.put(ctx, st, true)
		} else {
			c.get(ctx, st, c.live[c.rng.Intn(len(c.live))])
		}
	}
	st.elapsed = c.lastDone.Sub(start)
	c.spans = nil
	return st
}

// preload stores n keys, untimed.
func (c *client) preload(ctx context.Context, n int) *opStats {
	st := &opStats{}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		c.put(ctx, st, false)
	}
	return st
}

// phase is all clients' results for one stretch of the run, with the
// process-wide counters read while every client was idle on either side.
type phase struct {
	opStats
	perClient []*opStats
	before    procSnap
	after     procSnap
}

// opsPerSec adds up each client's own rate, so the stretch in which the
// faster client has stopped and the slower still finishes its last request
// is not counted against either.
func (p *phase) opsPerSec() float64 {
	var r float64
	for _, c := range p.perClient {
		r += ratio(float64(c.ok), c.elapsed.Seconds())
	}
	return r
}

// runPhase runs fn on every client at once and waits for all of them.
func runPhase(c *cluster, clients []*client, fn func(*client) *opStats) *phase {
	p := &phase{before: takeProcSnap(c), perClient: make([]*opStats, len(clients))}
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			p.perClient[i] = fn(cl)
		}(i, cl)
	}
	wg.Wait()
	p.after = takeProcSnap(c)
	for _, st := range p.perClient {
		p.merge(st)
	}
	return p
}
