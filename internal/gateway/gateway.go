// Package gateway is the cluster's client surface: an S3-flavored HTTP
// front end over a dstore client. Objects are stored and retrieved with
// the erasure-coded streaming paths — PUT feeds the request body through
// the push-mode put feed under the daemons' credit windows, GET serves
// ranged reads off the streaming decode frontier through a bounded pipe —
// so gateway memory stays O(BlockSize × n) per request however large the
// object.
//
// The client lives on a single-goroutine event loop (an rt.Loop on real
// nodes, a pumped simulator in tests); requests cross onto it through the
// same dstore.Bridge the node's own Put/Get facade uses, and the loop is
// never blocked: bodies are read and responses written on the handler
// goroutine, with the loop touched only in posted closures.
//
// Each request is one store operation. The object's size, block size and
// SHA-256 (its ETag) are recorded beside every shard and ride on the first
// chunk of every get stream, so the gateway keeps no records of its own;
// only the requests that must know the size before they read — HEAD, a
// ranged GET, a conditional DELETE — first run the store's metadata probe.
//
// Routes:
//
//	PUT    /o/{key}   store an object (Content-Length required)
//	GET    /o/{key}   retrieve, honoring Range and If-Match
//	HEAD   /o/{key}   metadata only (the probe)
//	DELETE /o/{key}   drop the object cluster-wide (If-Match: probe first)
//	GET    /o/        list objects (?start= continuation, ?max= page size)
//
// Keys starting with '.' are a reserved namespace: refused, and never listed.
package gateway

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rain/internal/dstore"
	"rain/internal/storage"
	"rain/internal/telemetry"
)

// StatusClientClosed is reported when the requesting client vanished
// mid-transfer (nginx's 499, the conventional code for it).
const StatusClientClosed = 499

// drainChunk bounds one response write from the GET pipe, so the decode
// is resumed as soon as a write's worth of the ring is free.
const drainChunk = 64 << 10

// Config parameterises a Gateway.
type Config struct {
	// MaxInflightBytes bounds the summed buffer footprint of in-flight
	// requests; admission past it answers 429 + Retry-After. Default 64 MiB.
	MaxInflightBytes int64
	// PipeBuffer is the per-GET decode pipe size (default 1 MiB): how far
	// the decode frontier may run ahead of a slow reader before the
	// operation pauses on its credit windows.
	PipeBuffer int
	// MaxList caps one listing page (default 1000).
	MaxList int
	// Telemetry and Tracer default to the process-wide instances.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
}

// routeMetrics is one route family's counters.
type routeMetrics struct {
	requests *telemetry.Counter
	errors   *telemetry.Counter
	bytes    *telemetry.Counter
	latency  *telemetry.Histogram
}

// Gateway is an http.Handler serving the object API over one node's dstore
// client. call must run its closure on the client's owning loop goroutine
// and report whether it ran (false once the loop is stopped). Whole-object
// operations cross onto the loop through the shared dstore.Bridge; only the
// ranged GET, whose pipe needs Handle.Resume, posts to the loop itself.
type Gateway struct {
	call   func(func()) bool
	client *dstore.Client
	bridge *dstore.Bridge
	cfg    Config
	tracer *telemetry.Tracer

	inflight atomic.Int64

	// rings recycles GET pipe rings (*[]byte of PipeBuffer plus one block).
	rings sync.Pool

	mu    sync.Mutex
	locks map[string]*keyLock

	met struct {
		put, get, head, delete, list routeMetrics
		rejected                     *telemetry.Counter
		inflight                     *telemetry.Gauge
	}
}

// keyLock serializes PUTs to one key so concurrent writers commit whole
// objects in some order instead of interleaving shard overwrites.
type keyLock struct {
	ch   chan struct{}
	refs int
}

// New builds a gateway over a loop-owned client.
func New(call func(func()) bool, client *dstore.Client, cfg Config) *Gateway {
	if cfg.MaxInflightBytes == 0 {
		cfg.MaxInflightBytes = 64 << 20
	}
	if cfg.PipeBuffer == 0 {
		cfg.PipeBuffer = 1 << 20
	}
	if cfg.MaxList == 0 {
		cfg.MaxList = 1000
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.Default()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.DefaultTracer()
	}
	g := &Gateway{call: call, client: client, bridge: dstore.NewBridge(call, client),
		cfg: cfg, tracer: cfg.Tracer, locks: make(map[string]*keyLock)}
	ringSize := cfg.PipeBuffer + client.BlockSize()
	g.rings.New = func() any {
		ring := make([]byte, ringSize)
		return &ring
	}
	scope := cfg.Telemetry.Label("component", "gateway")
	mk := func(route string) routeMetrics {
		return routeMetrics{
			requests: scope.Counter("gateway."+route+".requests", route+" requests served"),
			errors:   scope.Counter("gateway."+route+".errors", route+" requests that failed"),
			bytes:    scope.Counter("gateway."+route+".bytes", "object bytes moved by "+route),
			latency:  scope.Histogram("gateway."+route+".latency_us", route+" request latency in microseconds"),
		}
	}
	g.met.put, g.met.get, g.met.head = mk("put"), mk("get"), mk("head")
	g.met.delete, g.met.list = mk("delete"), mk("list")
	g.met.rejected = scope.Counter("gateway.admission.rejected", "requests shed by the in-flight byte cap")
	g.met.inflight = scope.Gauge("gateway.admission.inflight_bytes", "reserved in-flight request buffer bytes")
	return g
}

// reserve admits cost bytes of request buffer, or refuses.
func (g *Gateway) reserve(cost int64) bool {
	for {
		cur := g.inflight.Load()
		if cur+cost > g.cfg.MaxInflightBytes {
			g.met.rejected.Inc()
			return false
		}
		if g.inflight.CompareAndSwap(cur, cur+cost) {
			g.met.inflight.Set(cur + cost)
			return true
		}
	}
}

func (g *Gateway) release(cost int64) {
	g.met.inflight.Set(g.inflight.Add(-cost))
}

// lockKey serializes writers to one key; the returned func unlocks.
func (g *Gateway) lockKey(key string) func() {
	g.mu.Lock()
	l := g.locks[key]
	if l == nil {
		l = &keyLock{ch: make(chan struct{}, 1)}
		g.locks[key] = l
	}
	l.refs++
	g.mu.Unlock()
	l.ch <- struct{}{}
	return func() {
		<-l.ch
		g.mu.Lock()
		l.refs--
		if l.refs == 0 {
			delete(g.locks, key)
		}
		g.mu.Unlock()
	}
}

// statusOf maps the dstore error taxonomy to HTTP in one place.
func statusOf(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, dstore.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, dstore.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, dstore.ErrCanceled), errors.Is(err, context.Canceled):
		return StatusClientClosed
	case errors.Is(err, dstore.ErrCorrupt):
		// Verified corruption made the object unreadable: the store, not
		// the request, is at fault — 502, and the body names the object.
		return http.StatusBadGateway
	case errors.Is(err, dstore.ErrQuorum):
		return http.StatusServiceUnavailable
	case errors.Is(err, dstore.ErrShortSource), errors.Is(err, dstore.ErrLongSource):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func (g *Gateway) httpError(w http.ResponseWriter, err error) {
	code := statusOf(err)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, err.Error(), code)
}

// ServeHTTP routes /o/... requests; anything else is 404.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key, ok := strings.CutPrefix(r.URL.Path, "/o/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	if key == "" {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		g.observe(g.met.list, g.serveList(w, r))
		return
	}
	if strings.HasPrefix(key, ".") {
		http.Error(w, "keys must not start with '.' (reserved)", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodPut:
		g.observe(g.met.put, g.servePut(w, r, key))
	case http.MethodGet:
		g.observe(g.met.get, g.serveGet(w, r, key, true))
	case http.MethodHead:
		g.observe(g.met.head, g.serveGet(w, r, key, false))
	case http.MethodDelete:
		g.observe(g.met.delete, g.serveDelete(w, r, key))
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// observe records one finished request on its route family.
func (g *Gateway) observe(m routeMetrics, res result) {
	m.requests.Inc()
	m.bytes.Add(res.bytes)
	m.latency.Observe(int64(res.took / time.Microsecond))
	if res.err != nil {
		m.errors.Inc()
	}
}

// result is what each route handler reports for telemetry.
type result struct {
	bytes int64
	took  time.Duration
	err   error
}

// errStopped is returned when the node's loop has shut down under a request.
var errStopped = fmt.Errorf("gateway: node stopped: %w", dstore.ErrCanceled)

// errPrecondition reports a failed If-Match.
var errPrecondition = errors.New("precondition failed")

// etag is the strong entity tag of the object version with digest d.
func etag(d storage.Digest) string { return `"` + hex.EncodeToString(d[:]) + `"` }

// ifMatch reports whether r's If-Match precondition, if any, holds for the
// object version m.
func ifMatch(r *http.Request, m dstore.ObjectMeta) bool {
	im := r.Header.Get("If-Match")
	return im == "" || im == "*" || matchETag(im, etag(m.Digest))
}

// preconditionFailed answers 412.
func preconditionFailed(w http.ResponseWriter, start time.Time) result {
	http.Error(w, errPrecondition.Error(), http.StatusPreconditionFailed)
	return result{took: time.Since(start), err: errPrecondition}
}

// ---- PUT ----

func (g *Gateway) servePut(w http.ResponseWriter, r *http.Request, key string) result {
	start := time.Now()
	if r.ContentLength < 0 {
		http.Error(w, "Content-Length required", http.StatusLengthRequired)
		return result{took: time.Since(start), err: errors.New("length required")}
	}
	size := r.ContentLength
	// The streaming put's real memory footprint: one block fanned into n
	// shard queues under the credit windows, whatever the object size.
	cost := int64(g.client.BlockSize()) * int64(g.client.Code().N())
	if size < cost {
		cost = size + 1
	}
	if !g.reserve(cost) {
		g.httpError(w, fmt.Errorf("%w: gateway at its in-flight byte cap", dstore.ErrOverloaded))
		return result{took: time.Since(start), err: dstore.ErrOverloaded}
	}
	defer g.release(cost)
	unlock := g.lockKey(key)
	defer unlock()

	// The bridge reads and hashes the body on this goroutine and hands the
	// digest to the feed, which records it beside every shard.
	tr := g.trace("http.put", key)
	digest, err := g.bridge.PutStream(r.Context(), key, bodyReader{r.Body}, size)
	g.finishTrace(tr, err)
	if err != nil {
		g.httpError(w, err)
		return result{took: time.Since(start), err: err}
	}
	w.Header().Set("ETag", etag(digest))
	w.WriteHeader(http.StatusOK)
	return result{bytes: size, took: time.Since(start)}
}

// bodyReader marks a failed request-body read as the client's doing (499),
// not the store's.
type bodyReader struct{ r io.Reader }

func (b bodyReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err != nil && err != io.EOF {
		err = fmt.Errorf("%w: reading request body: %v", dstore.ErrCanceled, err)
	}
	return n, err
}

// ---- GET / HEAD ----

// serveGet answers GET and HEAD. A plain GET is one retrieve, whose headers
// come from the version k holders' first chunks agree on. HEAD and a ranged GET must
// know the size before they answer or aim the range, so they probe first
// and then read the range pinned to the probed version.
func (g *Gateway) serveGet(w http.ResponseWriter, r *http.Request, key string, body bool) result {
	start := time.Now()
	rng := r.Header.Get("Range")
	if body && rng == "" {
		return g.streamGet(w, r, key, nil, 0, -1, http.StatusOK, start)
	}
	meta, err := g.bridge.Head(r.Context(), key)
	if err != nil {
		g.httpError(w, err)
		return result{took: time.Since(start), err: err}
	}
	if !ifMatch(r, meta) {
		return preconditionFailed(w, start)
	}
	size := meta.DataLen
	off, length := int64(0), int64(-1)
	status := http.StatusOK
	if rng != "" {
		var ok bool
		off, length, ok = parseRange(rng, size)
		if !ok {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", size))
			http.Error(w, "range not satisfiable", http.StatusRequestedRangeNotSatisfiable)
			return result{took: time.Since(start), err: errors.New("range not satisfiable")}
		}
		if off != 0 || length != size {
			status = http.StatusPartialContent
		} else {
			length = -1 // the whole object: serve it as a plain 200
		}
	}
	want := length
	if want < 0 {
		want = size - off
	}
	setHeaders(w.Header(), meta, want)
	if status == http.StatusPartialContent {
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+want-1, size))
	}
	if !body || want == 0 {
		w.WriteHeader(status)
		return result{took: time.Since(start)}
	}
	return g.streamGet(w, r, key, &meta, off, length, status, start)
}

// setHeaders describes the object version m, of which want bytes follow.
func setHeaders(h http.Header, m dstore.ObjectMeta, want int64) {
	h.Set("Accept-Ranges", "bytes")
	h.Set("ETag", etag(m.Digest))
	h.Set("Content-Length", strconv.FormatInt(want, 10))
}

// streamGet runs the retrieve on the loop, draining the decode pipe to the
// response writer on the handler goroutine. With meta nil (a plain GET) the
// headers and the If-Match check come from the version the retrieve
// reports before its first byte; otherwise the caller has set them and the
// retrieve is pinned to meta's version. The status line is written once the
// first bytes (or the operation's outcome) arrive, so a retrieve that fails
// outright still reports its real status.
func (g *Gateway) streamGet(w http.ResponseWriter, r *http.Request, key string,
	meta *dstore.ObjectMeta, off, length int64, status int, start time.Time) result {

	if !g.reserve(int64(g.cfg.PipeBuffer)) {
		g.httpError(w, fmt.Errorf("%w: gateway at its in-flight byte cap", dstore.ErrOverloaded))
		return result{took: time.Since(start), err: dstore.ErrOverloaded}
	}
	defer g.release(int64(g.cfg.PipeBuffer))
	ctx := r.Context()
	pipe := newGetPipe(&g.rings, g.cfg.PipeBuffer)
	defer pipe.release()
	opts := dstore.GetOptions{Off: off, Length: length, Ready: pipe.ready, Meta: meta, OnMeta: pipe.setMeta}
	tr := g.trace("http.get", key)
	var h *dstore.Handle
	if !g.call(func() {
		h = g.client.GetRangeAsync(key, pipe, opts, func(n int64, err error) {
			pipe.closeWrite(err)
		})
	}) {
		return result{took: time.Since(start), err: errStopped}
	}
	cancel := func() {
		pipe.kill()
		g.call(func() { h.Cancel() })
	}
	// A vanished client must cancel the retrieve even while the decode is
	// paused on backpressure (nothing else would wake it).
	watch := make(chan struct{})
	defer close(watch)
	go func() {
		select {
		case <-ctx.Done():
			cancel()
		case <-watch:
		}
	}()

	if m, ok := pipe.waitMeta(); ok && meta == nil {
		if !ifMatch(r, m) {
			cancel()
			g.finishTrace(tr, errPrecondition)
			return preconditionFailed(w, start)
		}
		setHeaders(w.Header(), m, m.DataLen)
	}
	var written int64
	headerSent := false
	for {
		run, rerr := pipe.next(drainChunk)
		if len(run) > 0 {
			if !headerSent {
				w.WriteHeader(status)
				headerSent = true
			}
			if _, werr := w.Write(run); werr != nil {
				cancel()
				g.finishTrace(tr, werr)
				err := fmt.Errorf("%w: client went away: %v", dstore.ErrCanceled, werr)
				return result{bytes: written, took: time.Since(start), err: err}
			}
			written += int64(len(run))
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			if pipe.consume(len(run)) {
				g.call(func() { h.Resume() })
			}
		}
		if rerr != nil {
			err := pipe.err()
			g.finishTrace(tr, err)
			if err != nil {
				if !headerSent {
					w.Header().Del("ETag")
					g.httpError(w, err)
				}
			} else if !headerSent {
				w.WriteHeader(status)
			}
			return result{bytes: written, took: time.Since(start), err: err}
		}
	}
}

// ---- DELETE ----

func (g *Gateway) serveDelete(w http.ResponseWriter, r *http.Request, key string) result {
	start := time.Now()
	ctx := r.Context()
	if im := r.Header.Get("If-Match"); im != "" && im != "*" {
		meta, err := g.bridge.Head(ctx, key)
		if err != nil && !errors.Is(err, dstore.ErrNotFound) {
			g.httpError(w, err)
			return result{took: time.Since(start), err: err}
		}
		if err != nil || !ifMatch(r, meta) {
			return preconditionFailed(w, start)
		}
	}
	tr := g.trace("http.delete", key)
	unlock := g.lockKey(key)
	err := g.bridge.Delete(ctx, key)
	unlock()
	g.finishTrace(tr, err)
	if err != nil && !errors.Is(err, dstore.ErrNotFound) {
		g.httpError(w, err)
		return result{took: time.Since(start), err: err}
	}
	w.WriteHeader(http.StatusNoContent)
	return result{took: time.Since(start)}
}

// ---- LIST ----

type listEntry struct {
	Key    string `json:"key"`
	Size   int64  `json:"size"`
	Shards int    `json:"shards"`
}

type listPage struct {
	Objects   []listEntry `json:"objects"`
	Truncated bool        `json:"truncated,omitempty"`
	Next      string      `json:"next,omitempty"`
}

func (g *Gateway) serveList(w http.ResponseWriter, r *http.Request) result {
	start := time.Now()
	objs, err := g.bridge.List(r.Context())
	if err != nil {
		g.httpError(w, err)
		return result{took: time.Since(start), err: err}
	}

	max := g.cfg.MaxList
	if s := r.URL.Query().Get("max"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 && v < max {
			max = v
		}
	}
	after := r.URL.Query().Get("start")
	page := listPage{Objects: []listEntry{}}
	for _, o := range objs {
		if strings.HasPrefix(o.ID, ".") || (after != "" && o.ID <= after) {
			continue // reserved namespace, or before the continuation token
		}
		if len(page.Objects) == max {
			page.Truncated = true
			page.Next = page.Objects[max-1].Key
			break
		}
		page.Objects = append(page.Objects, listEntry{Key: o.ID, Size: o.DataLen, Shards: o.Shards})
	}
	w.Header().Set("Content-Type", "application/json")
	body, _ := json.Marshal(page)
	w.Write(body)
	return result{bytes: int64(len(body)), took: time.Since(start)}
}

// ---- helpers ----

// trace opens a request span (nil-tolerant, mirroring the client).
func (g *Gateway) trace(op, key string) *telemetry.Trace {
	return g.tracer.Start(op, g.client.Node(), key, time.Now().UnixNano())
}

func (g *Gateway) finishTrace(tr *telemetry.Trace, err error) {
	tr.Finish(time.Now().UnixNano(), err)
}

// matchETag does the strong comparison against a comma-separated If-Match
// list.
func matchETag(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		if strings.TrimSpace(part) == etag {
			return true
		}
	}
	return false
}

// parseRange interprets a single-range bytes= header against a known size.
// ok=false means unsatisfiable; malformed or multi-range headers are
// reported as the whole object (per RFC 9110 a server may ignore them).
func parseRange(header string, size int64) (off, length int64, ok bool) {
	spec, found := strings.CutPrefix(header, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, size, true
	}
	lo, hi, found := strings.Cut(spec, "-")
	if !found {
		return 0, size, true
	}
	lo, hi = strings.TrimSpace(lo), strings.TrimSpace(hi)
	if lo == "" {
		// Suffix range: the final n bytes.
		n, err := strconv.ParseInt(hi, 10, 64)
		if err != nil || n <= 0 {
			return 0, 0, false
		}
		if n > size {
			n = size
		}
		return size - n, n, true
	}
	start, err := strconv.ParseInt(lo, 10, 64)
	if err != nil || start < 0 {
		return 0, size, true
	}
	if start >= size {
		return 0, 0, size == 0 && start == 0
	}
	if hi == "" {
		return start, size - start, true
	}
	end, err := strconv.ParseInt(hi, 10, 64)
	if err != nil || end < start {
		return 0, 0, false
	}
	if end >= size {
		end = size - 1
	}
	return start, end - start + 1, true
}
