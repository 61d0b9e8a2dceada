// Command benchmark measures the stack people deploy: six rain.Nodes over
// real loopback UDP sockets with file backends, HTTP gateways on real TCP
// listeners, all in one OS process so Go allocation, CPU time and one
// telemetry registry cover the whole stack while every datagram still
// crosses the kernel. It drives the gateways in closed loops, checks every
// byte, and prints every metric by name and unit.
//
//	go run ./benchmark -workload small_mixed -seed 1 -seconds 20 -trace 0
//	go run ./benchmark compare A.json B.json
//
// All times are wall clock over host loopback with the page cache warm and
// no fsync (the product's present flush policy). See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one end-to-end metric with the bound by which it may get
// worse, as a share of the baseline's median, before a change is a
// regression. BENCHMARK.json repeats this table; the smoke test keeps the
// two in step.
type metricDef struct {
	name, unit string
	lower      bool // lower is better
	bound      float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", true, 0.25},
	{"ops_per_s", "1/s", false, 0.25},
	{"alloc_per_byte", "B/B", true, 0.25},
	{"disk_bytes_per_byte", "B/B", true, 0.02},
}

// dataDir holds the storage directories and span files, relative to the
// working directory: the benchmark writes nowhere outside its checkout.
const dataDir = ".bench_data"

// params is one run. The CLI fills the measured length and leaves the rest
// at the defaults; only the smoke test shortens them.
type params struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	root    string // existing directory for storage dirs and the span file
	spans   string // span file of a traced run ("" = root/spans-<workload>.json)

	setups int           // cluster starts per run; setup_s is their median
	warmup time.Duration // unmeasured traffic before the window
	idle   time.Duration // quiet stretch that measures control-plane traffic
	rung   time.Duration // budget of each ladder rung
}

func defaults(p params) params {
	p.setups, p.warmup, p.idle, p.rung = 5, 2*time.Second, 2*time.Second, 300*time.Millisecond
	return p
}

// report is one run's result: the contract line is cut from it, and -out
// files hold a list of them for compare.
type report struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	EndToEnd  metrics `json:"end_to_end"`
	Layers    metrics `json:"per_layer,omitempty"`
	// The registry and process counters of the untraced window: the same
	// (C) figures a traced run reports, kept with every run because a view
	// change or a burst of hedges is what explains an outlier.
	Counters metrics        `json:"window_counters"`
	Samples  map[string]int `json:"samples"`
	Failures map[string]int `json:"failures,omitempty"`
	// Refusals that named a Retry-After, were waited out and succeeded on a
	// later attempt: not failed ops, but each is a second of lost time.
	Retried int     `json:"retried"`
	MBps    float64 `json:"payload_MB_per_s"`
	// The share of the window a closed-loop client spent on its own work
	// between a response and its next request, and the longest such pause.
	ClientGapShare float64 `json:"client_gap_share"`
	ClientGapMaxMs float64 `json:"client_gap_max_ms"`
	SpanFile       string  `json:"span_file,omitempty"`
	// The netbuf.frames.live gauge before the traced window, the value
	// netbuf.live_end has to return to.
	NetbufLiveStart float64 `json:"netbuf_live_start,omitempty"`
}

func runWorkload(ctx context.Context, p params) (*report, error) {
	w := p.w

	// Set-up, several times over: the last cluster is the one measured.
	var c *cluster
	var setups []float64
	for i := 0; i < p.setups; i++ {
		if c != nil {
			c.close()
		}
		start := time.Now()
		var err error
		if c, err = startCluster(ctx, p.root, p.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { c.close() }()

	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = newClient(i, w, p.seed, c.urls[i%gateways])
	}
	rep := &report{Workload: w.name, Seed: p.seed, Seconds: p.seconds, Traced: p.trace,
		EndToEnd: metrics{}, Samples: map[string]int{}}
	var phases []*phase
	run := func(fn func(*client) *opStats) *phase {
		ph := runPhase(c, clients, fn)
		phases = append(phases, ph)
		return ph
	}
	loop := func(d time.Duration, spans *spanLog) *phase {
		return run(func(cl *client) *opStats { return cl.loop(ctx, w.puts, d, spans) })
	}

	run(func(cl *client) *opStats { return cl.preload(ctx, w.keys) })
	// Storage amplification is read here, with every client idle and
	// nothing deleted yet: a DELETE that races a false death vote leaves an
	// orphan shard behind, and the ratio is a property of the object size,
	// not of the window.
	disk, err := c.diskBytes()
	if err != nil {
		return nil, err
	}
	liveBytes := 0
	for _, cl := range clients {
		liveBytes += len(cl.live) * w.size
	}
	window := time.Duration(p.seconds * float64(time.Second))

	var spans *spanLog
	lad := &ladder{m: metrics{}, budget: p.rung, root: p.root, seed: p.seed, size: w.size}
	if p.trace {
		spans = newSpanLog()
		lad.spans = spans
		if err := lad.putRungs(ctx, c); err != nil {
			return nil, err
		}
	}
	if w.degrade {
		last := len(ring) - 1
		if err := c.stopNode(ctx, last); err != nil {
			return nil, err
		}
		for _, cl := range clients {
			cl.stopped = ring[last]
		}
	}

	loop(p.warmup, nil)
	if p.trace {
		window /= 2 // half untraced for the end-to-end figures, half traced
	}
	views0, leaders0 := c.control()
	plain := loop(window, nil)
	var traced *phase
	if p.trace {
		traced = loop(window, spans)
	}
	views1, leaders1 := c.control()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	e := rep.EndToEnd
	e.set("setup_s", "s", median(setups))
	e.set("ops_per_s", "1/s", plain.opsPerSec())
	e.set("alloc_per_byte", "B/B", ratio(float64(plain.after.totalAlloc-plain.before.totalAlloc), float64(plain.bytes)))
	e.set("disk_bytes_per_byte", "B/B", ratio(float64(disk), float64(liveBytes)))
	rep.Samples["put"], rep.Samples["get"], rep.Samples["setup"] = len(plain.put), len(plain.get), len(setups)
	rep.Counters = metrics{}
	counterLayers(rep.Counters, plain, views0, leaders0, views1, leaders1)
	rep.Counters.set("put_p50_ms", "ms", ms(median(plain.put)))
	rep.Counters.set("get_p50_ms", "ms", ms(median(plain.get)))
	rep.Counters.set("put_max_ms", "ms", ms(maxOf(plain.put)))
	rep.Counters.set("get_max_ms", "ms", ms(maxOf(plain.get)))
	rep.MBps = plain.opsPerSec() * float64(w.size) / 1e6
	for _, st := range plain.perClient {
		rep.ClientGapShare += ratio(st.gap.Seconds(), st.elapsed.Seconds()) / float64(len(plain.perClient))
	}
	rep.ClientGapMaxMs = ms(plain.maxGap)

	if !p.trace {
		rep.tally(phases)
		return rep, nil
	}

	// The traced half, the quiet stretch, and the ladder.
	m := lad.m
	counterLayers(m, traced, views0, leaders0, views1, leaders1)
	spanLayers(m, traced)
	rep.NetbufLiveStart = traced.before.val["netbuf.frames.live"]
	m.set("trace.overhead_share", "ratio", 1-ratio(traced.opsPerSec(), plain.opsPerSec()))
	rep.Samples["traced_put"], rep.Samples["traced_get"] = len(traced.put), len(traced.get)

	quiet0 := takeProcSnap(c)
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(p.idle):
	}
	quiet := delta{quiet0, takeProcSnap(c)}
	m.set("ctl.datagrams_per_s", "1/s", ratio(quiet.count("rudp.conn.sent"), quiet.b.at.Sub(quiet.a.at).Seconds()))

	if err := lad.getRungs(ctx, c, clients[0]); err != nil {
		return nil, err
	}
	c.close()
	if err := lad.offlineRungs(); err != nil {
		return nil, err
	}
	rep.Layers = m
	rep.SpanFile = p.spans
	if rep.SpanFile == "" {
		rep.SpanFile = filepath.Join(p.root, "spans-"+w.name+".json")
	}
	if err := spans.write(rep.SpanFile); err != nil {
		return nil, err
	}
	rep.tally(append(phases, &phase{opStats: lad.ops}))
	return rep, nil
}

// tally counts every request of the run, in any phase: one that was refused
// or timed out is a failed op, one that read back the wrong bytes also makes
// the run incorrect.
func (r *report) tally(phases []*phase) {
	r.Correct = true
	for _, ph := range phases {
		r.Attempted += ph.attempted
		r.Failed += ph.failed
		r.Retried += ph.retried
		if ph.mismatches > 0 {
			r.Correct = false
		}
		for k, v := range ph.status {
			if r.Failures == nil {
				r.Failures = map[string]int{}
			}
			r.Failures[k] += v
		}
	}
}

// header records what makes two runs comparable.
func header(root string) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+modified"
			}
		}
	}
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Fields(string(b))[0]
	}
	return map[string]any{
		"commit": commit, "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "loadavg_1m_at_start": load,
		"data_dir_fs": fsType(root), "clock": "wall", "link": "host loopback (UDP + TCP)",
		"flush_policy": "none (page cache, no fsync)", "cluster": "6 nodes, rs(6,4), one process",
		"started": time.Now().UTC().Format(time.RFC3339),
	}
}

func printMetrics(title string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %s\n", title)
	for _, n := range names {
		fmt.Printf("    %-30s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func printReport(r *report) {
	fmt.Printf("workload %s seed %d: %.0f s measured, traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	printMetrics("end to end (untraced window)", r.EndToEnd)
	fmt.Printf("    payload %.2f MB/s; samples %v; client idle share %.4f (max %.2f ms)\n",
		r.MBps, r.Samples, r.ClientGapShare, r.ClientGapMaxMs)
	if r.Failed > 0 || r.Retried > 0 {
		fmt.Printf("    FAILED %d of %d ops: %v; %d refusals waited out and retried\n", r.Failed, r.Attempted, r.Failures, r.Retried)
	}
	if r.Layers != nil {
		printMetrics("per layer (traced window, ladder, quiet stretch)", r.Layers)
		fmt.Printf("    netbuf frames live before the traced window: %.0f; spans written to %s\n", r.NetbufLiveStart, r.SpanFile)
	}
}

// contractLine is the driver's result object: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func contractLine(r *report) string {
	m := r.EndToEnd
	if r.Traced {
		m = r.Layers
	}
	b, _ := json.Marshal(map[string]any{ // maps of plain numbers and strings cannot fail to encode
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": m})
	return string(b)
}

// runSet is what an -out file holds.
type runSet struct {
	Header map[string]any `json:"header"`
	Runs   []*report      `json:"runs"`
}

// appendRun adds a report to the set in path, creating it on first use, so
// ten invocations with ten seeds and one -out make one comparable set.
func appendRun(path string, hdr map[string]any, r *report) error {
	set := runSet{Header: hdr}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &set); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	set.Runs = append(set.Runs, r)
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed for keys and payloads; the same seed gives the same requests")
	seconds := flag.Float64("seconds", 20, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1: record spans, run the layer ladder, report per-layer metrics")
	spans := flag.String("spans", "", "span file of a traced run (default <data>/spans-<workload>.json)")
	out := flag.String("out", "", "append the full report to this JSON file, the input of compare")
	nclients := flag.Int("clients", 0, "override the workload's client count (investigation only)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] | compare A.json B.json")
		os.Exit(2)
	}
	todo := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(2)
		}
		todo = []workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hdr := header(dataDir)
	hb, _ := json.Marshal(hdr) // a map of strings and ints
	fmt.Printf("rain benchmark %s\n", hb)
	code := 0
	for _, w := range todo {
		if *nclients > 0 {
			w.clients = *nclients
		}
		rep, err := runWorkload(ctx, defaults(params{w: w, seed: *seed, seconds: *seconds,
			trace: *trace == 1, root: dataDir, spans: *spans}))
		if err != nil {
			// The cluster is already torn down; a failed workload does not
			// stop the others, but the run as a whole has failed.
			fmt.Fprintf(os.Stderr, "workload %s: %v\n", w.name, err)
			code = 1
			if ctx.Err() != nil {
				break
			}
			continue
		}
		printReport(rep)
		if *out != "" {
			if err := appendRun(*out, hdr, rep); err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
			}
		}
		fmt.Println(contractLine(rep))
	}
	os.Exit(code)
}
