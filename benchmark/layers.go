package main

import (
	"runtime"
	"strings"
	"time"

	"rain/internal/telemetry"
)

// procSnap is everything the benchmark reads from outside the program at a
// phase boundary: Go runtime counters, process CPU time, and the telemetry
// registry the benchmark itself handed to the nodes (plus the process-global
// netbuf pools, which register in telemetry.Default()).
type procSnap struct {
	at         time.Time
	totalAlloc uint64
	numGC      uint32
	heapHeld   uint64 // heap memory obtained from and not yet returned to the OS
	cpu        time.Duration
	goroutines int
	val        map[string]float64 // counters and gauges, summed over series
	histCount  map[string]float64
	histSum    map[string]float64
}

func takeProcSnap(c *cluster) procSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := procSnap{
		at: time.Now(), totalAlloc: m.TotalAlloc, numGC: m.NumGC, heapHeld: m.HeapSys - m.HeapReleased,
		cpu: cpuTime(), goroutines: runtime.NumGoroutine(),
		val: make(map[string]float64), histCount: make(map[string]float64), histSum: make(map[string]float64),
	}
	s.absorb(c.reg.Snapshot(), "")
	s.absorb(telemetry.Default().Snapshot(), "netbuf.")
	return s
}

// absorb sums each family over its series (nodes a..f, the two gateways).
func (s *procSnap) absorb(snap telemetry.Snapshot, prefix string) {
	for _, f := range snap.Families {
		if !strings.HasPrefix(f.Name, prefix) {
			continue
		}
		for _, ser := range f.Series {
			switch {
			case ser.Histogram != nil:
				s.histCount[f.Name] += float64(ser.Histogram.Count)
				s.histSum[f.Name] += float64(ser.Histogram.Sum)
			case f.Kind == "gauge":
				s.val[f.Name] += float64(ser.Gauge)
			default:
				s.val[f.Name] += float64(ser.Counter)
			}
		}
	}
}

// delta is the registry's movement across one phase.
type delta struct{ a, b procSnap }

func (d delta) count(name string) float64 { return d.b.val[name] - d.a.val[name] }

// mean of a histogram's new samples. The registry's buckets are powers of
// two, so a percentile read off them cannot move by less than a factor of
// two; sum and count are exact, which is why the layer figures are means.
func (d delta) mean(name string) float64 {
	return ratio(d.b.histSum[name]-d.a.histSum[name], d.b.histCount[name]-d.a.histCount[name])
}

// counterLayers derives the (C) metrics — registry deltas divided by ops —
// and the proc.* figures for one measured phase.
func counterLayers(m metrics, p *phase, views0, leaders0, views1, leaders1 []string) {
	d := delta{p.before, p.after}
	ops := float64(p.ok)
	secs := d.b.at.Sub(d.a.at).Seconds()
	per := func(name string) float64 { return ratio(d.count(name), ops) }

	reqs := d.count("gateway.put.requests") + d.count("gateway.get.requests")
	m.set("gateway.rejected_share", "ratio", ratio(d.count("gateway.admission.rejected"), reqs))
	m.set("gateway.server_put_mean_ms", "ms", d.mean("gateway.put.latency_us")/1e3)
	m.set("gateway.server_get_mean_ms", "ms", d.mean("gateway.get.latency_us")/1e3)

	m.set("dstore.client_put_mean_ms", "ms", d.mean("dstore.client.put_latency_ns")/1e6)
	m.set("dstore.client_get_mean_ms", "ms", d.mean("dstore.client.get_latency_ns")/1e6)
	m.set("dstore.quorum_wait_mean_ms", "ms", d.mean("dstore.client.quorum_wait_ns")/1e6)
	m.set("dstore.credit_stalls_per_op", "1/op", per("dstore.client.credit_stalls"))
	m.set("dstore.hedges_per_op", "1/op", per("dstore.client.hedges_fired"))
	m.set("dstore.hedge_win_share", "ratio", ratio(d.count("dstore.client.hedges_won"), d.count("dstore.client.hedges_fired")))
	m.set("dstore.corrupt_naks_per_op", "1/op", per("dstore.client.corrupt_naks"))
	m.set("dstore.daemon_errors_per_op", "1/op", per("dstore.daemon.errors"))
	m.set("dstore.chunks_per_op", "1/op", ratio(d.count("dstore.daemon.chunks_stored")+d.count("dstore.daemon.chunks_served"), ops))

	m.set("netbuf.miss_share", "ratio", ratio(d.count("netbuf.pool.misses"), d.count("netbuf.pool.misses")+d.count("netbuf.pool.hits")))
	m.set("netbuf.oversize_per_op", "1/op", per("netbuf.pool.oversize"))
	m.set("netbuf.live_end", "count", d.b.val["netbuf.frames.live"])

	sent, delivered := d.count("rudp.conn.sent"), d.count("rudp.conn.delivered")
	m.set("rudp.sent_per_op", "1/op", ratio(sent, ops))
	m.set("rudp.retransmit_share", "ratio", ratio(d.count("rudp.conn.retransmits"), sent))
	m.set("rudp.dup_share", "ratio", ratio(d.count("rudp.conn.duplicates"), delivered))
	m.set("rudp.acks_per_datagram", "ratio", ratio(d.count("rudp.conn.acks_sent"), delivered))
	m.set("rudp.coalesced_share", "ratio", ratio(d.count("rudp.conn.acks_coalesced"), delivered))
	m.set("rudp.batch_mean", "count", d.mean("rudp.udp.batch_datagrams"))
	m.set("rudp.rtt_mean_us", "us", d.mean("rudp.conn.rtt_ns")/1e3)
	m.set("rudp.shed_per_op", "1/op", per("rudp.mesh.sends_shed"))

	m.set("storage.commits_per_op", "1/op", per("storage.backend.commits"))
	m.set("storage.commit_mean_us", "us", d.mean("storage.backend.commit_latency_ns")/1e3)
	m.set("storage.reads_per_op", "1/op", per("storage.backend.reads"))
	m.set("storage.corruptions", "count", d.count("storage.backend.corruptions"))

	differ := func(a, b []string) (n float64) {
		for i := range a {
			if a[i] != b[i] {
				n++
			}
		}
		return n
	}
	m.set("ctl.view_changes", "count", differ(views0, views1))
	m.set("ctl.leader_transitions", "count", differ(leaders0, leaders1))
	m.set("scrub.bytes_per_s", "B/s", ratio(d.count("scrub.bytes_verified"), secs))
	m.set("rebalance.passes", "count", d.count("rebalance.passes"))

	m.set("proc.cpu_ms_per_op", "ms", ratio(ms(d.b.cpu-d.a.cpu), ops))
	m.set("proc.gc_cycles_per_op", "1/op", ratio(float64(d.b.numGC-d.a.numGC), ops))
	m.set("proc.heap_peak_MB", "MB", float64(d.b.heapHeld)/1e6)
	m.set("proc.goroutines_end", "count", float64(d.b.goroutines))
}

// spanLayers derives the (S) metrics from the client-side spans of the
// traced phase. The tail is the highest percentile with ten samples beyond
// it; which percentile that was is reported next to it. A GET-only workload
// has no PUT in its window and reports 0 for the PUT figures.
func spanLayers(m metrics, p *phase) {
	pt, ppct := tail(p.put)
	gt, gpct := tail(p.get)
	m.set("gateway.put_p50_ms", "ms", ms(median(p.put)))
	m.set("gateway.get_p50_ms", "ms", ms(median(p.get)))
	m.set("gateway.put_tail_ms", "ms", ms(pt))
	m.set("gateway.put_tail_pct", "%", ppct)
	m.set("gateway.get_tail_ms", "ms", ms(gt))
	m.set("gateway.get_tail_pct", "%", gpct)
	m.set("gateway.get_ttfb_ms", "ms", ms(median(p.ttfb)))
	m.set("gateway.req_send_ms", "ms", ms(median(p.send)))
	m.set("gateway.req_wait_ms", "ms", ms(median(p.wait)))
	m.set("gateway.resp_recv_ms", "ms", ms(median(p.recv)))
	m.set("gateway.error_share", "ratio", ratio(float64(p.failed), float64(p.attempted)))
	m.set("gateway.retried_share", "ratio", ratio(float64(p.retried), float64(p.attempted)))
	m.set("ecc.reconstruct_share", "ratio", ratio(float64(p.reconstructs), float64(len(p.get))))
}
