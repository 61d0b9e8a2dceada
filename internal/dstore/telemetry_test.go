package dstore_test

import (
	"bytes"
	"testing"
	"time"

	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/rudp"
	"rain/internal/sim"
	"rain/internal/storage"
	"rain/internal/telemetry"
)

// telemetryCluster is the harness for registry-observed scenarios: like
// cluster, but every layer (mesh, backends, daemons, clients) reports into
// one private registry and tracer, so assertions see exactly this test's
// activity.
type telemetryCluster struct {
	*cluster
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
}

func newTelemetryCluster(t *testing.T, seed int64, n, k int, tweak func(*dstore.Config)) *telemetryCluster {
	t.Helper()
	code, err := ecc.NewReedSolomon(n, k)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = string(rune('a' + i))
	}
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	s := sim.New(seed)
	net := sim.NewNetwork(s)
	sim.ApplyProfile(net, nodes, 2, sim.ProfileLAN)
	mesh, err := rudp.NewMesh(s, net, nodes, rudp.Config{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{
		t: t, s: s, net: net, mesh: mesh, nodes: nodes, code: code,
		backends: make(map[string]*storage.Backend),
		daemons:  make(map[string]*dstore.Daemon),
		clients:  make(map[string]*dstore.Client),
	}
	simClock := func() time.Time { return time.Unix(0, int64(s.Now())) }
	for i, node := range nodes {
		c.backends[node] = storage.NewBackend(reg.Node(node))
		c.daemons[node] = dstore.NewDaemon(mesh, node, i, c.backends[node], 4<<10,
			dstore.WithDaemonClock(simClock), dstore.WithDaemonTelemetry(reg))
		cfg := dstore.Config{Code: code, Nodes: nodes, ChunkSize: 4 << 10, Telemetry: reg, Tracer: tracer}
		if tweak != nil {
			tweak(&cfg)
		}
		cl, err := dstore.NewClient(s, mesh, node, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.clients[node] = cl
	}
	s.RunFor(100 * time.Millisecond)
	return &telemetryCluster{cluster: c, reg: reg, tracer: tracer}
}

// family returns a registry family's snapshot, or nil when absent.
func family(snap telemetry.Snapshot, name string) *telemetry.FamilySnapshot {
	for i := range snap.Families {
		if snap.Families[i].Name == name {
			return &snap.Families[i]
		}
	}
	return nil
}

// counterTotal sums a counter family across its series.
func counterTotal(t *testing.T, snap telemetry.Snapshot, name string) uint64 {
	t.Helper()
	f := family(snap, name)
	if f == nil {
		t.Fatalf("family %s missing from snapshot", name)
	}
	var total uint64
	for _, s := range f.Series {
		total += s.Counter
	}
	return total
}

// gaugeTotal sums a gauge family across its series.
func gaugeTotal(t *testing.T, snap telemetry.Snapshot, name string) int64 {
	t.Helper()
	f := family(snap, name)
	if f == nil {
		t.Fatalf("family %s missing from snapshot", name)
	}
	var total int64
	for _, s := range f.Series {
		total += s.Gauge
	}
	return total
}

// histTotal sums a histogram family's sample count across its series.
func histTotal(t *testing.T, snap telemetry.Snapshot, name string) uint64 {
	t.Helper()
	f := family(snap, name)
	if f == nil {
		t.Fatalf("family %s missing from snapshot", name)
	}
	var total uint64
	for _, s := range f.Series {
		if s.Histogram != nil {
			total += s.Histogram.Count
		}
	}
	return total
}

// TestTelemetryEndToEnd stores and retrieves through an instrumented cluster
// and checks every layer reported coherent values into the shared registry.
func TestTelemetryEndToEnd(t *testing.T) {
	c := newTelemetryCluster(t, 7, 6, 4, nil)
	data := randBytes(7, 100<<10)

	if _, err := c.clients["a"].Put("obj", data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.clients["a"].PutStream("obj2", bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatal(err)
	}
	got, err := c.clients["b"].Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retrieved bytes differ")
	}
	// Let the retrieve's final credits and session cancels drain so the
	// daemons close their get sessions.
	c.s.RunFor(time.Second)

	snap := c.reg.Snapshot()
	if n := histTotal(t, snap, "dstore.client.put_latency_ns"); n != 2 {
		t.Fatalf("put_latency count = %d, want 2", n)
	}
	if n := histTotal(t, snap, "dstore.client.quorum_wait_ns"); n != 2 {
		t.Fatalf("quorum_wait count = %d, want 2", n)
	}
	if n := histTotal(t, snap, "dstore.client.get_latency_ns"); n != 1 {
		t.Fatalf("get_latency count = %d, want 1", n)
	}
	if n := counterTotal(t, snap, "dstore.client.put_bytes"); n != uint64(2*len(data)) {
		t.Fatalf("put_bytes = %d, want %d", n, 2*len(data))
	}
	if n := counterTotal(t, snap, "dstore.client.get_bytes"); n != uint64(len(data)) {
		t.Fatalf("get_bytes = %d, want %d", n, len(data))
	}
	// Each of the two puts committed one shard on every daemon.
	if n := counterTotal(t, snap, "dstore.daemon.commits"); n != uint64(2*len(c.nodes)) {
		t.Fatalf("daemon commits = %d, want %d", n, 2*len(c.nodes))
	}
	if n := counterTotal(t, snap, "dstore.daemon.chunks_stored"); n == 0 {
		t.Fatal("no put chunks counted")
	}
	if n := counterTotal(t, snap, "dstore.daemon.chunks_served"); n == 0 {
		t.Fatal("no get chunks counted")
	}
	// Backends agree: two objects on each of the n nodes, nothing staged.
	if n := gaugeTotal(t, snap, "storage.backend.objects"); n != int64(2*len(c.nodes)) {
		t.Fatalf("backend objects = %d, want %d", n, 2*len(c.nodes))
	}
	if n := gaugeTotal(t, snap, "storage.backend.staged_bytes"); n != 0 {
		t.Fatalf("staged_bytes = %d after all commits, want 0", n)
	}
	if n := counterTotal(t, snap, "storage.backend.commits"); n != uint64(2*len(c.nodes)) {
		t.Fatalf("backend commits = %d, want %d", n, 2*len(c.nodes))
	}
	// The transport underneath saw traffic and its sessions drained.
	if n := counterTotal(t, snap, "rudp.conn.sent"); n == 0 {
		t.Fatal("rudp sent nothing")
	}
	if n := gaugeTotal(t, snap, "dstore.daemon.assemblies"); n != 0 {
		t.Fatalf("assemblies gauge = %d after quiesce, want 0", n)
	}
	if n := gaugeTotal(t, snap, "dstore.daemon.get_sessions"); n != 0 {
		t.Fatalf("get_sessions gauge = %d after quiesce, want 0", n)
	}

	// Traces: the puts and the get each recorded a completed span trace with
	// the expected fan-out and decode events.
	traces := c.tracer.Snapshot(0)
	var sawPut, sawGet bool
	for _, tr := range traces {
		events := make(map[string]int)
		for _, e := range tr.Events {
			events[e.Name]++
		}
		switch tr.Op {
		case "put":
			if tr.Done && tr.Err == "" && events["shard_fanout"] == len(c.nodes) && events["quorum"] == 1 {
				sawPut = true
			}
		case "get":
			if tr.Done && tr.Err == "" && events["shard_fanout"] >= c.code.K() && events["first_k"] == 1 && events["decode"] > 0 {
				sawGet = true
			}
		}
	}
	if !sawPut || !sawGet {
		t.Fatalf("missing complete traces: put=%v get=%v (%d traces)", sawPut, sawGet, len(traces))
	}
}

// TestHedgeTelemetry kills one shard holder and retrieves: the stalled
// stream must fire a hedge, the spare must win, and the counters must stay
// consistent (won <= fired).
func TestHedgeTelemetry(t *testing.T) {
	c := newTelemetryCluster(t, 11, 6, 4, nil)
	data := randBytes(11, 64<<10)
	if _, err := c.clients["a"].Put("obj", data); err != nil {
		t.Fatal(err)
	}
	// Stop a node the ranked retrieve will pick first (shard-index order
	// under the default policy). The client's liveness view is nil here, so
	// only the stall timeout reveals it.
	c.mesh.StopNode(c.holder("obj", 0))
	got, err := c.clients[c.holder("obj", 1)].Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retrieved bytes differ")
	}
	snap := c.reg.Snapshot()
	fired := counterTotal(t, snap, "dstore.client.hedges_fired")
	won := counterTotal(t, snap, "dstore.client.hedges_won")
	if fired == 0 {
		t.Fatal("no hedge fired against a dead holder")
	}
	if won == 0 {
		t.Fatal("no hedge won although a spare had to feed the decode")
	}
	if won > fired {
		t.Fatalf("hedges won %d > fired %d", won, fired)
	}
}

// TestRebuildProgressGauges drives a node rebuild step by step and asserts
// the per-pass progress gauges are visible while the pass runs — not only
// afterwards — and settle when it completes.
func TestRebuildProgressGauges(t *testing.T) {
	c := newTelemetryCluster(t, 13, 6, 4, func(cfg *dstore.Config) {
		cfg.RebuildBudget = 1 // serialize tasks: intermediate states visible
	})
	const objects = 8
	for i := 0; i < objects; i++ {
		id := string(rune('0' + i))
		if _, err := c.clients["a"].Put("obj"+id, randBytes(int64(i), 32<<10)); err != nil {
			t.Fatal(err)
		}
	}
	c.backends["f"].Wipe()

	var rebuilt int
	var rebuildErr error
	finished := false
	c.clients["a"].RebalanceAsync(nil, func(st dstore.RebalanceStats, err error) {
		rebuilt, rebuildErr, finished = st.Moved+st.Rebuilt, err, true
	})

	sawMid := false
	var peakInFlight int64
	for !finished && c.s.Step() {
		snap := c.reg.Snapshot()
		total := gaugeTotal(t, snap, "rebalance.objects_total")
		done := gaugeTotal(t, snap, "rebalance.objects_done")
		if fl := gaugeTotal(t, snap, "rebalance.bytes_inflight"); fl > peakInFlight {
			peakInFlight = fl
		}
		if total == objects && done > 0 && done < total {
			sawMid = true
		}
	}
	if rebuildErr != nil {
		t.Fatal(rebuildErr)
	}
	if rebuilt != objects {
		t.Fatalf("rebuilt %d objects, want %d", rebuilt, objects)
	}
	if !sawMid {
		t.Fatal("progress gauges never showed a mid-pass state")
	}
	if peakInFlight == 0 {
		t.Fatal("bytes_inflight never rose during the rebuild")
	}

	snap := c.reg.Snapshot()
	if total, done := gaugeTotal(t, snap, "rebalance.objects_total"), gaugeTotal(t, snap, "rebalance.objects_done"); total != objects || done != objects {
		t.Fatalf("final progress %d/%d, want %d/%d", done, total, objects, objects)
	}
	if fl := gaugeTotal(t, snap, "rebalance.bytes_inflight"); fl != 0 {
		t.Fatalf("bytes_inflight = %d after the pass, want 0", fl)
	}
	if n := histTotal(t, snap, "rebalance.repair_duration_ns"); n != objects {
		t.Fatalf("repair_duration samples = %d, want %d", n, objects)
	}
	if n := counterTotal(t, snap, "rebalance.shards_rebuilt"); n != objects {
		t.Fatalf("shards_rebuilt = %d, want %d", n, objects)
	}
	if n := counterTotal(t, snap, "rebalance.bytes_reconstructed"); n == 0 {
		t.Fatal("bytes_reconstructed stayed 0")
	}
}

// TestRebalanceMoveTelemetry decommissions a node by shrinking the universe
// and rebalances: moved shards must count as copies (bandwidth 1), not
// reconstructions, and stale copies as deletes.
func TestRebalanceMoveTelemetry(t *testing.T) {
	c := newTelemetryCluster(t, 17, 7, 4, func(cfg *dstore.Config) {
		cfg.Nodes = []string{"a", "b", "c", "d", "e", "f", "g"}
		cfg.Code = mustRS(t, 6, 4)
	})
	for i := 0; i < 6; i++ {
		id := string(rune('0' + i))
		if _, err := c.clients["a"].Put("obj"+id, randBytes(int64(i), 24<<10)); err != nil {
			t.Fatal(err)
		}
	}
	// Shrink the universe: g is decommissioned but still reachable, so its
	// shards move holder-to-holder.
	rest := []string{"a", "b", "c", "d", "e", "f"}
	for _, n := range rest {
		if err := c.clients[n].SetNodes(rest); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := c.clients["a"].Rebalance("g")
	if err != nil {
		t.Fatal(err)
	}
	snap := c.reg.Snapshot()
	if n := counterTotal(t, snap, "rebalance.shards_copied"); n != uint64(stats.Moved) {
		t.Fatalf("shards_copied = %d, stats.Moved = %d", n, stats.Moved)
	}
	if n := counterTotal(t, snap, "rebalance.shards_rebuilt"); n != uint64(stats.Rebuilt) {
		t.Fatalf("shards_rebuilt = %d, stats.Rebuilt = %d", n, stats.Rebuilt)
	}
	if n := counterTotal(t, snap, "rebalance.shards_deleted"); n != uint64(stats.Deleted) {
		t.Fatalf("shards_deleted = %d, stats.Deleted = %d", n, stats.Deleted)
	}
	if stats.Moved > 0 {
		if n := counterTotal(t, snap, "rebalance.bytes_copied"); n == 0 {
			t.Fatal("bytes_copied stayed 0 despite moves")
		}
	}
	if n := gaugeTotal(t, snap, "rebalance.bytes_inflight"); n != 0 {
		t.Fatalf("bytes_inflight = %d after the pass, want 0", n)
	}
}

func mustRS(t *testing.T, n, k int) ecc.Code {
	t.Helper()
	code, err := ecc.NewReedSolomon(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return code
}
