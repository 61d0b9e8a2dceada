package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/telemetry"
)

// telemetryGaugeTotal sums a gauge family across series (0 when absent).
func telemetryGaugeTotal(snap telemetry.Snapshot, name string) int64 {
	var total int64
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			total += s.Gauge
		}
	}
	return total
}

// telemetryCounterTotal sums a counter family across series (0 when absent).
func telemetryCounterTotal(snap telemetry.Snapshot, name string) uint64 {
	var total uint64
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			total += s.Counter
		}
	}
	return total
}

// telemetryHistCount sums a histogram family's sample count across series.
func telemetryHistCount(snap telemetry.Snapshot, name string) uint64 {
	var total uint64
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if s.Histogram != nil {
				total += s.Histogram.Count
			}
		}
	}
	return total
}

// telemetrySeriesGauge reads one labeled series of a gauge family.
func telemetrySeriesGauge(snap telemetry.Snapshot, name, labelVal string) int64 {
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if s.LabelValue == labelVal {
				return s.Gauge
			}
		}
	}
	return 0
}

// TestChaosTelemetryKillNodeMidRebuild wipes a node, rebuilds it over the
// mesh, and crashes a survivor while the repair pipeline is mid-pass — then
// judges the whole scenario through the registry: the repair-duration
// histogram carries one sample per object (the MTTDL numerator), the hedge
// counters are consistent with the induced losses, and the big-frame pool
// gauge returns exactly to its pre-scenario baseline (no frame leaks).
func TestChaosTelemetryKillNodeMidRebuild(t *testing.T) {
	code, err := ecc.NewReedSolomon(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(sixNodes, Options{Seed: 23, Code: code})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(time.Second)

	// The 68KiB netbuf class carries only chunk-size data frames (membership
	// traffic rides the small classes), so once every transfer
	// resolves its live count must return exactly to this baseline. netbuf
	// pools are process-global: take the baseline after this platform is up.
	bigClassBaseline := telemetrySeriesGauge(telemetry.Default().Snapshot(), "netbuf.pool.class_live", "69632")

	// 512KiB objects give 128KiB shards — four chunks per stream at the
	// default 32KiB chunk size — so the repair reads are still streaming
	// (and can stall, and hedge) when the crash lands.
	const objects = 6
	rng := rand.New(rand.NewSource(5))
	stored := map[string][]byte{}
	for i := 0; i < objects; i++ {
		id := fmt.Sprintf("obj-%d", i)
		data := make([]byte, 512<<10)
		rng.Read(data)
		if err := p.PutStream(id, bytes.NewReader(data), int64(len(data))); err != nil {
			t.Fatal(err)
		}
		stored[id] = data
	}

	// Wipe n6 and rebuild it from n1, crashing survivor n3 mid-pass.
	p.Backends["n6"].Wipe()
	var rebuilt int
	var rebuildErr error
	finished := false
	p.Clients["n1"].RebalanceAsync(nil, func(st dstore.RebalanceStats, err error) {
		rebuilt, rebuildErr, finished = st.Moved+st.Rebuilt, err, true
	})
	crashed := false
	for !finished && p.Scheduler.Step() {
		if crashed {
			continue
		}
		snap := p.Telemetry.Snapshot() // mid-scenario registry snapshot
		done := telemetryGaugeTotal(snap, "rebalance.objects_done")
		served := telemetryCounterTotal(snap, "dstore.daemon.chunks_served")
		// Chunk reads are in full swing but no object has finished: killing
		// a survivor now stalls live streams mid-transfer.
		if served >= 8 && done < objects {
			if err := p.Pause("n3"); err != nil {
				t.Fatal(err)
			}
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("rebuild finished before a mid-pass crash could be injected")
	}
	if rebuildErr != nil {
		t.Fatalf("rebuild under crash: %v", rebuildErr)
	}
	if rebuilt != objects {
		t.Fatalf("rebuilt %d of %d objects", rebuilt, objects)
	}

	// Recover the crashed survivor so its retransmit queues drain, then let
	// everything settle before judging the registry.
	if err := p.Resume("n3"); err != nil {
		t.Fatal(err)
	}
	p.Run(10 * time.Second)
	for id, want := range stored {
		got, err := p.Get(id)
		if err != nil {
			t.Fatalf("get %s after chaos: %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s corrupted after chaos", id)
		}
	}
	p.Run(5 * time.Second)

	snap := p.Telemetry.Snapshot()
	if n := telemetryHistCount(snap, "rebalance.repair_duration_ns"); n != objects {
		t.Fatalf("repair_duration samples = %d, want %d", n, objects)
	}
	fired := telemetryCounterTotal(snap, "dstore.client.hedges_fired")
	won := telemetryCounterTotal(snap, "dstore.client.hedges_won")
	if fired == 0 {
		t.Fatal("crashing a survivor mid-rebuild fired no hedges")
	}
	if won > fired {
		t.Fatalf("hedges won %d > fired %d", won, fired)
	}
	if n := telemetryGaugeTotal(snap, "rebalance.bytes_inflight"); n != 0 {
		t.Fatalf("rebalance bytes_inflight = %d after settle, want 0", n)
	}
	if n := telemetryGaugeTotal(snap, "dstore.daemon.assemblies"); n != 0 {
		t.Fatalf("daemon assemblies = %d after settle, want 0", n)
	}
	if big := telemetrySeriesGauge(telemetry.Default().Snapshot(), "netbuf.pool.class_live", "69632"); big != bigClassBaseline {
		t.Fatalf("68KiB-class frames live = %d, baseline %d: frames leaked", big, bigClassBaseline)
	}
}
