package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestSmoke runs the shortest traced run — small_mixed for one second plus
// the 4 KiB ladder — and checks that what the program prints and what
// BENCHMARK.json promises are the same set of names and units. It asserts
// nothing about timing.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(man.Workloads) > 8 || len(man.EndToEnd) > 16 || len(man.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d layer metrics; the limits are 8, 16 and 128",
			len(man.Workloads), len(man.EndToEnd), len(man.PerLayer))
	}

	w, _ := findWorkload("small_mixed")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	p := params{w: w, seed: 1, seconds: 1, trace: true, root: t.TempDir(),
		setups: 1, warmup: 200 * time.Millisecond, idle: 100 * time.Millisecond, rung: 20 * time.Millisecond}
	rep, err := runWorkload(ctx, p)
	if err != nil {
		// Six nodes on a box that is also running the rest of `go test
		// ./...` now and then vote a live node dead, and a request that
		// lands in that moment is refused. That is the product's to fix;
		// this test is about names and units, so it tries once more.
		t.Logf("first attempt: %v", err)
		if rep, err = runWorkload(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if !rep.Correct || rep.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d %v", rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
	}
	if rep.Failed > 0 {
		t.Logf("%d of %d requests failed: %v", rep.Failed, rep.Attempted, rep.Failures)
	}

	var line struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]metric
	}
	dec := json.NewDecoder(strings.NewReader(contractLine(rep)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line does not parse: %v", err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(man.PerLayer) {
		t.Errorf("result line of a traced run must carry correct, attempted, failed and the %d layer metrics; got %d metrics",
			len(man.PerLayer), len(line.Metrics))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind, n, unit string, got metrics) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("%s name %q is malformed or used twice", kind, n)
		}
		seen[n] = true
		if m, ok := got[n]; !ok {
			t.Errorf("BENCHMARK.json lists %s metric %s, the program does not report it", kind, n)
		} else if m.Unit != unit {
			t.Errorf("%s: BENCHMARK.json says unit %q, the program reports %q", n, unit, m.Unit)
		}
	}
	for _, m := range man.PerLayer {
		check("per_layer", m.Name, m.Unit, rep.Layers)
	}
	for i, m := range man.EndToEnd {
		check("end_to_end", m.Name, m.Unit, rep.EndToEnd)
		if i >= len(endToEnd) {
			continue
		}
		def := endToEnd[i]
		better := map[bool]string{true: "lower", false: "higher"}[def.lower]
		if def.name != m.Name || def.bound != m.Bound || better != m.Better {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, compare's table has %+v", i, m, def)
		}
	}
	if len(rep.Layers) != len(man.PerLayer) || len(rep.EndToEnd) != len(man.EndToEnd) || len(endToEnd) != len(man.EndToEnd) {
		t.Errorf("the program reports %d end-to-end and %d layer metrics, BENCHMARK.json lists %d and %d",
			len(rep.EndToEnd), len(rep.Layers), len(man.EndToEnd), len(man.PerLayer))
	}
	for i, mw := range man.Workloads {
		if !name.MatchString(mw.Name) || i >= len(workloads) || workloads[i].name != mw.Name || workloads[i].why != mw.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, which is not the program's table entry", i, mw.Name)
		}
	}
	if len(man.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(man.Workloads), len(workloads))
	}

	// Every pooled frame the window took is back: the gauge sits where it
	// sat before the window, give or take the control-plane datagrams that
	// are always in flight between six idle nodes. While the cluster has a
	// live node voted dead, frames are legitimately queued for it, so a run
	// that shows such an incident proves nothing either way.
	quiet := true
	for _, n := range []string{"ctl.view_changes", "ctl.leader_transitions", "rebalance.passes", "dstore.hedges_per_op"} {
		quiet = quiet && rep.Layers[n].Value == 0
	}
	if end := rep.Layers["netbuf.live_end"].Value; quiet && end > rep.NetbufLiveStart+128 {
		t.Errorf("netbuf frames live: %v before the window, %v after it", rep.NetbufLiveStart, end)
	}
	if _, err := os.Stat(rep.SpanFile); err != nil {
		t.Errorf("traced run left no span file: %v", err)
	}
}
