package chaos

import (
	"os"
	"testing"
	"time"

	"rain/internal/ecc"
)

// rack3 is the 11-node, 3-rack testbed used by the schedules below: four
// nodes in rackA, four in rackB, three in rackC with n11 provisioned as a
// powered-off standby. Two nodes carry double capacity weight so the
// weighted placement path is exercised under chaos too.
var rack3 = struct {
	nodes   []string
	standby []string
	domains map[string]string
	weights map[string]float64
}{
	nodes:   []string{"n01", "n02", "n03", "n04", "n05", "n06", "n07", "n08", "n09", "n10", "n11"},
	standby: []string{"n11"},
	domains: map[string]string{
		"n01": "rackA", "n02": "rackA", "n03": "rackA", "n04": "rackA",
		"n05": "rackB", "n06": "rackB", "n07": "rackB", "n08": "rackB",
		"n09": "rackC", "n10": "rackC", "n11": "rackC",
	},
	weights: map[string]float64{"n03": 2, "n07": 2},
}

func bcode6(t *testing.T) ecc.Code {
	t.Helper()
	code, err := ecc.NewBCode(6)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// rackKillAndJoin is the schedule of TestChaosRackKillAndJoinUnderTraffic.
func rackKillAndJoin(t *testing.T) Schedule {
	return Schedule{
		Name:       "rack-kill-and-join",
		Seed:       1337,
		Nodes:      rack3.nodes,
		Standby:    rack3.standby,
		Domains:    rack3.domains,
		Weights:    rack3.weights,
		Code:       bcode6(t),
		Preload:    25,
		ObjectSize: 8 << 10,
		PutEvery:   150 * time.Millisecond,
		GetEvery:   100 * time.Millisecond,
		Events: []Event{
			// Correlated rack failure taking the leader with it.
			{At: 5 * time.Second, Pause: []string{"n01", "n02"}},
			// Fresh capacity arrives while the rebuild is still running.
			{At: 8 * time.Second, Join: map[string]string{"n11": "n05"}},
		},
		Duration: 20 * time.Second,
		Settle:   20 * time.Second,
	}
}

// TestChaosRackKillAndJoinUnderTraffic is the tentpole's acceptance
// scenario: two nodes of one rack (including the leader) die at once under
// live put/get traffic, a fresh standby joins mid-rebuild, and no operator
// touches anything. The cluster must move leadership, rebalance
// (debounced), and restore full redundancy — judged through the registry
// and a bit-exact audit.
func TestChaosRackKillAndJoinUnderTraffic(t *testing.T) {
	res, err := Run(rackKillAndJoin(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	// Availability never dipped below quorum: every completed read
	// succeeded bit-exact throughout the kill and the join.
	if res.GetFails != 0 {
		t.Fatalf("%d of %d live-phase gets failed", res.GetFails, res.Gets)
	}
	if res.Gets < 100 {
		t.Fatalf("only %d gets completed: workload did not run", res.Gets)
	}
	if res.PutFails > 3 {
		t.Fatalf("%d of %d live-phase puts failed", res.PutFails, res.Puts)
	}
	// The failure-domain spread held: losing a whole rack cost at most the
	// erasure margin, so repairs happened and nothing was lost.
	if res.Repairs == 0 {
		t.Fatal("no repairs recorded for a two-node rack kill")
	}
	if res.UnderReplicated != 0 {
		t.Fatalf("%d objects below full redundancy after settling", res.UnderReplicated)
	}
	if res.DomainViolations != 0 {
		t.Fatalf("%d objects violate the failure-domain cap", res.DomainViolations)
	}
	// Debounce held: a handful of passes (kill, join, takeover), not one
	// per view flap.
	if res.Passes == 0 || res.Passes > 6 {
		t.Fatalf("rebalance passes = %d, want 1..6", res.Passes)
	}
}

// TestChaosSameSeedSameResult pins determinism by construction: one seed is
// one run, down to the nanoseconds of the observation window. Everything a
// schedule executes — the mesh's hello handshake, tick and probe order
// included — must draw its order and its randomness from the scheduler.
func TestChaosSameSeedSameResult(t *testing.T) {
	first, err := Run(rackKillAndJoin(t))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(rackKillAndJoin(t))
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("same schedule, same seed, different runs:\n%+v\n%+v", first, second)
	}
}

// TestChaosLeaderAssassinationWithFlaps kills the leader outright, flaps a
// link pair while the successor rebuilds, then revives the old leader: the
// revived coordinator must rescan and reconverge without losing an object.
func TestChaosLeaderAssassinationWithFlaps(t *testing.T) {
	res, err := Run(Schedule{
		Name:       "leader-assassination-flaps",
		Seed:       99,
		Nodes:      []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"},
		Code:       bcode6(t),
		Preload:    15,
		ObjectSize: 8 << 10,
		PutEvery:   200 * time.Millisecond,
		GetEvery:   150 * time.Millisecond,
		Events: []Event{
			{At: 4 * time.Second, Pause: []string{"n1"}},
			{At: 6 * time.Second, Flaps: []Flap{{A: "n3", B: "n5", Down: 500 * time.Millisecond, Up: 700 * time.Millisecond, Cycles: 3}}},
			{At: 10 * time.Second, Resume: []string{"n1"}},
		},
		Duration: 15 * time.Second,
		Settle:   15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.GetFails != 0 {
		t.Fatalf("%d of %d live-phase gets failed", res.GetFails, res.Gets)
	}
	if res.PutFails > 2 {
		t.Fatalf("%d of %d live-phase puts failed", res.PutFails, res.Puts)
	}
	if res.Repairs == 0 {
		t.Fatal("no repairs recorded for a killed leader")
	}
	if res.UnderReplicated != 0 {
		t.Fatalf("%d objects below full redundancy after settling", res.UnderReplicated)
	}
}

// TestChaosCorruptionUnderRead exercises the full corruption-as-erasure
// loop under live read traffic: silent bit rot on one object, a torn final
// block on another, and a stalled disk mid-run. Every damaged shard must be
// detected (by a reading client or the background scrub — whoever gets
// there first), quarantined, and repaired in place, with zero failed reads
// and a bit-exact audit.
func TestChaosCorruptionUnderRead(t *testing.T) {
	res, err := Run(Schedule{
		Name:       "corruption-under-read",
		Seed:       7,
		Nodes:      []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"},
		Code:       bcode6(t),
		Preload:    12,
		ObjectSize: 48 << 10, // 8 KiB shards: two checksum blocks each
		PutEvery:   200 * time.Millisecond,
		GetEvery:   100 * time.Millisecond,
		ScrubEvery: 2 * time.Second,
		Events: []Event{
			// Bit rot in the second checksum block of one holder's shard.
			{At: 3 * time.Second, Corrupt: []Corruption{{Object: "pre-0001", Holder: 1, Block: 1}}},
			// Torn final block on another object.
			{At: 5 * time.Second, Corrupt: []Corruption{{Object: "pre-0007", Holder: 3, Block: -1}}},
			// A disk that hangs instead of failing: reads hedge around it.
			{At: 7 * time.Second, StallDisk: []string{"n4"}},
			{At: 9 * time.Second, ClearFaults: []string{"n4"}},
		},
		Duration: 12 * time.Second,
		Settle:   12 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.CorruptionsInjected != 2 || res.CorruptionsFound != 2 {
		t.Fatalf("corruptions found = %d, injected = %d, want both 2", res.CorruptionsFound, res.CorruptionsInjected)
	}
	if res.GetFails != 0 {
		t.Fatalf("%d of %d live-phase gets failed", res.GetFails, res.Gets)
	}
	if res.UnhealedCorruptions != 0 {
		t.Fatalf("%d of %d corrupt shards not re-created in place", res.UnhealedCorruptions, res.CorruptionsInjected)
	}
	if res.UnderReplicated != 0 {
		t.Fatalf("%d objects below full redundancy after settling", res.UnderReplicated)
	}
}

// TestChaosCorruptionAtBareQuorum is the integrity tentpole's acceptance
// scenario on rs(10,8): one shard of an object rots and is found by the
// background scrub; later a second shard rots, a third holder is killed in
// the same instant, and the object is read right through the mess — at that
// moment one holder is dead and one is corrupt, so exactly the erasure
// margin is gone and the survivors are bare quorum. The read must come back
// bit-exact, both corruptions must be detected and repaired in place, and
// the settle audit must find full redundancy and zero loss.
func TestChaosCorruptionAtBareQuorum(t *testing.T) {
	rs108, err := ecc.NewReedSolomon(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Schedule{
		Name:       "corruption-at-bare-quorum",
		Seed:       42,
		Nodes:      []string{"n01", "n02", "n03", "n04", "n05", "n06", "n07", "n08", "n09", "n10", "n11", "n12"},
		Code:       rs108,
		Preload:    10,
		ObjectSize: 64 << 10, // 8 KiB shards across 10 holders
		PutEvery:   300 * time.Millisecond,
		ScrubEvery: 2 * time.Second,
		Events: []Event{
			// First corruption: nothing reads this object, so only the
			// scrub can find it.
			{At: 3 * time.Second, Corrupt: []Corruption{{Object: "pre-0000", Holder: 0, Block: 0}}},
			// Second corruption plus a killed holder, then an immediate
			// read: the get survives on bare quorum, discovering the
			// corrupt shard as one more erasure on the way.
			{
				At:           8 * time.Second,
				Corrupt:      []Corruption{{Object: "pre-0000", Holder: 4, Block: 1}},
				PauseHolders: []HolderRef{{Object: "pre-0000", Holder: 7}},
				Get:          []string{"pre-0000"},
			},
		},
		Duration: 12 * time.Second,
		Settle:   20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.CorruptionsFound != 2 {
		t.Fatalf("corruptions found = %d, want exactly the 2 injected", res.CorruptionsFound)
	}
	if res.ScrubFound < 1 {
		t.Fatal("the unread corruption was never found by the scrub")
	}
	if res.GetFails != 0 {
		t.Fatalf("%d of %d gets failed (the bare-quorum read must stay bit-exact)", res.GetFails, res.Gets)
	}
	if res.UnhealedCorruptions != 0 {
		t.Fatalf("%d of %d corrupt shards not re-created in place", res.UnhealedCorruptions, res.CorruptionsInjected)
	}
	if res.UnderReplicated != 0 {
		t.Fatalf("%d objects below full redundancy after settling", res.UnderReplicated)
	}
}

// TestChaosLongHaul is the RAIN_SMOKE-gated long variant: rolling kills and
// recoveries across racks, a correlated rack-C failure healed by the
// standby, and link flapping, over minutes of virtual time. The build fails
// if any schedule ends with an unreadable object.
func TestChaosLongHaul(t *testing.T) {
	if os.Getenv("RAIN_SMOKE") == "" {
		t.Skip("set RAIN_SMOKE=1 to run the long chaos schedule")
	}
	res, err := Run(Schedule{
		Name:       "long-haul",
		Seed:       2026,
		Nodes:      rack3.nodes,
		Standby:    rack3.standby,
		Domains:    rack3.domains,
		Weights:    rack3.weights,
		Code:       bcode6(t),
		Preload:    40,
		ObjectSize: 16 << 10,
		PutEvery:   250 * time.Millisecond,
		GetEvery:   150 * time.Millisecond,
		Events: []Event{
			{At: 10 * time.Second, Pause: []string{"n05"}},
			{At: 30 * time.Second, Flaps: []Flap{{A: "n01", B: "n06", Down: time.Second, Up: 2 * time.Second, Cycles: 5}}},
			{At: 40 * time.Second, Resume: []string{"n05"}},
			{At: 60 * time.Second, Pause: []string{"n09", "n10"}},
			{At: 70 * time.Second, Join: map[string]string{"n11": "n04"}},
			{At: 90 * time.Second, Resume: []string{"n09", "n10"}},
		},
		Duration: 2 * time.Minute,
		Settle:   30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.UnderReplicated != 0 {
		t.Fatalf("%d objects below full redundancy after settling", res.UnderReplicated)
	}
	if res.GetFails != 0 {
		t.Fatalf("%d of %d live-phase gets failed", res.GetFails, res.Gets)
	}
}
