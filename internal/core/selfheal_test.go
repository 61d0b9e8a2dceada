package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rain/internal/ecc"
	"rain/internal/telemetry"
)

// selfHealPayload is a deterministic object body.
func selfHealPayload(i, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(i*31 + j)
	}
	return b
}

// TestSelfHealFlappingDebounce flaps one node through three crash/recover
// cycles on slow, lossy links (WAN envelope) and proves the debounce holds:
// no rebalance pass fires while the membership view is churning, exactly one
// fires once the view is stable again, and nothing fires after that. The
// judge is the rebalance.passes counter in the registry — every pass any
// client starts lands there.
func TestSelfHealFlappingDebounce(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7"}
	code, err := ecc.NewBCode(6)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(nodes, Options{
		Seed:      42,
		Code:      code,
		LinkDelay: 20 * time.Millisecond, // WAN-class latency
		LinkLoss:  0.02,                  // lossy
		// Longer than any gap between flap-induced view changes (removal
		// detection runs ~1.5s, rejoin up to ~4.5s on these links), shorter
		// than the post-flap settle window.
		RebalanceDebounce: 6 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	const objects, size = 6, 8 << 10
	for i := 0; i < objects; i++ {
		if err := p.Put(fmt.Sprintf("obj-%d", i), selfHealPayload(i, size)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// A stable startup has no view or leadership changes, so the controller
	// has nothing to arm: no pass fires.
	p.Run(4 * time.Second)
	passes0 := telemetryCounterTotal(p.Telemetry.Snapshot(), "rebalance.passes")
	if passes0 != 0 {
		t.Fatalf("baseline passes = %d, want 0 on a stable cluster", passes0)
	}

	// Flap n7: each crash and each recovery changes the view on every
	// member. Advance until the change is actually observed so every gap
	// between consecutive view changes stays inside the debounce window.
	waitVC := func(want int) {
		t.Helper()
		for i := 0; i < 55; i++ {
			if p.SelfHealStats("n1").ViewChanges >= want {
				return
			}
			p.Run(100 * time.Millisecond)
		}
		t.Fatalf("view change %d never observed on n1", want)
	}
	vc := p.SelfHealStats("n1").ViewChanges
	for i := 0; i < 3; i++ {
		if err := p.Pause("n7"); err != nil {
			t.Fatal(err)
		}
		vc++
		waitVC(vc) // removal lands
		if err := p.Resume("n7"); err != nil {
			t.Fatal(err)
		}
		vc++
		waitVC(vc) // rejoin lands
	}
	passesMid := telemetryCounterTotal(p.Telemetry.Snapshot(), "rebalance.passes")
	if passesMid != passes0 {
		t.Fatalf("passes went %d -> %d during flapping: debounce did not hold", passes0, passesMid)
	}

	// View stable again: exactly one pass per stable view.
	p.Run(8 * time.Second)
	passesEnd := telemetryCounterTotal(p.Telemetry.Snapshot(), "rebalance.passes")
	if passesEnd != passesMid+1 {
		t.Fatalf("passes went %d -> %d after settling, want exactly one more", passesMid, passesEnd)
	}
	// And only one: a long quiet stretch adds none.
	p.Run(10 * time.Second)
	if got := telemetryCounterTotal(p.Telemetry.Snapshot(), "rebalance.passes"); got != passesEnd {
		t.Fatalf("passes went %d -> %d while idle", passesEnd, got)
	}

	if st := p.SelfHealStats("n1"); st.ViewChanges < 6 {
		t.Fatalf("leader saw %d view changes across 3 flap cycles, want >= 6", st.ViewChanges)
	}
	for i := 0; i < objects; i++ {
		got, err := p.Get(fmt.Sprintf("obj-%d", i))
		if err != nil {
			t.Fatalf("get %d after flapping: %v", i, err)
		}
		if !bytes.Equal(got, selfHealPayload(i, size)) {
			t.Fatalf("object %d corrupted", i)
		}
	}
}

// TestSelfHealLeaderAssassinationSingleDriver kills a storage node to create
// repair work, lets the elected leader start the rebalance, then kills the
// leader mid-pass: the next identity must take over and be the only client
// that ever drives a pass to completion, and the cluster must end fully
// repaired with every object intact. Per-leader move counters make the
// single-driver claim checkable.
func TestSelfHealLeaderAssassinationSingleDriver(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"}
	code, err := ecc.NewBCode(6)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(nodes, Options{
		Seed: 7,
		Code: code,
		// Keep few objects in flight so the pass spans many scheduler
		// steps and the mid-pass kill lands inside it.
		RebuildBudget: 2 * 16 << 10 * 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	const objects, size = 40, 16 << 10
	for i := 0; i < objects; i++ {
		if err := p.Put(fmt.Sprintf("obj-%d", i), selfHealPayload(i, size)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	p.Run(time.Second)

	// Kill a storage node: the view change arms the leader's debounced
	// pass.
	if err := p.Pause("n8"); err != nil {
		t.Fatal(err)
	}
	started := false
	for i := 0; i < 1000; i++ {
		p.Run(5 * time.Millisecond)
		if p.SelfHealStats("n1").Passes >= 1 {
			started = true
			break
		}
	}
	if !started {
		t.Fatal("leader n1 never started a rebalance pass")
	}
	if st := p.SelfHealStats("n1"); st.Completed != 0 {
		t.Fatalf("pass completed within one 5ms step (Completed=%d); cannot test a mid-pass kill", st.Completed)
	}
	// Mid-pass progress is visible through the existing rebalance gauges on
	// the driving node's scope.
	snap := p.Telemetry.Snapshot()
	if total := telemetrySeriesGauge(snap, "rebalance.objects_total", "n1"); total == 0 {
		t.Fatal("rebalance.objects_total not visible mid-pass on the driving node")
	}

	// Assassinate the coordinator mid-pass.
	if err := p.Pause("n1"); err != nil {
		t.Fatal(err)
	}
	p.Run(10 * time.Second)

	if st := p.SelfHealStats("n2"); st.Completed < 1 {
		t.Fatalf("successor n2 never completed a pass: %+v", st)
	} else if st.Moves.Moved+st.Moves.Rebuilt == 0 {
		t.Fatalf("successor completed a pass without moving anything: %+v", st)
	}
	// Exactly one client ever drove a pass to completion.
	for _, n := range nodes {
		if n == "n2" {
			continue
		}
		if st := p.SelfHealStats(n); st.Completed != 0 {
			t.Fatalf("%s also completed %d passes: two drivers", n, st.Completed)
		}
	}

	// Redundancy restored: a fresh reconciliation from the live leader
	// finds zero objects needing work, and every object reads bit-exact.
	leader := p.Leader("n2")
	if leader != "n2" {
		t.Fatalf("leader after assassination = %s, want n2", leader)
	}
	stats, err := p.Clients[leader].Rebalance()
	if err != nil {
		t.Fatalf("verification rebalance: %v", err)
	}
	if stats.Objects != 0 {
		t.Fatalf("verification rebalance still found %d objects needing work", stats.Objects)
	}
	for i := 0; i < objects; i++ {
		got, err := p.Get(fmt.Sprintf("obj-%d", i))
		if err != nil {
			t.Fatalf("get %d after repair: %v", i, err)
		}
		if !bytes.Equal(got, selfHealPayload(i, size)) {
			t.Fatalf("object %d corrupted", i)
		}
	}
}

// TestReplaceNodeUnderSelfHeal hot-swaps a node on a self-healing cluster.
// The rebalance gate yields every client but the leader's, so ReplaceNode
// drives its one pass from the leader: the pass rebuilds the blank node's
// shards, and the controller's own debounced pass then finds nothing left.
// The nodes are listed largest name first, so the first live node (n6) is
// not the leader (n1, the smallest name).
func TestReplaceNodeUnderSelfHeal(t *testing.T) {
	p, err := New([]string{"n6", "n5", "n4", "n3", "n2", "n1"}, Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(time.Second)
	const objects = 4
	for i := 0; i < objects; i++ {
		if err := p.Put(fmt.Sprintf("obj-%d", i), selfHealPayload(i, 12<<10)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := p.Pause("n4"); err != nil {
		t.Fatal(err)
	}
	p.Run(3 * time.Second) // membership excises n4
	rebuilt, err := p.ReplaceNode("n4")
	if err != nil || rebuilt != objects {
		t.Fatalf("replace under self-heal: rebuilt %d, %v; want %d", rebuilt, err, objects)
	}
	if got := p.Backends["n4"].Objects(); got != objects {
		t.Fatalf("replacement holds %d shards, want %d", got, objects)
	}
	p.Run(5 * time.Second) // the controller's debounced pass fires and finds no work
	if moves := p.SelfHealStats("n1").Moves; moves.Moved+moves.Rebuilt != 0 {
		t.Fatalf("controller pass after the hot swap still moved shards: %+v", moves)
	}
	for _, n := range []string{"n2", "n3"} {
		if err := p.Pause(n); err != nil {
			t.Fatal(err)
		}
	}
	p.Run(2 * time.Second)
	for i := 0; i < objects; i++ {
		id := fmt.Sprintf("obj-%d", i)
		if got, err := p.Get(id); err != nil || !bytes.Equal(got, selfHealPayload(i, 12<<10)) {
			t.Fatalf("get %s through the replacement: %v", id, err)
		}
	}
}

// TestRevivedLeaderWaitsForReadmission crashes n1 — the smallest name, so
// the leader — while it holds the membership token, lets n2 drive the
// repair pass, then revives n1 with the ring it crashed with. Leadership is
// the smallest name in a node's own view, so that stale ring names n1 the
// leader at once; what keeps it from driving a pass over a view the
// survivors do not share is that a revived node starves until the token
// reaches it again. Sampled every 5 ms: an open gate is always on the
// smallest name of its own view and never on a starving node, and n1 starts
// no pass until every survivor's view holds it again — after which the
// readmitted leader does drive the rejoin's pass.
func TestRevivedLeaderWaitsForReadmission(t *testing.T) {
	// A code narrower than the cluster, so five survivors can host a pass.
	code, err := ecc.NewBCode(4)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlatform(t, Options{Seed: 23, Code: code})
	const objects, size = 12, 8 << 10
	for i := 0; i < objects; i++ {
		if err := p.Put(fmt.Sprintf("obj-%d", i), selfHealPayload(i, size)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	p.Run(time.Second)
	n1 := p.Membership.Members["n1"]
	for i := 0; !n1.HasToken(); i++ {
		if i > 100000 || !p.Scheduler.Step() {
			t.Fatal("the token never reached n1")
		}
	}
	if err := p.Pause("n1"); err != nil {
		t.Fatal(err)
	}

	// check asserts the gate invariant on every node at this instant.
	check := func() {
		t.Helper()
		for _, n := range p.Nodes {
			m := p.Membership.Members[n]
			if p.healers[n].gate() && (m.Leader() != n || m.Starving()) {
				t.Fatalf("%v: %s's gate is open with leader %s of view %v, starving=%v",
					p.Scheduler.Now(), n, m.Leader(), m.View(), m.Starving())
			}
		}
	}
	runUntil := func(limit time.Duration, what string, cond func() bool) {
		t.Helper()
		for end := p.Scheduler.Now().Add(limit); !cond(); {
			if p.Scheduler.Now() >= end {
				t.Fatalf("%v: timed out waiting for %s", p.Scheduler.Now(), what)
			}
			p.Run(5 * time.Millisecond)
			check()
		}
	}
	runUntil(10*time.Second, "n2 to complete a pass without n1", func() bool {
		return p.SelfHealStats("n2").Completed >= 1
	})
	if got := p.Leader("n2"); got != "n2" {
		t.Fatalf("leader seen by n2 = %s, want n2", got)
	}

	passes := p.SelfHealStats("n1").Passes
	if err := p.Resume("n1"); err != nil {
		t.Fatal(err)
	}
	if !n1.Starving() || n1.Leader() != "n1" || len(n1.View()) != len(p.Nodes) {
		t.Fatalf("revived n1: starving=%v, leader %s, view %v; want a starving node with its stale six-node ring",
			n1.Starving(), n1.Leader(), n1.View())
	}
	readmitted := func() bool {
		for _, n := range p.Nodes[1:] {
			if !p.Membership.Members[n].InView("n1") {
				return false
			}
		}
		return true
	}
	runUntil(10*time.Second, "every survivor's view to hold n1 again", func() bool {
		if readmitted() {
			return true
		}
		if got := p.SelfHealStats("n1").Passes; got != passes {
			t.Fatalf("%v: revived n1 started a pass (%d -> %d) before the survivors readmitted it",
				p.Scheduler.Now(), passes, got)
		}
		return false
	})
	runUntil(10*time.Second, "readmitted n1 to complete the rejoin's pass", func() bool {
		return p.SelfHealStats("n1").Completed >= 1
	})
	for i := 0; i < objects; i++ {
		got, err := p.Get(fmt.Sprintf("obj-%d", i))
		if err != nil || !bytes.Equal(got, selfHealPayload(i, size)) {
			t.Fatalf("get obj-%d after the rejoin: %v", i, err)
		}
	}
}

// TestLeaderTransitionsFollowTheView pins selfheal.leader_transitions to
// the view's smallest name: a crash of the leader moves it once on every
// survivor, a crash of any other node moves the view but not the leader,
// and the leader's return moves it back once on every node that saw it go.
func TestLeaderTransitionsFollowTheView(t *testing.T) {
	p := newPlatform(t, Options{Seed: 29})
	p.Run(time.Second)
	transitions := func() uint64 {
		return telemetryCounterTotal(p.Telemetry.Snapshot(), "selfheal.leader_transitions")
	}
	if got := transitions(); got != 0 {
		t.Fatalf("a stable startup counted %d leader transitions, want 0", got)
	}
	steps := []struct {
		what  string
		fault func(string) error
		node  string
		want  uint64
	}{
		{"leader n1 crashes: five survivors move to n2", p.Pause, "n1", 5},
		{"n4 crashes: the leader stays n2", p.Pause, "n4", 5},
		{"n1 returns: four survivors move back to n1", p.Resume, "n1", 9},
	}
	for _, st := range steps {
		if err := st.fault(st.node); err != nil {
			t.Fatal(err)
		}
		p.Run(5 * time.Second)
		if got := transitions(); got != st.want {
			t.Fatalf("%s: selfheal.leader_transitions = %d, want %d", st.what, got, st.want)
		}
	}
}

// TestSelfHealRepairsCorruptionOnTheLeader rots two shards on non-leader
// holders of a six-node self-healing cluster: one the background scrub
// finds, one a read from a non-leader node finds. Each holder's quarantine
// pokes the controllers, and only the leader's poke becomes a pass, so both
// shards are re-created in place by the leader's client: one rebuilt shard
// per rotten shard, all on the leader's scope, and no other node starts a
// pass.
func TestSelfHealRepairsCorruptionOnTheLeader(t *testing.T) {
	p, err := New([]string{"n6", "n5", "n4", "n3", "n2", "n1"}, Options{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(time.Second)
	const size = 24 << 10
	ids := []string{"scrubbed", "read"}
	for i, id := range ids {
		if err := p.Put(id, selfHealPayload(i, size)); err != nil {
			t.Fatalf("put %s: %v", id, err)
		}
	}
	leader := p.Leader("n6")
	if leader != "n1" {
		t.Fatalf("leader = %s, want n1", leader)
	}
	// rot damages id's shard on holder and returns the shard index it held.
	rot := func(id, holder string) int {
		t.Helper()
		info, err := p.Backends[holder].Info(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Backends[holder].CorruptShard(id, int64(info.ShardLen)/2); err != nil {
			t.Fatal(err)
		}
		return info.Shard
	}
	healed := func(id, holder string, shard int) {
		t.Helper()
		info, err := p.Backends[holder].Info(id)
		if err != nil || info.Shard != shard {
			t.Fatalf("%s on %s: %+v, %v; want shard %d re-created in place", id, holder, info, err, shard)
		}
		if _, _, err := p.Backends[holder].Verify(id); err != nil {
			t.Fatalf("%s on %s: re-created shard fails verification: %v", id, holder, err)
		}
	}

	// (a) The scrub finds it.
	shardA := rot("scrubbed", "n3")
	p.Run(ScrubInterval + 3*time.Second)
	snap := p.Telemetry.Snapshot()
	if got := telemetrySeriesCounter(snap, "scrub.corruptions_found", "n3"); got != 1 {
		t.Fatalf("n3's scrub found %d corruptions, want 1", got)
	}
	healed("scrubbed", "n3", shardA)

	// (b) A read from a non-leader finds it before the next scrub step.
	shardB := rot("read", "n5")
	got, err := p.Clients["n4"].Get("read")
	if err != nil || !bytes.Equal(got, selfHealPayload(1, size)) {
		t.Fatalf("get through a rotten shard: %v", err)
	}
	if n := telemetrySeriesCounter(p.Telemetry.Snapshot(), "dstore.client.corrupt_naks", "n4"); n != 1 {
		t.Fatalf("reader n4 saw %d corrupt NAKs, want 1", n)
	}
	p.Run(3 * time.Second)
	healed("read", "n5", shardB)

	snap = p.Telemetry.Snapshot()
	if got := telemetrySeriesCounter(snap, "scrub.corruptions_found", "n5"); got != 0 {
		t.Fatalf("n5's scrub found the read's corruption first (%d)", got)
	}
	if got := telemetryCounterTotal(snap, "rebalance.shards_rebuilt"); got != 2 {
		t.Fatalf("rebalance.shards_rebuilt = %d, want one per rotten shard", got)
	}
	if got := telemetrySeriesCounter(snap, "rebalance.shards_rebuilt", leader); got != 2 {
		t.Fatalf("the leader rebuilt %d shards, want both", got)
	}
	for _, n := range p.Nodes {
		if got := telemetrySeriesCounter(snap, "rebalance.passes", n); n != leader && got != 0 {
			t.Fatalf("non-leader %s started %d passes, want 0", n, got)
		}
	}
	if got := telemetrySeriesCounter(snap, "selfheal.corruption_pokes", leader); got != 2 {
		t.Fatalf("the leader received %d corruption pokes, want 2", got)
	}
	for i, id := range ids {
		if got, err := p.Get(id); err != nil || !bytes.Equal(got, selfHealPayload(i, size)) {
			t.Fatalf("get %s after the repair: %v", id, err)
		}
	}
}

// telemetrySeriesCounter reads one labeled series of a counter family.
func telemetrySeriesCounter(snap telemetry.Snapshot, name, labelVal string) uint64 {
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if s.LabelValue == labelVal {
				return s.Counter
			}
		}
	}
	return 0
}

// TestSelfHealRepairsCorruptionWhileANodeIsDown crashes one node of a
// six-node cluster on the default code, whose width is the node count, so
// the five-node view cannot host a placement and no view-change pass runs.
// A shard that rots on a survivor then leaves its object at bare quorum;
// the pending corruption poke opens the leader's gate down to k nodes, and
// the pass re-creates the shard in place while the node is still down.
func TestSelfHealRepairsCorruptionWhileANodeIsDown(t *testing.T) {
	p := newPlatform(t, Options{Seed: 43})
	if w := p.Code().N(); w != len(p.Nodes) {
		t.Fatalf("default code width %d, want the node count %d", w, len(p.Nodes))
	}
	p.Run(time.Second)
	const size = 24 << 10
	if err := p.Put("obj", selfHealPayload(0, size)); err != nil {
		t.Fatal(err)
	}
	if err := p.Pause("n4"); err != nil {
		t.Fatal(err)
	}
	p.Run(5 * time.Second)
	if view := p.MembershipView("n1"); len(view) != len(p.Nodes)-1 || p.Leader("n1") != "n1" {
		t.Fatalf("n1 after the crash: view %v, leader %s", view, p.Leader("n1"))
	}
	info, err := p.Backends["n3"].Info("obj")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Backends["n3"].CorruptShard("obj", int64(info.ShardLen)/2); err != nil {
		t.Fatal(err)
	}
	p.Run(ScrubInterval + 3*time.Second)
	if !p.Mesh.Stopped("n4") {
		t.Fatal("n4 came back before the check")
	}
	snap := p.Telemetry.Snapshot()
	if got := telemetrySeriesCounter(snap, "scrub.corruptions_found", "n3"); got != 1 {
		t.Fatalf("n3's scrub found %d corruptions, want 1", got)
	}
	if got, err := p.Backends["n3"].Info("obj"); err != nil || got.Shard != info.Shard {
		t.Fatalf("n3 after the pass: %+v, %v; want shard %d re-created in place", got, err, info.Shard)
	}
	if _, _, err := p.Backends["n3"].Verify("obj"); err != nil {
		t.Fatalf("re-created shard fails verification: %v", err)
	}
	if got := telemetrySeriesCounter(snap, "rebalance.shards_rebuilt", "n1"); got != 1 {
		t.Fatalf("the leader rebuilt %d shards, want 1", got)
	}
	if got, err := p.Get("obj"); err != nil || !bytes.Equal(got, selfHealPayload(0, size)) {
		t.Fatalf("get with n4 down after the repair: %v", err)
	}
}

// TestSelfHealPendingPokeOutlastsAClosedGate pokes a controller whose gate
// is closed when its debounce fires, and reopens the gate without a view
// change (a leader that stops starving does the same): the poke is still
// pending, so the controller keeps retrying and runs the pass that re-creates
// the quarantined shard. The controller is built by hand so a test hook can
// close its gate.
func TestSelfHealPendingPokeOutlastsAClosedGate(t *testing.T) {
	p := newPlatform(t, Options{Seed: 47})
	p.Run(time.Second)
	const size = 24 << 10
	if err := p.Put("obj", selfHealPayload(0, size)); err != nil {
		t.Fatal(err)
	}
	info, err := p.Backends["n3"].Info("obj")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Backends["n3"].CorruptShard("obj", int64(info.ShardLen)/2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Backends["n3"].Verify("obj"); err == nil {
		t.Fatal("the rotten shard verified")
	}
	closed := true
	const debounce = 500 * time.Millisecond
	h := newSelfHealer(p.Scheduler, p.Clients["n1"], p.Membership.Members["n1"],
		func() bool { return closed }, debounce, telemetry.NewRegistry().Node("n1"))
	h.poke()
	p.Run(5 * debounce)
	if h.stats.Passes != 0 {
		t.Fatalf("%d passes through a closed gate", h.stats.Passes)
	}
	closed = false
	p.Run(5 * debounce)
	if h.stats.Passes != 1 || h.stats.Completed != 1 || h.stats.Moves.Rebuilt != 1 {
		t.Fatalf("after the gate reopened: %+v; want one completed pass rebuilding one shard", h.stats)
	}
	if h.repair {
		t.Fatal("the completed pass left the poke pending")
	}
	if got, err := p.Backends["n3"].Info("obj"); err != nil || got.Shard != info.Shard {
		t.Fatalf("n3 after the pass: %+v, %v; want shard %d re-created in place", got, err, info.Shard)
	}
	if _, _, err := p.Backends["n3"].Verify("obj"); err != nil {
		t.Fatalf("re-created shard fails verification: %v", err)
	}
}
