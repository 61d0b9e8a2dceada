package checkpoint

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"rain"
)

// newTestSystem starts RAINCheck on a fresh six-node cluster running the
// default (6,4) B-Code — the platform's own membership, mesh and store.
func newTestSystem(t *testing.T) (*System, *rain.Cluster) {
	t.Helper()
	p, err := rain.NewCluster([]string{"n1", "n2", "n3", "n4", "n5", "n6"},
		rain.ClusterOptions{Seed: 4242, Policy: rain.PolicyLeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	return New(p, Config{}), p
}

func specs(n, steps int) []JobSpec {
	out := make([]JobSpec, n)
	for i := range out {
		out[i] = JobSpec{ID: fmt.Sprintf("job%d", i), Steps: steps, Seed: uint64(1000 + i)}
	}
	return out
}

func wantAllDone(t *testing.T, sys *System, jobs []JobSpec) {
	t.Helper()
	done := sys.Done()
	for _, sp := range jobs {
		acc, ok := done[sp.ID]
		if !ok {
			t.Fatalf("job %s never completed (done: %v)", sp.ID, done)
		}
		if want := ExpectedResult(sp); acc != want {
			t.Fatalf("job %s result %x, want %x", sp.ID, acc, want)
		}
	}
}

// wantPruned checks every live node holds exactly one checkpoint object per
// job: every superseded version, failed write and write that landed late,
// behind a newer one, was deleted. A node that was down for some of those
// deletes and came back is the store's to reconcile; name it in except.
func wantPruned(t *testing.T, p *rain.Cluster, jobs []JobSpec, except ...string) {
	t.Helper()
	for _, n := range p.Nodes {
		if p.Mesh.Stopped(n) || slices.Contains(except, n) {
			continue
		}
		held := map[string][]string{}
		for _, o := range p.Backends[n].List() {
			job := strings.Split(o.ID, "/")[1]
			held[job] = append(held[job], o.ID)
		}
		for _, sp := range jobs {
			if len(held[sp.ID]) != 1 {
				t.Fatalf("node %s holds %d checkpoints of %s, want the latest only: %v", n, len(held[sp.ID]), sp.ID, held[sp.ID])
			}
		}
	}
}

func TestJobsCompleteFaultFree(t *testing.T) {
	sys, p := newTestSystem(t)
	jobs := specs(8, 100)
	sys.Submit(jobs...)
	p.Run(10 * time.Second)
	wantAllDone(t, sys, jobs)
	wantPruned(t, p, jobs)
	// Without failures there is no rollback: executed == spec steps.
	for _, sp := range jobs {
		if got := sys.StepsExecuted()[sp.ID]; got != sp.Steps {
			t.Fatalf("job %s executed %d steps, want %d", sp.ID, got, sp.Steps)
		}
	}
}

func TestJobsSpreadAcrossNodes(t *testing.T) {
	sys, p := newTestSystem(t)
	jobs := specs(12, 50)
	sys.Submit(jobs...)
	p.Run(10 * time.Second)
	wantAllDone(t, sys, jobs)
	wantPruned(t, p, jobs)
	// Twelve jobs over six nodes: the least-loaded assignment gives two
	// initial jobs per node, i.e. exactly 12 assignments total.
	if sys.Reassignments() != 12 {
		t.Fatalf("initial assignments = %d, want 12", sys.Reassignments())
	}
}

func TestNodeFailureRollbackRecovery(t *testing.T) {
	// E19: kill a worker mid-run; its jobs are reassigned, resume from the
	// last checkpoint, and complete with bit-exact results.
	sys, p := newTestSystem(t)
	jobs := specs(6, 400)
	sys.Submit(jobs...)
	p.Run(500 * time.Millisecond) // some progress + checkpoints
	p.Pause("n2")
	p.Run(25 * time.Second)
	wantAllDone(t, sys, jobs)
	wantPruned(t, p, jobs)
	// Rollback re-executes work: total executed steps must exceed the
	// failure-free sum.
	total := 0
	for _, sp := range jobs {
		total += sys.StepsExecuted()[sp.ID]
	}
	if total <= 6*400 {
		t.Fatalf("executed %d steps; expected re-execution after rollback", total)
	}
}

func TestLeaderFailure(t *testing.T) {
	// Killing the leader forces re-election AND reassignment of the
	// leader's own jobs.
	sys, p := newTestSystem(t)
	jobs := specs(6, 400)
	sys.Submit(jobs...)
	p.Run(500 * time.Millisecond)
	p.Pause("n1") // smallest id = initial leader
	p.Run(25 * time.Second)
	wantAllDone(t, sys, jobs)
	wantPruned(t, p, jobs)
}

func TestTwoFailuresWithinCodeTolerance(t *testing.T) {
	// (6,4) code: two dead nodes still leave k=4 storage nodes, so
	// checkpoints stay retrievable and all jobs finish.
	sys, p := newTestSystem(t)
	jobs := specs(8, 300)
	sys.Submit(jobs...)
	p.Run(400 * time.Millisecond)
	p.Pause("n3")
	p.Run(400 * time.Millisecond)
	p.Pause("n5")
	p.Run(30 * time.Second)
	wantAllDone(t, sys, jobs)
	wantPruned(t, p, jobs)
}

func TestRevivedNodeRejoinsWorkforce(t *testing.T) {
	sys, p := newTestSystem(t)
	jobs := specs(10, 600)
	sys.Submit(jobs...)
	p.Run(300 * time.Millisecond)
	p.Pause("n4")
	p.Run(2 * time.Second)
	p.Resume("n4")
	p.Run(30 * time.Second)
	wantAllDone(t, sys, jobs)
}

func TestExpectedResultDeterministic(t *testing.T) {
	a := ExpectedResult(JobSpec{ID: "x", Steps: 1000, Seed: 42})
	b := ExpectedResult(JobSpec{ID: "x", Steps: 1000, Seed: 42})
	if a != b {
		t.Fatal("oracle not deterministic")
	}
	if a == ExpectedResult(JobSpec{ID: "x", Steps: 1000, Seed: 43}) {
		t.Fatal("different seeds must give different results")
	}
	if a == ExpectedResult(JobSpec{ID: "x", Steps: 999, Seed: 42}) {
		t.Fatal("different step counts must give different results")
	}
}

func TestLateCheckpointsArePruned(t *testing.T) {
	// Three failures leave fewer than k nodes: checkpoint writes fail, the
	// reassigned jobs' rollback reads fail (after the store's 15 s operation
	// deadline) and they restart from step 0. Once a node returns their early
	// checkpoints commit again, behind the versions already recorded. Neither
	// the failed writes' remains nor the late ones may pile up.
	sys, p := newTestSystem(t)
	jobs := specs(6, 6000)
	sys.Submit(jobs...)
	p.Run(4 * time.Second) // ~2000 steps each, checkpointed
	p.Pause("n2")
	p.Pause("n3")
	p.Pause("n4")
	p.Run(16 * time.Second)
	p.Resume("n4")
	p.Run(30 * time.Second)
	wantAllDone(t, sys, jobs)
	wantPruned(t, p, jobs, "n4")
	for _, sp := range jobs[1:4] { // the jobs that ran on n2..n4
		if got := sys.StepsExecuted()[sp.ID]; got < sp.Steps+1900 {
			t.Fatalf("job %s executed %d steps; it did not restart from scratch", sp.ID, got)
		}
	}
}

func TestSlowLinksStartWithOneLeader(t *testing.T) {
	// On slow links (250 ms) no message crosses the cluster for a while
	// after startup. The leader is the smallest name in each node's view,
	// and every view starts as the full ring, so exactly one node assigns
	// from t=0 — no node waits, and none assigns jobs another also took.
	p, err := rain.NewCluster([]string{"n1", "n2", "n3", "n4", "n5", "n6"},
		rain.ClusterOptions{Seed: 4242, LinkDelay: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sys := New(p, Config{})
	jobs := specs(12, 50)
	sys.Submit(jobs...)
	p.Run(25 * time.Second)
	wantAllDone(t, sys, jobs)
	if sys.Reassignments() != 12 {
		t.Fatalf("assignments = %d, want 12: more than one node assigned at startup", sys.Reassignments())
	}
}
