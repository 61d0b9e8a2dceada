// Package checkpoint implements RAINCheck (§5.3): a distributed checkpoint
// and rollback/recovery mechanism built on a RAIN cluster's storage
// operations, group membership and reliable messaging.
//
// The cluster's leader (per connected component: the smallest name in the
// platform's membership view) assigns jobs to the nodes in its view. As each
// job executes, its state is periodically checkpointed: serialized,
// erasure-encoded and written to all accessible nodes with a distributed
// store operation from the owning node's store client. When a node fails,
// the leader reassigns its jobs; the new owner retrieves the last checkpoint
// from any k nodes, decodes it, and resumes execution from there. As long as a connected component of k nodes
// survives, all jobs execute to completion.
//
// Jobs are deterministic hash-chain computations (see DESIGN.md
// substitutions): state is a step counter and an accumulator, so tests can
// verify bit-exact results after arbitrary crash/rollback schedules and
// measure the re-executed work.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"maps"
	"time"

	"rain/internal/core"
)

// JobSpec describes one deterministic job.
type JobSpec struct {
	ID    string
	Steps int
	Seed  uint64
}

// advance is one deterministic computation step (a 64-bit mix function).
func advance(acc uint64) uint64 {
	acc ^= acc >> 33
	acc *= 0xff51afd7ed558ccd
	acc ^= acc >> 33
	acc *= 0xc4ceb9fe1a85ec53
	acc ^= acc >> 33
	return acc
}

// ExpectedResult computes a job's final accumulator without the cluster —
// the oracle tests compare against.
func ExpectedResult(spec JobSpec) uint64 {
	acc := spec.Seed
	for i := 0; i < spec.Steps; i++ {
		acc = advance(acc)
	}
	return acc
}

// jobState is the checkpointed execution state.
type jobState struct {
	ID   string `json:"id"`
	Step int    `json:"step"`
	Acc  uint64 `json:"acc"`
}

// jobRun is a worker's volatile view of one job it owns.
type jobRun struct {
	jobState
	loading bool // the rollback read is in flight: the job is parked
	saving  bool // a checkpoint write is in flight (at most one per job)
}

// assignMsg is the leader's periodic assignment broadcast (idempotent).
type assignMsg struct {
	Seq    uint64
	Owners map[string]string // job -> node
	Done   map[string]uint64 // job -> final accumulator
}

// doneMsg reports job completion to the leader.
type doneMsg struct {
	Job string
	Acc uint64
}

// ctrlMsg is the control-plane datagram on the platform's default message
// service: exactly one field is set.
type ctrlMsg struct {
	Assign *assignMsg `json:",omitempty"`
	Done   *doneMsg   `json:",omitempty"`
}

// Config parameterises the system.
type Config struct {
	// CheckpointEvery is the number of steps between checkpoints.
	CheckpointEvery int
	// StepsPerTick is how many steps a node executes per scheduler tick.
	StepsPerTick int
	// TickInterval is the virtual time between worker ticks.
	TickInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 20
	}
	if c.StepsPerTick == 0 {
		c.StepsPerTick = 5
	}
	if c.TickInterval == 0 {
		c.TickInterval = 10 * time.Millisecond
	}
	return c
}

// worker is one node's execution engine.
type worker struct {
	name    string
	sys     *System
	owners  map[string]string // latest assignment view
	ownSeq  uint64
	done    map[string]uint64
	running map[string]*jobRun
}

// System is a running RAINCheck deployment on a cluster: every node is both
// a compute node and a storage node. Faults are the platform's to inject
// (Pause/Resume); a paused node's worker loses its volatile job state.
type System struct {
	p       *core.Platform
	cfg     Config
	workers map[string]*worker
	specs   map[string]JobSpec
	order   []string // job ids in submission order: the one iteration order

	// leader bookkeeping (held by whichever node currently leads; kept
	// per-node so a new leader rebuilds it from its own view plus Done
	// reports).
	assignSeq uint64

	// metadata: latest durable checkpoint step per job (the paper's
	// testbed kept this with the leader; we keep it beside the store's
	// object index).
	latest map[string]int

	// instrumentation
	stepsExecuted map[string]int
	reassigns     int
}

// New starts RAINCheck on every node of the cluster: a worker ticking on the
// platform's scheduler, its control messages on the platform's default
// message service.
func New(p *core.Platform, cfg Config) *System {
	cfg = cfg.withDefaults()
	sys := &System{
		p:             p,
		cfg:           cfg,
		workers:       make(map[string]*worker),
		specs:         make(map[string]JobSpec),
		latest:        make(map[string]int),
		stepsExecuted: make(map[string]int),
	}
	for _, name := range p.Nodes {
		w := &worker{
			name:    name,
			sys:     sys,
			owners:  make(map[string]string),
			done:    make(map[string]uint64),
			running: make(map[string]*jobRun),
		}
		sys.workers[name] = w
		p.OnMessage(name, func(_ string, payload []byte) {
			var m ctrlMsg
			if json.Unmarshal(payload, &m) == nil {
				w.onMessage(m)
			}
		})
		var loop func()
		loop = func() {
			if w.down() {
				clear(w.running) // a crash loses volatile state
			} else {
				w.tick()
			}
			p.Scheduler.After(cfg.TickInterval, loop)
		}
		p.Scheduler.After(0, loop)
	}
	return sys
}

// down reports the worker's node crashed.
func (w *worker) down() bool { return w.sys.p.Mesh.Stopped(w.name) }

// Submit registers jobs to execute; call before or during the run.
func (sys *System) Submit(specs ...JobSpec) {
	for _, sp := range specs {
		if _, known := sys.specs[sp.ID]; !known {
			sys.order = append(sys.order, sp.ID)
		}
		sys.specs[sp.ID] = sp
	}
}

// Done reports the completed jobs and their final accumulators, from the
// perspective of the live nodes.
func (sys *System) Done() map[string]uint64 {
	out := map[string]uint64{}
	for _, w := range sys.workers {
		if w.down() {
			continue
		}
		for job, acc := range w.done {
			out[job] = acc
		}
	}
	return out
}

// StepsExecuted returns total steps executed per job, including re-executed
// work after rollbacks.
func (sys *System) StepsExecuted() map[string]int {
	return maps.Clone(sys.stepsExecuted)
}

// Reassignments counts leader-initiated job migrations.
func (sys *System) Reassignments() int { return sys.reassigns }

// ckptID names the versioned checkpoint object for a job.
func ckptID(job string, step int) string { return fmt.Sprintf("ckpt/%s/%08d", job, step) }

// --- worker logic ---

func (w *worker) onMessage(m ctrlMsg) {
	if a := m.Assign; a != nil && a.Seq >= w.ownSeq {
		w.ownSeq = a.Seq
		w.owners = a.Owners
		for job, acc := range a.Done {
			w.done[job] = acc
		}
	}
	if d := m.Done; d != nil {
		// Completion report (only meaningful at the leader).
		w.done[d.Job] = d.Acc
	}
}

// send delivers a control message to each listed node over the platform's
// reliable datagrams.
func (w *worker) send(m ctrlMsg, to ...string) {
	raw, err := json.Marshal(m)
	if err != nil {
		return
	}
	for _, n := range to {
		w.sys.p.Send(w.name, n, raw)
	}
}

func (w *worker) tick() {
	// A starving node's view is unconfirmed (a revived node's is the ring it
	// crashed with), so it does not lead until the token reaches it.
	if m := w.sys.p.Membership.Members[w.name]; m.Leader() == w.name && !m.Starving() {
		w.leaderTick(m.View())
	}
	w.workTick()
}

// leaderTick reconciles assignments over the live nodes in the leader's
// view and broadcasts them.
func (w *worker) leaderTick(view []string) {
	alive := map[string]bool{}
	load := map[string]int{}
	for _, n := range view {
		alive[n] = true
		load[n] = 0
	}
	for job, owner := range w.owners {
		_, isDone := w.done[job]
		if alive[owner] && !isDone {
			load[owner]++
		} else if !alive[owner] {
			delete(w.owners, job)
		}
	}
	for _, id := range w.sys.order {
		if _, isDone := w.done[id]; isDone {
			continue
		}
		if owner, ok := w.owners[id]; ok && alive[owner] {
			continue
		}
		// Assign to the least-loaded alive node (deterministic
		// tie-break by name).
		best := ""
		for _, n := range w.sys.p.Nodes {
			if !alive[n] {
				continue
			}
			if best == "" || load[n] < load[best] {
				best = n
			}
		}
		if best == "" {
			return
		}
		w.owners[id] = best
		load[best]++
		w.sys.reassigns++
	}
	w.sys.assignSeq++
	msg := &assignMsg{Seq: w.sys.assignSeq, Owners: maps.Clone(w.owners), Done: maps.Clone(w.done)}
	// Only to nodes in the view: reliable datagrams to a dead peer would
	// queue until it returns.
	var peers []string
	for _, n := range w.sys.p.Nodes {
		if n != w.name && alive[n] {
			peers = append(peers, n)
		}
	}
	w.onMessage(ctrlMsg{Assign: msg})
	w.send(ctrlMsg{Assign: msg}, peers...)
}

// workTick executes assigned jobs, checkpointing and reporting completion.
func (w *worker) workTick() {
	for _, job := range w.sys.order {
		_, isDone := w.done[job]
		if w.owners[job] != w.name || isDone {
			delete(w.running, job)
			continue
		}
		spec := w.sys.specs[job]
		r, ok := w.running[job]
		if !ok {
			r = w.recover(spec)
			w.running[job] = r
		}
		if r.loading {
			continue
		}
		for i := 0; i < w.sys.cfg.StepsPerTick && r.Step < spec.Steps; i++ {
			r.Acc = advance(r.Acc)
			r.Step++
			w.sys.stepsExecuted[job]++
			if r.Step%w.sys.cfg.CheckpointEvery == 0 || r.Step == spec.Steps {
				w.checkpoint(r)
			}
		}
		if r.Step >= spec.Steps {
			w.finish(job, r.Acc)
		}
	}
}

// recover starts a job from its latest checkpoint (rollback) — the job parks
// until the retrieve resolves — or from scratch when there is none or it
// cannot be read.
func (w *worker) recover(spec JobSpec) *jobRun {
	r := &jobRun{jobState: jobState{ID: spec.ID, Acc: spec.Seed}}
	step, ok := w.sys.latest[spec.ID]
	if !ok {
		return r
	}
	r.loading = true
	w.sys.p.Clients[w.name].GetAsync(ckptID(spec.ID, step), func(raw []byte, err error) {
		var st jobState
		if err == nil && json.Unmarshal(raw, &st) == nil && st.ID == spec.ID {
			r.jobState = st
		}
		r.loading = false
	})
	return r
}

// checkpoint encodes and distributes the state from this node's store
// client; once the write commits it becomes the job's latest checkpoint and
// the version it supersedes is pruned. A checkpoint that comes due while the
// previous write is still in flight is skipped.
func (w *worker) checkpoint(r *jobRun) {
	if r.saving {
		return
	}
	raw, err := json.Marshal(r.jobState)
	if err != nil {
		return
	}
	r.saving = true
	job, step, cl := r.ID, r.Step, w.sys.p.Clients[w.name]
	cl.PutAsync(ckptID(job, step), raw, func(_ int, err error) {
		r.saving = false
		if w.down() && err == nil {
			// Committed after its writer crashed: the job may be done, so
			// nobody rewrites it, and its pruning must land even if the
			// writer never returns. (A failed write's delete queues behind
			// its data on the writer's frozen endpoint, landing after it.)
			live := w.sys.p.Membership.Alive()
			if len(live) == 0 {
				return
			}
			cl = w.sys.p.Clients[live[0]]
		}
		prev, had := w.sys.latest[job]
		if err == nil && (!had || step > prev) {
			w.sys.latest[job] = step
			if had {
				cl.DeleteAsync(ckptID(job, prev), func(error) {})
			}
			return
		}
		// Not the new latest: the write failed (fewer than k nodes reachable:
		// keep computing, retry at the next interval) or landed behind a newer
		// version (written before a rollback, or after a restart from step 0).
		// Its shards are garbage — unless it rewrote the latest itself.
		if !had || step != prev {
			cl.DeleteAsync(ckptID(job, step), func(error) {})
		}
	})
}

// finish reports completion to the leader (and records locally).
func (w *worker) finish(job string, acc uint64) {
	w.done[job] = acc
	delete(w.running, job)
	if leader := w.sys.p.Leader(w.name); leader != w.name {
		w.send(ctrlMsg{Done: &doneMsg{Job: job, Acc: acc}}, leader)
	}
}
