package core

import (
	"errors"
	"time"

	"rain/internal/dstore"
	"rain/internal/membership"
	"rain/internal/sim"
	"rain/internal/telemetry"
)

// SelfHealStats counts what one node's self-heal controller has done on its
// own sensors; a pass run for a caller's request reports to that caller.
type SelfHealStats struct {
	ViewChanges int // membership view changes observed
	Passes      int // rebalance passes this node started as leader
	Completed   int // passes that ran to the end
	Yields      int // passes abandoned on leadership loss, starvation or crash
	Failures    int // passes that died on a store error
	Moves       dstore.RebalanceStats
}

// selfHealer is the per-node autonomic control loop, the same one on every
// node of a simulated Platform and on a deployed RealNode: the membership
// ring is the sensor, and its view names the actuator — the leader is the
// smallest name in the view (membership.Node.Leader), so leadership moves
// only when the view does. Every node reshapes its own client's placement
// universe on view changes; only the leader drives a rebalance, debounced so
// a flapping link costs one pass per stable view, not one per flap. A
// deposed leader's in-flight pass yields at the next task boundary via the
// client's rebalance gate, and the new leader re-drives from scratch —
// reconciliation is delta-exact, so completed moves are no-ops.
//
// Known holes are the other sensor. A holder that quarantines a corrupt
// shard pokes every controller in its view (stack.go), and a caller's
// Rebalance or ReplaceNode is a request to the leader's controller
// (request). Either marks a repair pending, which opens the gate down to k
// nodes, so the pass re-creates what is missing even with a node down. The
// controller is the only driver of a pass: its running flag covers
// requested passes too, so two passes never share a client.
type selfHealer struct {
	s        *sim.Scheduler
	client   *dstore.Client
	mbr      *membership.Node
	stopped  func() bool // nil where the node cannot be powered off under its own loop
	debounce time.Duration

	timer   sim.Timer
	running bool   // a pass this node drives is in flight
	rearm   bool   // view moved, or a poke or request came, during that pass
	repair  bool   // a poke or request no completed pass has followed yet
	leader  string // the last view's smallest name, for leader_transitions

	waiting []func(dstore.RebalanceStats, error) // requests the next pass answers
	stats   SelfHealStats

	viewChanges       *telemetry.Counter
	leaderTransitions *telemetry.Counter
	yields            *telemetry.Counter
	corruptionPokes   *telemetry.Counter
}

func newSelfHealer(s *sim.Scheduler, client *dstore.Client, mbr *membership.Node,
	stopped func() bool, debounce time.Duration, scope *telemetry.Scope) *selfHealer {

	h := &selfHealer{
		s:                 s,
		client:            client,
		mbr:               mbr,
		stopped:           stopped,
		leader:            mbr.Leader(),
		debounce:          debounce,
		viewChanges:       scope.Counter("selfheal.view_changes", "membership view changes seen by the controller"),
		leaderTransitions: scope.Counter("selfheal.leader_transitions", "leadership handovers seen by the controller"),
		yields:            scope.Counter("selfheal.yields", "rebalance passes abandoned on leadership loss"),
		corruptionPokes:   scope.Counter("selfheal.corruption_pokes", "detected-corruption pokes this controller received"),
	}
	mbr.OnMembershipChange(h.onView)
	client.SetRebalanceGate(h.gate)
	return h
}

// onView tracks the ring: the local client's placement universe follows the
// consensus view (never shrinking below code width — losing quorum must not
// wedge reads that could still succeed on the old universe), and the
// debounce re-arms so the pass fires only once the view holds still. A new
// leader is always a view change, so this also arms a freshly promoted
// leader, which cannot know whether its predecessor's pass finished and
// re-drives; delta-exact reconciliation makes the overlap idempotent.
func (h *selfHealer) onView(view []string) {
	h.stats.ViewChanges++
	h.viewChanges.Inc()
	if leader := h.mbr.Leader(); leader != h.leader {
		h.leader = leader
		h.leaderTransitions.Inc()
	}
	if len(view) >= h.client.Code().N() {
		h.client.SetNodes(view)
	}
	h.arm()
}

// arm (re)starts the debounce clock, or defers to the running pass's done
// callback, which re-arms when the ring moved under it.
func (h *selfHealer) arm() {
	if h.running {
		h.rearm = true
		return
	}
	h.timer.Stop()
	h.timer = h.s.After(h.debounce, h.fire)
}

// poke asks for a pass because some holder quarantined a corrupt shard. It
// starts the debounce only when neither a timer nor a pass is pending, and
// never postpones a pending timer, so a stream of corruption cannot starve
// the pass; a running pass re-arms when it ends. Every node's controller is
// poked, and fire's gate lets only the leader's poke become a pass. The
// repair stays pending until a pass here completes after it, so a node that
// takes over the lead still repairs (at worst one pass finds nothing).
func (h *selfHealer) poke() {
	h.corruptionPokes.Inc()
	h.repair = true
	if h.running || !h.timer.Armed() {
		h.arm()
	}
}

// request runs a caller's reconciliation pass as this controller's next one:
// at once when idle (the pass a pending debounce would have started is the
// same pass), or as soon as the running one ends. done receives that pass's
// stats and error; with fewer than k nodes in the view the error is
// dstore.ErrQuorum. A requested pass reports to its callers, not to
// SelfHealStats.
func (h *selfHealer) request(done func(dstore.RebalanceStats, error)) {
	h.repair = true
	h.waiting = append(h.waiting, done)
	if h.running {
		h.rearm = true
		return
	}
	h.timer.Stop()
	h.fire()
}

// gate is the client's per-task rebalance gate: a pass keeps driving moves
// only while this node is up, leads its view, is not starving, and the view
// can host a full placement — or, while a repair is pending, can still
// decode (k nodes). A starving node's view is unconfirmed — a revived or
// joining node starves until the token reaches it again — so its stale ring
// cannot make it lead. Installed as the client's gate at construction, it
// also yields a pass driven on this client from outside the controller on
// any node but the leader — the leader owns reconciliation, full stop.
func (h *selfHealer) gate() bool {
	if h.stopped != nil && h.stopped() || h.mbr.Leader() != h.client.Node() || h.mbr.Starving() {
		return false
	}
	code, view := h.client.Code(), len(h.mbr.View())
	return view >= code.N() || h.repair && view >= code.K()
}

func (h *selfHealer) fire() {
	if h.running {
		return
	}
	answer := h.waiting
	h.waiting = nil
	if !h.gate() {
		// Not the leader, or not serviceable: someone else's job. A leader
		// with a repair pending retries: its gate can reopen without a view
		// change (it stops starving, or its endpoint restarts).
		if h.repair && h.mbr.Leader() == h.client.Node() {
			h.arm()
		}
		err := dstore.ErrYielded
		if len(h.mbr.View()) < h.client.Code().K() {
			err = dstore.ErrQuorum
		}
		for _, done := range answer {
			done(dstore.RebalanceStats{}, err)
		}
		return
	}
	h.running = true
	h.rearm = false
	tally := &h.stats
	if len(answer) > 0 {
		tally = new(SelfHealStats) // a requested pass reports to its callers
	}
	tally.Passes++
	h.client.RebalanceAsync(nil, func(stats dstore.RebalanceStats, err error) {
		h.running = false
		tally.Moves.Objects += stats.Objects
		tally.Moves.Moved += stats.Moved
		tally.Moves.Rebuilt += stats.Rebuilt
		tally.Moves.Deleted += stats.Deleted
		again := h.rearm
		switch {
		case err == nil:
			tally.Completed++
			if !again {
				h.repair = false // no poke or request came after the pass started
			}
		case errors.Is(err, dstore.ErrYielded):
			tally.Yields++
			h.yields.Inc()
			// Deposed mid-pass: the new leader drives. If leadership comes
			// back, that is a view change, and onView re-arms us.
			again = again || h.repair // a pending repair retries, as in fire
		default:
			tally.Failures++
			again = true // transient store errors: retry after a debounce
		}
		h.rearm = false
		if len(h.waiting) > 0 {
			h.fire() // a request came during the pass: it runs next, undebounced
		} else if again {
			h.arm()
		}
		for _, done := range answer {
			done(stats, err)
		}
	})
}
