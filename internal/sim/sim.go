// Package sim is a deterministic discrete-event simulator used to drive the
// RAIN protocol engines (link-state monitoring, RUDP, group membership,
// the applications) through reproducible fault schedules.
//
// The paper's testbed was ten workstations with two Myrinet interfaces each;
// pulling cables and powering off boxes were the fault injectors. Here the
// same protocol code runs over a simulated network whose links can be cut,
// healed, delayed, and made lossy at scripted virtual times, so every
// experiment test in DESIGN.md's per-experiment index is exactly repeatable
// from a seed.
//
// The simulator is intentionally single-threaded: events execute one at a
// time in (time, sequence) order, which makes protocol interleavings
// deterministic. A deployed node runs the same engines and drivers on a
// Scheduler paced by the wall clock (internal/rt) — the engines themselves
// never import sim or time.
package sim

import (
	"container/heap"
	"math/rand"
	"time"
)

// Time is virtual simulation time in nanoseconds since the start of the run.
type Time int64

// Duration converts a standard library duration to a simulator duration.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// event is a scheduled callback. Events are recycled through the
// scheduler's freelist once popped; Timer handles guard against recycled
// slots by remembering the seq they were issued for.
type event struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Scheduler owns virtual time and the pending event queue.
type Scheduler struct {
	now  Time
	pq   eventHeap
	seq  uint64
	rng  *rand.Rand
	free []*event // recycled events, so steady-state scheduling is alloc-free
}

// New returns a scheduler whose random source is seeded deterministically.
func New(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source. All randomness
// in a simulation (jitter, loss coins, workload generation) should come from
// here so a seed reproduces the run bit-for-bit.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Timer is a handle to a scheduled callback that can be stopped. The zero
// value is a valid no-op handle.
type Timer struct {
	e   *event
	seq uint64
}

// Stop cancels the timer; the callback will not run. The callback is
// dropped at once, so whatever it captured is collectable now rather than
// at its due time (the event itself stays queued until then). Stopping an
// already fired or stopped timer is a no-op (the event slot may have been
// recycled for a later scheduling, which the seq check detects).
func (t Timer) Stop() {
	if t.e != nil && t.e.seq == t.seq {
		t.e.cancelled = true
		t.e.fn = nil
	}
}

// Armed reports whether the timer is still scheduled: not yet fired and
// not stopped. The zero Timer is never armed.
func (t Timer) Armed() bool {
	return t.e != nil && t.e.seq == t.seq && !t.e.cancelled && t.e.fn != nil
}

// At schedules fn at absolute virtual time at (clamped to now if in the
// past) and returns a cancellable handle.
func (s *Scheduler) At(at Time, fn func()) Timer {
	if at < s.now {
		at = s.now
	}
	s.seq++
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
		*e = event{at: at, seq: s.seq, fn: fn}
	} else {
		e = &event{at: at, seq: s.seq, fn: fn}
	}
	heap.Push(&s.pq, e)
	return Timer{e: e, seq: s.seq}
}

// After schedules fn after duration d of virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	return s.At(s.now.Add(d), fn)
}

// recycle returns a popped event to the freelist, dropping the callback
// reference so it can be collected.
func (s *Scheduler) recycle(e *event) {
	e.fn = nil
	if len(s.free) < 1024 {
		s.free = append(s.free, e)
	}
}

// Step executes the next pending event, advancing virtual time. It returns
// false when no events remain.
func (s *Scheduler) Step() bool {
	for len(s.pq) > 0 {
		e := heap.Pop(&s.pq).(*event)
		if e.cancelled {
			s.recycle(e)
			continue
		}
		s.now = e.at
		fn := e.fn
		s.recycle(e) // before fn: fn may schedule and reuse this slot
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains. Protocols with periodic
// timers never drain; use RunUntil or RunFor for those.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time <= deadline, leaving later events
// queued, and advances the clock to the deadline. A cancelled event due by
// the deadline is discarded, never taken as leave to Step past it into a
// later live one: on a wall-clock loop that ran future timers early and
// pushed the clock ahead of the wall, delaying everything scheduled "now".
func (s *Scheduler) RunUntil(deadline Time) {
	for {
		if at, ok := s.NextAt(); !ok || at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor executes events for a span of virtual time from now.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// Pending reports the number of queued (possibly cancelled) events,
// useful for leak checks in tests.
func (s *Scheduler) Pending() int { return len(s.pq) }

// NextAt peeks at the time of the earliest live event without running it.
// Cancelled events at the head are discarded on the way. Real-time drivers
// use this to sleep exactly until the next protocol deadline.
func (s *Scheduler) NextAt() (Time, bool) {
	for len(s.pq) > 0 {
		if !s.pq[0].cancelled {
			return s.pq[0].at, true
		}
		s.recycle(heap.Pop(&s.pq).(*event))
	}
	return 0, false
}
