// Package rt drives the repo's single-threaded virtual-time engines
// (rudp, dstore, membership) against the wall clock. Every
// engine in this codebase is a pure state machine on a *sim.Scheduler:
// deterministic under simulation, and — the point of this package —
// runnable unchanged over real sockets by advancing that scheduler to
// wall-elapsed time from exactly one goroutine.
//
// A Loop owns a scheduler whose virtual clock tracks nanoseconds since
// Start. The run goroutine alternates between firing due timers
// (RunUntil wall-now) and executing closures posted from other
// goroutines (socket readers, HTTP handlers). Everything that touches
// engine state must run on the loop via Post or Call; this is the same
// ownership discipline the simulator gives for free, enforced here by
// funneling instead of locking.
package rt

import (
	"sync"
	"sync/atomic"
	"time"

	"rain/internal/sim"
)

// Loop is a wall-clock event loop around a sim.Scheduler.
type Loop struct {
	s     *sim.Scheduler
	start time.Time

	posts   chan func()
	stopped atomic.Bool
	done    chan struct{}
	wg      sync.WaitGroup
}

// New builds a loop (not yet running) seeded for the scheduler's RNG.
func New(seed int64) *Loop {
	return &Loop{
		s:     sim.New(seed),
		posts: make(chan func(), 1024),
		done:  make(chan struct{}),
	}
}

// Scheduler exposes the owned scheduler. Touch it only from loop
// callbacks (closures passed to Post/Call or timers it fires).
func (l *Loop) Scheduler() *sim.Scheduler { return l.s }

// Start launches the run goroutine. Call once.
func (l *Loop) Start() {
	l.start = time.Now()
	l.wg.Add(1)
	go l.run()
}

// Post schedules fn to run on the loop goroutine. It never blocks the
// loop itself; callers may block briefly if the post queue is full.
// Posting to a stopped loop drops fn — shutdown races resolve as "the
// event never happened", which every engine here already tolerates.
func (l *Loop) Post(fn func()) {
	if l.stopped.Load() {
		return
	}
	select {
	case l.posts <- fn:
	case <-l.done:
	}
}

// Call runs fn on the loop goroutine and waits for it to finish. It
// returns false (without running fn) if the loop is stopped. Never call
// it from the loop goroutine — that would self-deadlock; loop code can
// just call fn directly.
func (l *Loop) Call(fn func()) bool {
	ch := make(chan struct{})
	l.Post(func() {
		fn()
		close(ch)
	})
	select {
	case <-ch:
		return true
	case <-l.done:
		// The loop drains remaining posts on exit, so fn may still have
		// run; report best-effort failure only if it definitely didn't.
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
}

// Stop halts the run goroutine and waits for it to exit. Posted
// closures still queued are dropped. Idempotent.
func (l *Loop) Stop() {
	if l.stopped.Swap(true) {
		l.wg.Wait()
		return
	}
	close(l.done)
	l.wg.Wait()
}

// now is wall time as the scheduler's clock: ns since Start.
func (l *Loop) now() sim.Time { return sim.Time(time.Since(l.start)) }

const idleWait = 500 * time.Millisecond

func (l *Loop) run() {
	defer l.wg.Done()
	timer := time.NewTimer(idleWait)
	defer timer.Stop()
	for {
		// Fire everything due by wall-now, advancing virtual time.
		l.s.RunUntil(l.now())

		// Drain posted work without blocking; each post may schedule
		// new timers, so re-check deadlines after.
		for {
			select {
			case fn := <-l.posts:
				fn()
				continue
			default:
			}
			break
		}
		if due, ok := l.s.NextAt(); ok && due <= l.now() {
			continue // posted work armed an already-due timer
		}

		// Sleep until the next protocol deadline, a post, or shutdown.
		wait := idleWait
		if due, ok := l.s.NextAt(); ok {
			if d := time.Duration(due - l.now()); d < wait {
				wait = d
			}
		}
		if wait < 0 {
			wait = 0
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case fn := <-l.posts:
			l.s.RunUntil(l.now())
			fn()
		case <-timer.C:
		case <-l.done:
			return
		}
	}
}
