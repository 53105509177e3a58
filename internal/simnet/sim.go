// Package simnet provides a deterministic discrete-event simulation kernel
// with virtual time, cooperative processes, FIFO resources, signals,
// mailboxes, and a simple store-and-forward network model.
//
// The kernel is the substrate for the PS2 reproduction: the mini-Spark engine
// (internal/rdd) and the parameter server (internal/ps) run their drivers,
// executors and servers as simnet processes, so communication costs (driver
// in-cast, parallel server service, AllReduce rings) fall out of the queueing
// behaviour of simulated NICs rather than being hard-coded formulas.
//
// Determinism: events are ordered by (time, sequence number); processes only
// run one at a time and hand control to each other explicitly, so a
// simulation with seeded randomness produces bit-identical results on every
// run.
package simnet

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Time is virtual time in seconds since the start of the simulation.
type Time = float64

// errStopped is panicked inside blocked processes to unwind them when the
// simulation shuts down. It never escapes the kernel.
type stopUnwind struct{}

// Sim is a discrete-event simulation. The zero value is not usable; create
// one with New.
type Sim struct {
	now       Time
	events    eventHeap
	seq       uint64
	deadline  Time          // RunUntil's horizon: later events are not delivered
	idle      chan struct{} // signalled when control returns to RunUntil
	live      []*Proc       // processes that have started and not yet finished
	stopped   bool
	processed uint64 // events delivered so far (observability)
	failure   any    // first panic raised by a user process, re-raised by Run
	chaos     *Chaos // optional link-fault injection, see fault.go

	tracer *obs.Tracer // optional span tracer, see trace.go
}

// New creates an empty simulation at virtual time zero.
func New() *Sim {
	return &Sim{idle: make(chan struct{})}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() Time { return s.now }

// EventsProcessed returns how many events the scheduler has delivered — a
// cheap sanity metric for how much simulated activity a run generated.
func (s *Sim) EventsProcessed() uint64 { return s.processed }

type event struct {
	t   Time
	seq uint64
	p   *Proc
}

// before is the delivery order: by time, ties broken by scheduling sequence.
func (e event) before(o event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events stored by value, so scheduling
// allocates nothing once the backing array has grown to the run's peak.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the *Proc reference
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].before(q[c]) {
				c++
			}
			if !q[c].before(last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// schedule enqueues a wake-up for p at time t. A stopped simulation
// delivers nothing more, so it drops the wake-up.
func (s *Sim) schedule(t Time, p *Proc) {
	if s.stopped {
		return
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.events.push(event{t: t, seq: s.seq, p: p})
}

// dispatch pops the next deliverable event, advances the clock to it and
// returns the process to wake. It returns nil when the run is over: no
// events remain, the next one lies past the deadline, or the simulation has
// stopped. Only the process holding control (or RunUntil, before the first
// wake) calls it, so the heap needs no lock.
func (s *Sim) dispatch() *Proc {
	for len(s.events) > 0 && !s.stopped {
		ev := s.events.pop()
		if ev.p.dead {
			continue
		}
		if ev.t > s.deadline {
			break
		}
		s.now = ev.t
		s.processed++
		return ev.p
	}
	return nil
}

// handoff passes control to the next process due, or back to RunUntil when
// the run is over. The caller must block (or exit) right after.
func (s *Sim) handoff(next *Proc) {
	if next == nil {
		s.idle <- struct{}{}
		return
	}
	next.wake <- wakeMsg{}
}

// Proc is a simulated process. All blocking operations (Sleep, resource
// acquisition, mailbox receive, …) must be called from the process's own
// goroutine, i.e. from inside the function passed to Spawn.
type Proc struct {
	sim  *Sim
	name string
	wake chan wakeMsg
	done *Signal
	dead bool
	span obs.Span // current trace context, see trace.go
}

type wakeMsg struct{ stop bool }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Name returns the debug name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Done returns a signal fired when the process function returns.
func (p *Proc) Done() *Signal { return p.done }

// Spawn registers a new process that starts at the current virtual time,
// after the currently running process (if any) next yields. The returned
// Proc can be waited on via Done.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, wake: make(chan wakeMsg), done: s.NewSignal()}
	if s.stopped {
		// The simulation is unwinding: return an inert process that never
		// runs. Its Done signal never fires, but nothing can wait on it
		// anymore either.
		p.dead = true
		return p
	}
	s.live = append(s.live, p)
	go func() {
		if msg := <-p.wake; msg.stop {
			s.procExit(p)
			return
		}
		defer func() {
			if r := recover(); r != nil {
				if _, unwind := r.(stopUnwind); !unwind && s.failure == nil {
					s.failure = fmt.Sprintf("simnet: process %q panicked: %v", name, r)
					s.stopped = true
				}
			}
			p.done.fire()
			s.procExit(p)
		}()
		fn(p)
	}()
	s.schedule(s.now, p)
	return p
}

// procExit removes p from the live set and passes control on: to the next
// process due while the simulation runs, or back to stop while it unwinds.
func (s *Sim) procExit(p *Proc) {
	p.dead = true
	for i, q := range s.live {
		if q == p {
			s.live = append(s.live[:i], s.live[i+1:]...)
			break
		}
	}
	if s.stopped {
		s.idle <- struct{}{}
		return
	}
	s.handoff(s.dispatch())
}

// yield delivers the next event itself and blocks until the process is woken
// again. When that event is the process's own wake-up it simply returns,
// with no goroutine switch. It must only be called after arranging a future
// wake-up (a scheduled event or membership in some waiter list).
func (p *Proc) yield() {
	next := p.sim.dispatch()
	if next == p {
		return
	}
	p.sim.handoff(next)
	if msg := <-p.wake; msg.stop {
		panic(stopUnwind{})
	}
}

// checkStopped aborts the calling process if the simulation is shutting down.
func (p *Proc) checkStopped() {
	if p.sim.stopped {
		panic(stopUnwind{})
	}
}

// Sleep advances the process by d seconds of virtual time. Negative or zero
// durations still yield control once, preserving round-robin fairness at a
// single instant.
func (p *Proc) Sleep(d Time) {
	p.checkStopped()
	if d < 0 || math.IsNaN(d) {
		d = 0
	}
	p.sim.schedule(p.sim.now+d, p)
	p.yield()
}

// Run executes the simulation until no scheduled events remain, then unwinds
// any still-blocked processes. It panics if any process panicked.
func (s *Sim) Run() {
	s.RunUntil(math.Inf(1))
}

// RunUntil executes events with time <= deadline, then stops the simulation:
// remaining events are discarded and all live processes are unwound. The
// simulation cannot be resumed afterwards.
//
// RunUntil only wakes the first process. From then on each process that
// blocks or exits delivers the next event itself, and control comes back
// here once the run is over.
func (s *Sim) RunUntil(deadline Time) {
	s.deadline = deadline
	if next := s.dispatch(); next != nil {
		next.wake <- wakeMsg{}
		<-s.idle
	}
	s.stop()
	if s.failure != nil {
		panic(s.failure)
	}
}

// stop unwinds all remaining live processes.
func (s *Sim) stop() {
	s.stopped = true
	for len(s.live) > 0 {
		p := s.live[0]
		p.wake <- wakeMsg{stop: true}
		<-s.idle
	}
	s.events = nil
}
