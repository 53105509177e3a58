package rdd

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// TaskContext is handed to every user function that runs inside a task. It
// exposes the simulated process and machine the task runs on, cost-charging
// helpers, and the commit point used by failure injection.
type TaskContext struct {
	Ctx     *Context
	P       *simnet.Proc
	Node    *simnet.Node
	Part    int
	Attempt int

	doomed bool
	rng    *linalg.RNG
}

// taskFailed is the sentinel panic used to abort a doomed task attempt. It is
// always recovered by the scheduler before it can escape the task process.
type taskFailed struct{}

// Charge blocks the task for work abstract units of computation on one of
// its machine's cores. A task whose machine has crashed aborts instead — the
// scheduler will rerun it on a survivor.
func (tc *TaskContext) Charge(work float64) {
	if !tc.Node.Up() {
		panic(taskFailed{})
	}
	tc.Node.Compute(tc.P, work)
}

// Commit marks the point after which the task performs externally visible
// side effects (pushing gradients to parameter servers, emitting results).
// Under failure injection a doomed attempt aborts here, so a task's side
// effects happen exactly once even when attempts are retried — mirroring the
// paper's observation that restart is safe because "the push operator is the
// last operation for a task". A task whose machine crashed under it also
// aborts here, before any effect escapes the dead machine.
func (tc *TaskContext) Commit() {
	if tc.doomed {
		tc.doomed = false
		panic(taskFailed{})
	}
	if !tc.Node.Up() {
		panic(taskFailed{})
	}
}

// RNG returns a generator seeded by (partition, attempt) so retried attempts
// are independent draws but reruns of the whole job are identical.
func (tc *TaskContext) RNG() *linalg.RNG {
	if tc.rng == nil {
		tc.rng = linalg.NewRNG(uint64(tc.Part)*7919 + uint64(tc.Attempt) + 1)
	}
	return tc.rng
}

// statusBytes is the size of the per-task completion message sent back to
// the driver (Spark's task status + metrics envelope).
const statusBytes = 1024

// runTasks launches one task per partition of r on its owner executor, runs
// body inside each, applies failure injection, and blocks the calling driver
// process until every task has succeeded (a global barrier, like the end of
// a Spark stage). Results are delivered through the result callback, invoked
// in partition order after the barrier.
func runTasks[T, U any](p *simnet.Proc, r *RDD[T], resultBytes func(U) float64, body func(tc *TaskContext, part int, rows []T) U) []U {
	ctx := r.ctx
	out := make([]U, r.parts)
	t := p.Sim().Tracer()
	var stage obs.Span
	if t != nil {
		stage = t.Begin(ctx.Cl.Driver.ID, ctx.Cl.Driver.Name, obs.KStage,
			"stage rdd-"+strconv.Itoa(r.id), p.TraceParent(),
			obs.KV{K: "parts", V: strconv.Itoa(r.parts)})
		defer stage.End()
	}
	g := p.Sim().NewGroup()
	for part := 0; part < r.parts; part++ {
		part := part
		g.Go(fmt.Sprintf("task-%d/%d", r.id, part), func(tp *simnet.Proc) {
			tp.Sleep(ctx.Cl.Cost.TaskLaunchSec)
			var node *simnet.Node
			for attempt := 1; ; attempt++ {
				if attempt > ctx.MaxAttempts {
					panic(fmt.Sprintf("rdd: task %d of dataset %d failed %d attempts", part, r.id, ctx.MaxAttempts))
				}
				// Resolve the owner per attempt: a crashed executor's
				// partitions reschedule onto survivors.
				node = ctx.Owner(part)
				ctx.TasksLaunched++
				tc := &TaskContext{Ctx: ctx, P: tp, Node: node, Part: part, Attempt: attempt}
				tc.doomed = ctx.doomedDraw(r.id, part, attempt)
				// One span per attempt on the owning executor's lane; while the
				// body runs it is the process's trace context, so PS traffic
				// nests under its task.
				var ts obs.Span
				if t != nil {
					ts = t.Begin(node.ID, node.Name, obs.KTask,
						"task "+strconv.Itoa(part), stage,
						obs.KV{K: "attempt", V: strconv.Itoa(attempt)})
				}
				prevSpan := tp.SetTraceParent(ts)
				res, ok := runAttempt(tc, part, r, body)
				tp.SetTraceParent(prevSpan)
				if ok {
					ts.End()
					out[part] = res
					break
				}
				if !node.Up() {
					ctx.ExecutorFailures++
					ts.End(obs.KV{K: "err", V: "executor down"})
				} else {
					ctx.TaskFailures++
					ts.End(obs.KV{K: "err", V: "task failed"})
				}
				t.Instant(node.ID, node.Name, obs.KTaskRetry,
					"retry task "+strconv.Itoa(part))
				// Restart latency: the driver notices the failure and
				// reschedules the task.
				tp.Sleep(ctx.Cl.Cost.TaskLaunchSec)
			}
			// Report completion to the driver. If the machine died in the
			// instant after the task committed, the status ride is skipped
			// (the driver's completion bookkeeping is metadata; re-running a
			// committed task would double its side effects).
			if node.Up() {
				node.Send(tp, ctx.Cl.Driver, statusBytes)
				if resultBytes != nil {
					node.Send(tp, ctx.Cl.Driver, resultBytes(out[part]))
				}
			}
		})
	}
	g.Wait(p)
	return out
}

// runAttempt executes one attempt of a task body, converting the taskFailed
// sentinel — and a node-down error a task body panics with (through Must or
// Check) when its machine crashes under it — into a clean retry, while
// letting real panics (and the simulation's shutdown unwind) propagate.
func runAttempt[T, U any](tc *TaskContext, part int, r *RDD[T], body func(tc *TaskContext, part int, rows []T) U) (res U, ok bool) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, failed := rec.(taskFailed); failed {
				ok = false
				return
			}
			if err, isErr := rec.(error); isErr && errors.Is(err, simnet.ErrNodeDown) && !tc.Node.Up() {
				ok = false
				return
			}
			panic(rec)
		}
	}()
	rows := r.materialize(tc, part)
	return body(tc, part, rows), true
}

// Must returns v, panicking with err unchanged when it is non-nil. It is how
// code with no error return — task bodies, tests, small helpers — calls the
// ps and dcv Try* operators. Inside a task the panic meets runAttempt: an
// error wrapping simnet.ErrNodeDown on a crashed executor becomes a task
// retry, and anything else (ps.ErrServerDown after exhausted retries)
// propagates. Driver code that can return an error should return it instead.
func Must[T any](v T, err error) T {
	Check(err)
	return v
}

// Check is Must for operators that return only an error.
func Check(err error) {
	if err != nil {
		panic(err)
	}
}

// ForeachPartition runs f over every partition for its side effects (such as
// pushing updates to parameter servers) and barriers until all tasks finish —
// the `.foreach()` at the end of the paper's Figure 3 training loop.
func ForeachPartition[T any](p *simnet.Proc, r *RDD[T], f func(tc *TaskContext, part int, rows []T)) {
	runTasks(p, r, nil, func(tc *TaskContext, part int, rows []T) struct{} {
		f(tc, part, rows)
		tc.Commit()
		return struct{}{}
	})
}

// RunPartitions runs f over every partition and returns its per-partition
// results at the driver (each costing resultBytes on the wire). Unlike
// Aggregate it gives f the whole partition at once, so f can batch
// parameter-server traffic — the shape of every PS2 training stage: pull
// model, compute, Commit, push update, return a small summary. f must call
// tc.Commit() before its side effects for failure injection to stay
// exactly-once.
func RunPartitions[T, U any](p *simnet.Proc, r *RDD[T], resultBytes float64, f func(tc *TaskContext, part int, rows []T) U) []U {
	return runTasks(p, r, func(U) float64 { return resultBytes }, f)
}

// AggSpec describes a driver-side aggregation: how partitions fold into a
// partial value, how partials combine, and what they cost on the wire and on
// the driver CPU. This is the communication pattern behind MLlib's gradient
// aggregation step — every partial travels to the single driver machine.
type AggSpec[T, U any] struct {
	Zero     func() U
	Seq      func(tc *TaskContext, acc U, row T) U
	Comb     func(a, b U) U
	Bytes    func(U) float64 // wire size of one partial
	CombWork float64         // driver work units per combine
}

// Aggregate folds the dataset with spec, sending every partition's partial to
// the driver where they are combined serially. Returns the combined value.
func Aggregate[T, U any](p *simnet.Proc, r *RDD[T], spec AggSpec[T, U]) U {
	partials := runTasks(p, r, spec.Bytes, func(tc *TaskContext, part int, rows []T) U {
		acc := spec.Zero()
		for _, row := range rows {
			acc = spec.Seq(tc, acc, row)
		}
		tc.Commit()
		return acc
	})
	acc := spec.Zero()
	driver := r.ctx.Cl.Driver
	for _, partial := range partials {
		driver.Compute(p, spec.CombWork)
		acc = spec.Comb(acc, partial)
	}
	return acc
}

// Collect materializes the whole dataset at the driver. bytesPerRow sets the
// wire size of each row; the rows of every partition travel to the driver's
// ingress NIC.
func Collect[T any](p *simnet.Proc, r *RDD[T], bytesPerRow float64) []T {
	parts := runTasks(p, r, func(rows []T) float64 {
		return float64(len(rows)) * bytesPerRow
	}, func(tc *TaskContext, part int, rows []T) []T {
		tc.Commit()
		return rows
	})
	var out []T
	for _, rows := range parts {
		out = append(out, rows...)
	}
	return out
}

// Count returns the number of rows in the dataset.
func Count[T any](p *simnet.Proc, r *RDD[T]) int {
	counts := runTasks(p, r, func(int) float64 { return 8 }, func(tc *TaskContext, part int, rows []T) int {
		tc.Commit()
		return len(rows)
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// SumFloat sums a float-valued dataset, a convenience action used by the
// DeepWalk loss computation in the paper's Figure 6 (`.sum()`).
func SumFloat(p *simnet.Proc, r *RDD[float64]) float64 {
	sums := runTasks(p, r, func(float64) float64 { return 8 }, func(tc *TaskContext, part int, rows []float64) float64 {
		var s float64
		for _, v := range rows {
			s += v
		}
		tc.Commit()
		return s
	})
	var total float64
	for _, s := range sums {
		total += s
	}
	return total
}

// Broadcast models the driver shipping `bytes` of read-only state (e.g. the
// current model in MLlib) to every executor. The transfers serialize on the
// driver's egress NIC — the first half of MLlib's single-node bottleneck.
func (c *Context) Broadcast(p *simnet.Proc, bytes float64) {
	g := p.Sim().NewGroup()
	for _, exec := range c.Cl.Executors {
		exec := exec
		g.Go("broadcast", func(bp *simnet.Proc) {
			c.Cl.Driver.Send(bp, exec, bytes)
		})
	}
	g.Wait(p)
}
