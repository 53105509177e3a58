package ps

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// This file implements the PS-client: the executor-side stub that routes row
// accesses and server-side invocations to the right servers. Since the whole
// system lives in one simulated process space, "the client" is the set of
// methods on Matrix that take the calling process and its machine; the
// routing table is the matrix's partitioner, fetched from the master at
// matrix creation.
//
// Every operator fans out one CallShard per shard (see rpc.go), so all of
// them transparently ride out message loss and server crashes: a request
// that races a crash blocks in retry/backoff until the failure detector has
// swapped in a replacement, then lands on the restored shard.
//
// Every operator has one form, TryX, which returns a typed error (wrapping
// ErrServerDown or simnet.ErrNodeDown) when a shard stays unreachable past
// the retry budget. Callers with no error return of their own wrap it in
// rdd.Must or rdd.Check, which panic with the error unchanged at the task
// boundary. Argument-validation failures (bad row, wrong dimension) are
// programming errors and panic, with one exception: a malformed index list
// (out of range or not strictly increasing) is data, not code — sparse
// indices typically come straight from parsed instances — so the index
// operators validate it up front and return ErrBadIndices (wrapped) instead
// of panicking deep inside a server handler.

// ErrBadIndices is returned (wrapped) by the sparse index operators when the
// index list is out of range or not strictly increasing.
var ErrBadIndices = errors.New("ps: invalid index list")

// validateIndices checks that indices are strictly increasing and within
// [0, dim), the contract of every sparse index operator.
func validateIndices(indices []int, dim int) error {
	prev := -1
	for i, col := range indices {
		if col < 0 || col >= dim {
			return fmt.Errorf("ps: index %d at position %d out of range [0,%d): %w", col, i, dim, ErrBadIndices)
		}
		if col <= prev {
			return fmt.Errorf("ps: indices not strictly increasing: %d at position %d follows %d: %w", col, i, prev, ErrBadIndices)
		}
		prev = col
	}
	return nil
}

// TryPullRow fetches one full row from all servers in parallel and assembles it
// at the caller. Every server ships its [lo,hi) stretch of the row, so the
// transfer parallelizes over servers — the "multiple servers replace the
// single-node driver" effect.
func (mat *Matrix) TryPullRow(p *simnet.Proc, from *simnet.Node, row int) ([]float64, error) {
	out := make([]float64, mat.Dim)
	if err := mat.TryPullRowInto(p, from, row, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TryPullRowInto is TryPullRow assembling into caller-owned out (len must be
// Dim). Every element of out is overwritten on success — the shard views
// partition the column space — so steady-state pulls reuse one buffer
// without clearing it.
func (mat *Matrix) TryPullRowInto(p *simnet.Proc, from *simnet.Node, row int, out []float64) error {
	mat.checkRow(row)
	if len(out) != mat.Dim {
		panic(fmt.Sprintf("ps: PullRowInto buffer has %d values for dim %d", len(out), mat.Dim))
	}
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	errs := make([]error, mat.Part.NumServers())
	g := p.Sim().NewGroup()
	for s := 0; s < mat.Part.NumServers(); s++ {
		s := s
		g.Go("pull", func(cp *simnet.Proc) {
			errs[s] = mat.CallShard(cp, from, CallSpec{
				Name:      "pull",
				Shard:     s,
				ReqBytes:  cost.RequestOverheadB,
				RespBytes: cost.DenseBytes(mat.Part.Width(s)),
				Fn: func(_ *simnet.Proc, sh *Shard) error {
					sh.Scatter(sh.Rows[row], out)
					return nil
				},
			})
		})
	}
	g.Wait(p)
	return firstError(errs)
}

// TryPullRowCompressed fetches a full row but ships only the stored nonzeros of
// each shard as (index, value) pairs — the transfer a sparse server-side
// representation would cost. Used by sparse DCVs.
func (mat *Matrix) TryPullRowCompressed(p *simnet.Proc, from *simnet.Node, row int) ([]float64, error) {
	out := make([]float64, mat.Dim)
	if err := mat.TryPullRowCompressedInto(p, from, row, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TryPullRowCompressedInto is TryPullRowCompressed assembling into
// caller-owned out (len must be Dim; fully overwritten on success).
func (mat *Matrix) TryPullRowCompressedInto(p *simnet.Proc, from *simnet.Node, row int, out []float64) error {
	mat.checkRow(row)
	if len(out) != mat.Dim {
		panic(fmt.Sprintf("ps: PullRowCompressedInto buffer has %d values for dim %d", len(out), mat.Dim))
	}
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	errs := make([]error, mat.Part.NumServers())
	g := p.Sim().NewGroup()
	for s := 0; s < mat.Part.NumServers(); s++ {
		s := s
		g.Go("pull-compressed", func(cp *simnet.Proc) {
			errs[s] = mat.CallShard(cp, from, CallSpec{
				Name:     "pull-compressed",
				Shard:    s,
				ReqBytes: cost.RequestOverheadB,
				Work:     func(w int) float64 { return cost.ElemWork(w) },
				RespBytesFn: func(sh *Shard) float64 {
					return cost.SparseBytes(linalg.NnzDense(sh.Rows[row]))
				},
				Fn: func(_ *simnet.Proc, sh *Shard) error {
					sh.Scatter(sh.Rows[row], out)
					return nil
				},
			})
		})
	}
	g.Wait(p)
	return firstError(errs)
}

// ServerNode returns the machine hosting logical shard s (exported for the
// DCV layer's shuffle path and for tests).
func (mat *Matrix) ServerNode(s int) *simnet.Node { return mat.srv(s).Node }

// ShardOf returns the shard data for logical shard s. It is exported for the
// DCV layer, which implements server-side computation directly against shard
// memory; ordinary clients should use the pull/push operators.
func (mat *Matrix) ShardOf(s int) *Shard { return mat.shardOn(s) }

// TryPullRowIndices fetches only the given (strictly increasing) columns of a
// row — sparse pull, the optimization the paper credits for PS2's advantage
// over Petuum ("PS2 supports sparse communication and only pulls the needed
// model parameters"). Returns values aligned with indices.
func (mat *Matrix) TryPullRowIndices(p *simnet.Proc, from *simnet.Node, row int, indices []int) ([]float64, error) {
	out := make([]float64, len(indices))
	if err := mat.TryPullRowIndicesInto(p, from, row, indices, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TryPullRowIndicesInto is TryPullRowIndices assembling into caller-owned
// out (len must equal len(indices); fully overwritten on success).
func (mat *Matrix) TryPullRowIndicesInto(p *simnet.Proc, from *simnet.Node, row int, indices []int, out []float64) error {
	mat.checkRow(row)
	if len(out) != len(indices) {
		panic(fmt.Sprintf("ps: PullRowIndicesInto buffer has %d values for %d indices", len(out), len(indices)))
	}
	if err := validateIndices(indices, mat.Dim); err != nil {
		return err
	}
	mat.enterOp(p)
	defer mat.exitOp()
	return mat.pullRowIndices(p, from, row, indices, ClassTrain, out)
}

// pullRowIndices is the ungated core of TryPullRowIndices: validation and
// gate registration already done by the caller. The HotReplicaSet's cold path
// calls it from a child of an operator that already holds the gate — going
// through the gated wrapper there would deadlock a migration cutover (the
// parent can't drain until the child finishes, the child can't enter while
// the gate is closing). class tags the calls for admission control — the
// serving tier reads through here with ClassServe.
func (mat *Matrix) pullRowIndices(p *simnet.Proc, from *simnet.Node, row int, indices []int, class Class, out []float64) error {
	cost := mat.master.Cl.Cost
	split := mat.Part.SplitIndices(indices)
	errs := make([]error, mat.Part.NumServers())
	g := p.Sim().NewGroup()
	for s := 0; s < mat.Part.NumServers(); s++ {
		idx := split[s]
		if len(idx) == 0 {
			continue
		}
		s := s
		g.Go("pull-sparse", func(cp *simnet.Proc) {
			errs[s] = mat.CallShard(cp, from, CallSpec{
				Name:  "pull-sparse",
				Shard: s,
				Class: class,
				// Request carries the indices; response carries the values.
				ReqBytes:  cost.RequestOverheadB + 4*float64(len(idx)),
				RespBytes: cost.RequestOverheadB + 8*float64(len(idx)),
				Fn: func(_ *simnet.Proc, sh *Shard) error {
					// Non-contiguous placements interleave server groups in
					// the sorted request, so map each column back to its
					// global position rather than assuming the groups
					// concatenate in order.
					for _, col := range idx {
						out[sort.SearchInts(indices, col)] = sh.Rows[row][sh.Local(col)]
					}
					return nil
				},
			})
		})
	}
	g.Wait(p)
	return firstError(errs)
}

// TryPushAdd adds a sparse delta into a row, splitting the update across the
// owning servers. This is the DCV `add` operator used as the gradient push in
// the paper's Figure 3 (line 18); it is also the pull/push-only baselines'
// push primitive.
func (mat *Matrix) TryPushAdd(p *simnet.Proc, from *simnet.Node, row int, delta *linalg.SparseVector) error {
	mat.checkRow(row)
	if err := validateIndices(delta.Indices, mat.Dim); err != nil {
		return err
	}
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	split := mat.Part.SplitIndices(delta.Indices)
	errs := make([]error, mat.Part.NumServers())
	g := p.Sim().NewGroup()
	for s := 0; s < mat.Part.NumServers(); s++ {
		idx := split[s]
		if len(idx) == 0 {
			continue
		}
		s := s
		g.Go("push", func(cp *simnet.Proc) {
			errs[s] = mat.CallShard(cp, from, CallSpec{
				Name:      "push-add",
				Shard:     s,
				ReqBytes:  cost.SparseBytes(len(idx)),
				RespBytes: cost.RequestOverheadB, // ack
				Work:      func(int) float64 { return cost.ElemWork(len(idx)) },
				Mutates:   true,
				Touched:   []int{row},
				Fn: func(_ *simnet.Proc, sh *Shard) error {
					// As in TryPullRowIndices: look up each column's global
					// position, since non-contiguous placements interleave
					// server groups in the sorted delta.
					for _, col := range idx {
						sh.Rows[row][sh.Local(col)] += delta.Values[sort.SearchInts(delta.Indices, col)]
					}
					return nil
				},
			})
		})
	}
	g.Wait(p)
	return firstError(errs)
}

// TryPushAddDense adds a dense delta into a row, shipping each server its full
// column range.
func (mat *Matrix) TryPushAddDense(p *simnet.Proc, from *simnet.Node, row int, delta []float64) error {
	mat.checkRow(row)
	if len(delta) != mat.Dim {
		panic(fmt.Sprintf("ps: PushAddDense got %d values for dim %d", len(delta), mat.Dim))
	}
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	errs := make([]error, mat.Part.NumServers())
	g := p.Sim().NewGroup()
	for s := 0; s < mat.Part.NumServers(); s++ {
		s := s
		g.Go("push-dense", func(cp *simnet.Proc) {
			errs[s] = mat.CallShard(cp, from, CallSpec{
				Name:      "push-dense",
				Shard:     s,
				ReqBytes:  cost.DenseBytes(mat.Part.Width(s)),
				RespBytes: cost.RequestOverheadB, // ack
				Work:      func(w int) float64 { return cost.ElemWork(w) },
				Mutates:   true,
				Touched:   []int{row},
				Fn: func(_ *simnet.Proc, sh *Shard) error {
					sh.GatherAdd(sh.Rows[row], delta)
					return nil
				},
			})
		})
	}
	g.Wait(p)
	return firstError(errs)
}

// TrySetRow overwrites a row (used to initialize models).
func (mat *Matrix) TrySetRow(p *simnet.Proc, from *simnet.Node, row int, values []float64) error {
	mat.checkRow(row)
	if len(values) != mat.Dim {
		panic(fmt.Sprintf("ps: SetRow got %d values for dim %d", len(values), mat.Dim))
	}
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	errs := make([]error, mat.Part.NumServers())
	g := p.Sim().NewGroup()
	for s := 0; s < mat.Part.NumServers(); s++ {
		s := s
		g.Go("set-row", func(cp *simnet.Proc) {
			errs[s] = mat.CallShard(cp, from, CallSpec{
				Name:      "set-row",
				Shard:     s,
				ReqBytes:  cost.DenseBytes(mat.Part.Width(s)),
				RespBytes: cost.RequestOverheadB,
				Mutates:   true,
				Touched:   []int{row},
				Fn: func(_ *simnet.Proc, sh *Shard) error {
					sh.Gather(sh.Rows[row], values)
					return nil
				},
			})
		})
	}
	g.Wait(p)
	return firstError(errs)
}

// TryPullRowRange fetches the columns [lo, hi) of one row, touching only the
// servers whose shards overlap the range. It is how a pull/push-only client
// partitions a model update across workers: worker i pulls and rewrites its
// slice of every model vector.
func (mat *Matrix) TryPullRowRange(p *simnet.Proc, from *simnet.Node, row, lo, hi int) ([]float64, error) {
	mat.checkRow(row)
	if lo < 0 || hi > mat.Dim || lo > hi {
		panic(fmt.Sprintf("ps: PullRowRange [%d,%d) out of [0,%d)", lo, hi, mat.Dim))
	}
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	out := make([]float64, hi-lo)
	errs := make([]error, mat.Part.NumServers())
	g := p.Sim().NewGroup()
	for s := 0; s < mat.Part.NumServers(); s++ {
		v := mat.Part.View(s)
		a, b := rangeSpan(v, lo, hi)
		if a >= b {
			continue
		}
		s := s
		g.Go("pull-range", func(cp *simnet.Proc) {
			errs[s] = mat.CallShard(cp, from, CallSpec{
				Name:      "pull-range",
				Shard:     s,
				ReqBytes:  cost.RequestOverheadB,
				RespBytes: cost.DenseBytes(b - a),
				Fn: func(_ *simnet.Proc, sh *Shard) error {
					if v.Contiguous() {
						copy(out[v.At(a)-lo:v.At(b-1)+1-lo], sh.Rows[row][a:b])
						return nil
					}
					for i := a; i < b; i++ {
						out[v.At(i)-lo] = sh.Rows[row][i]
					}
					return nil
				},
			})
		})
	}
	g.Wait(p)
	return out, firstError(errs)
}

// TrySetRowRange overwrites columns [lo, hi) of one row, the mirror of
// TryPullRowRange.
func (mat *Matrix) TrySetRowRange(p *simnet.Proc, from *simnet.Node, row, lo, hi int, values []float64) error {
	mat.checkRow(row)
	if len(values) != hi-lo || lo < 0 || hi > mat.Dim || lo > hi {
		panic(fmt.Sprintf("ps: SetRowRange got %d values for [%d,%d) of dim %d", len(values), lo, hi, mat.Dim))
	}
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	errs := make([]error, mat.Part.NumServers())
	g := p.Sim().NewGroup()
	for s := 0; s < mat.Part.NumServers(); s++ {
		v := mat.Part.View(s)
		a, b := rangeSpan(v, lo, hi)
		if a >= b {
			continue
		}
		s := s
		g.Go("set-range", func(cp *simnet.Proc) {
			errs[s] = mat.CallShard(cp, from, CallSpec{
				Name:      "set-range",
				Shard:     s,
				ReqBytes:  cost.DenseBytes(b - a),
				RespBytes: cost.RequestOverheadB,
				Mutates:   true,
				Touched:   []int{row},
				Fn: func(_ *simnet.Proc, sh *Shard) error {
					if v.Contiguous() {
						copy(sh.Rows[row][a:b], values[v.At(a)-lo:v.At(b-1)+1-lo])
						return nil
					}
					for i := a; i < b; i++ {
						sh.Rows[row][i] = values[v.At(i)-lo]
					}
					return nil
				},
			})
		})
	}
	g.Wait(p)
	return firstError(errs)
}

// PullRows is TryPullRows panicking on an availability error. It is the one
// panicking twin left in this package, kept because the host-time benchmark
// (perfbench/, a module of its own) calls it; new code uses TryPullRows.
func (mat *Matrix) PullRows(p *simnet.Proc, from *simnet.Node, rows []int) [][]float64 {
	out, err := mat.TryPullRows(p, from, rows)
	if err != nil {
		panic(err)
	}
	return out
}

// TryPullRows fetches several whole rows in one batched request per server —
// the access pattern of embedding workloads, where a worker needs the vectors
// of one center vertex and its sampled contexts together. Returns one dense
// vector per requested row.
func (mat *Matrix) TryPullRows(p *simnet.Proc, from *simnet.Node, rows []int) ([][]float64, error) {
	out := make([][]float64, len(rows))
	for i := range out {
		out[i] = make([]float64, mat.Dim)
	}
	if err := mat.TryPullRowsInto(p, from, rows, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TryPullRowsInto is TryPullRows assembling into caller-owned out: one
// len-Dim buffer per requested row, each fully overwritten on success.
func (mat *Matrix) TryPullRowsInto(p *simnet.Proc, from *simnet.Node, rows []int, out [][]float64) error {
	if len(out) != len(rows) {
		panic(fmt.Sprintf("ps: PullRowsInto got %d buffers for %d rows", len(out), len(rows)))
	}
	for i, r := range rows {
		mat.checkRow(r)
		if len(out[i]) != mat.Dim {
			panic(fmt.Sprintf("ps: PullRowsInto buffer %d has %d values for dim %d", i, len(out[i]), mat.Dim))
		}
	}
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	errs := make([]error, mat.Part.NumServers())
	g := p.Sim().NewGroup()
	for s := 0; s < mat.Part.NumServers(); s++ {
		s := s
		g.Go("pull-rows", func(cp *simnet.Proc) {
			errs[s] = mat.CallShard(cp, from, CallSpec{
				Name:      "pull-rows",
				Shard:     s,
				ReqBytes:  cost.RequestOverheadB + 4*float64(len(rows)),
				RespBytes: cost.RequestOverheadB + 8*float64(len(rows)*mat.Part.Width(s)),
				Fn: func(_ *simnet.Proc, sh *Shard) error {
					for i, r := range rows {
						sh.Scatter(sh.Rows[r], out[i])
					}
					return nil
				},
			})
		})
	}
	g.Wait(p)
	return firstError(errs)
}

// TryPushRowsDelta adds one dense delta per row in one batched request per
// server — the mirror of PullRows.
func (mat *Matrix) TryPushRowsDelta(p *simnet.Proc, from *simnet.Node, rows []int, deltas [][]float64) error {
	if len(rows) != len(deltas) {
		panic(fmt.Sprintf("ps: PushRowsDelta got %d rows, %d deltas", len(rows), len(deltas)))
	}
	for i, r := range rows {
		mat.checkRow(r)
		if len(deltas[i]) != mat.Dim {
			panic(fmt.Sprintf("ps: PushRowsDelta delta %d has %d values for dim %d", i, len(deltas[i]), mat.Dim))
		}
	}
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	errs := make([]error, mat.Part.NumServers())
	g := p.Sim().NewGroup()
	for s := 0; s < mat.Part.NumServers(); s++ {
		s := s
		g.Go("push-rows", func(cp *simnet.Proc) {
			width := mat.Part.Width(s)
			errs[s] = mat.CallShard(cp, from, CallSpec{
				Name:      "push-rows",
				Shard:     s,
				ReqBytes:  cost.RequestOverheadB + 4*float64(len(rows)) + 8*float64(len(rows)*width),
				RespBytes: cost.RequestOverheadB,
				Work:      func(w int) float64 { return cost.ElemWork(len(rows) * w) },
				Mutates:   true,
				Touched:   rows,
				Fn: func(_ *simnet.Proc, sh *Shard) error {
					for i, r := range rows {
						sh.GatherAdd(sh.Rows[r], deltas[i])
					}
					return nil
				},
			})
		})
	}
	g.Wait(p)
	return firstError(errs)
}

// TryInvoke runs fn against every server's shard in parallel: the caller sends
// reqBytes to each server, the server charges work(width) compute, fn mutates
// the shard and returns a partial scalar, and the server replies with
// respBytes. The returned slice holds each server's partial. This is the
// transport under every DCV column-access operator. Invocations are dedup'd
// like pushes, so a retried invoke never double-applies a mutation; fn that
// only reads should use TryInvokeRead, which skips the dedup tracking.
func (mat *Matrix) TryInvoke(p *simnet.Proc, from *simnet.Node, reqBytes, respBytes float64,
	work func(width int) float64, fn func(s int, sh *Shard) float64) ([]float64, error) {
	return mat.invoke(p, from, reqBytes, respBytes, work, fn, true)
}

// TryInvokeRead is TryInvoke for server-side computations that do not modify
// shard state (reductions like TryRowSum). Read-only invocations are naturally
// idempotent, so they skip request-ID allocation and applied-set tracking
// entirely — in unreliable runs a reduction costs no dedup state.
func (mat *Matrix) TryInvokeRead(p *simnet.Proc, from *simnet.Node, reqBytes, respBytes float64,
	work func(width int) float64, fn func(s int, sh *Shard) float64) ([]float64, error) {
	return mat.invoke(p, from, reqBytes, respBytes, work, fn, false)
}

func (mat *Matrix) invoke(p *simnet.Proc, from *simnet.Node, reqBytes, respBytes float64,
	work func(width int) float64, fn func(s int, sh *Shard) float64, mutates bool) ([]float64, error) {
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	partials := make([]float64, mat.Part.NumServers())
	errs := make([]error, mat.Part.NumServers())
	g := p.Sim().NewGroup()
	name := "invoke"
	if !mutates {
		name = "invoke-read"
	}
	for s := 0; s < mat.Part.NumServers(); s++ {
		s := s
		g.Go("invoke", func(cp *simnet.Proc) {
			errs[s] = mat.CallShard(cp, from, CallSpec{
				Name:      name,
				Shard:     s,
				ReqBytes:  cost.RequestOverheadB + reqBytes,
				RespBytes: cost.RequestOverheadB + respBytes,
				Work:      work,
				Mutates:   mutates,
				Fn: func(_ *simnet.Proc, sh *Shard) error {
					partials[s] = fn(s, sh)
					return nil
				},
			})
		})
	}
	g.Wait(p)
	return partials, firstError(errs)
}

// InvokeOp is one operation of a fused server-side program (see
// TryInvokeFused).
// ReqBytes/RespBytes are the op's payload beyond the shared per-request
// framing; Work charges server CPU per shard; Fn runs against the shard and
// returns this op's partial scalar.
type InvokeOp struct {
	ReqBytes  float64
	RespBytes float64
	Work      func(width int) float64
	Mutates   bool
	Fn        func(s int, sh *Shard) float64

	// DirtyRows lists the rows a mutating op writes; the fused request
	// declares their union as CallSpec.Touched. A mutating op that leaves it
	// nil makes the whole batch fall back to conservative (every-row)
	// marking. Declarations also keep the consistency layer's drift
	// accounting exact: commitMutate diffs exactly these rows into the
	// shard's per-row |delta| watermarks (versions.go), which value-bounded
	// policies use to certify dense cache entries without shipping them — an
	// undeclared mutation instead rolls the shard to a new drift generation
	// and every anchored entry revalidates in full.
	DirtyRows []int
}

// TryInvokeFused executes a program of ops in order against every server's
// shard with ONE request/response per server: the request pays a single
// RequestOverheadB plus the summed op payloads, the server charges the summed
// work and runs every op back to back on local memory, and the response
// carries all result scalars at once. The returned partials are indexed
// [op][server].
//
// The whole program rides one CallShard per server, so it inherits the retry
// machinery wholesale: if any op mutates, the request carries one dedup ID
// and a retried batch re-executes exactly once per server incarnation — the
// ops run atomically with respect to retries. A program of pure reads skips
// dedup tracking entirely.
func (mat *Matrix) TryInvokeFused(p *simnet.Proc, from *simnet.Node, ops []InvokeOp) ([][]float64, error) {
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	reqBytes, respBytes := cost.RequestOverheadB, cost.RequestOverheadB
	mutates := false
	var touched []int
	declared := true
	for _, op := range ops {
		reqBytes += op.ReqBytes
		respBytes += op.RespBytes
		mutates = mutates || op.Mutates
		if op.Mutates {
			if op.DirtyRows == nil {
				declared = false
			} else {
				touched = append(touched, op.DirtyRows...)
			}
		}
	}
	if !declared {
		touched = nil // one undeclared mutation ⇒ conservative marking
	} else {
		touched = sortedUniqueInts(touched)
	}
	partials := make([][]float64, len(ops))
	for i := range partials {
		partials[i] = make([]float64, mat.Part.NumServers())
	}
	errs := make([]error, mat.Part.NumServers())
	g := p.Sim().NewGroup()
	tracer := mat.master.Cl.Sim.Tracer()
	for s := 0; s < mat.Part.NumServers(); s++ {
		s := s
		g.Go("invoke-fused", func(cp *simnet.Proc) {
			errs[s] = mat.CallShard(cp, from, CallSpec{
				Name:      "invoke-fused",
				Shard:     s,
				ReqBytes:  reqBytes,
				RespBytes: respBytes,
				Work: func(w int) float64 {
					var total float64
					for _, op := range ops {
						if op.Work != nil {
							total += op.Work(w)
						}
					}
					return total
				},
				Mutates: mutates,
				Touched: touched,
				Fn: func(fp *simnet.Proc, sh *Shard) error {
					var fb obs.Span
					if tracer != nil {
						node := mat.srv(s).Node
						fb = tracer.Begin(node.ID, node.Name, obs.KFusedBatch, "fused-batch",
							fp.TraceParent(), obs.KV{K: "ops", V: strconv.Itoa(len(ops))})
					}
					for i, op := range ops {
						if op.Fn != nil {
							// Assign into the (op, server) slot — idempotent
							// under re-execution after a server recovery.
							partials[i][s] = op.Fn(s, sh)
						}
					}
					fb.End()
					return nil
				},
			})
		})
	}
	g.Wait(p)
	mat.master.Net.Batches++
	mat.master.Net.FusedOps += uint64(len(ops))
	return partials, firstError(errs)
}

// TryRowSum returns the sum of a row, computed server-side with only scalars on
// the wire.
func (mat *Matrix) TryRowSum(p *simnet.Proc, from *simnet.Node, row int) (float64, error) {
	mat.checkRow(row)
	cost := mat.master.Cl.Cost
	partials, err := mat.TryInvokeRead(p, from, 8, 8,
		func(w int) float64 { return cost.ElemWork(w) },
		func(_ int, sh *Shard) float64 { return linalg.Sum(sh.Rows[row]) })
	if err != nil {
		return 0, err
	}
	return linalg.Sum(partials), nil
}

// TryRowNnz returns the number of nonzero entries of a row, server-side.
func (mat *Matrix) TryRowNnz(p *simnet.Proc, from *simnet.Node, row int) (int, error) {
	mat.checkRow(row)
	cost := mat.master.Cl.Cost
	partials, err := mat.TryInvokeRead(p, from, 8, 8,
		func(w int) float64 { return cost.ElemWork(w) },
		func(_ int, sh *Shard) float64 { return float64(linalg.NnzDense(sh.Rows[row])) })
	if err != nil {
		return 0, err
	}
	return int(linalg.Sum(partials)), nil
}

// TryRowNorm2 returns the Euclidean norm of a row, server-side.
func (mat *Matrix) TryRowNorm2(p *simnet.Proc, from *simnet.Node, row int) (float64, error) {
	mat.checkRow(row)
	cost := mat.master.Cl.Cost
	partials, err := mat.TryInvokeRead(p, from, 8, 8,
		func(w int) float64 { return cost.ElemWork(w) },
		func(_ int, sh *Shard) float64 {
			n := linalg.Norm2(sh.Rows[row])
			return n * n
		})
	if err != nil {
		return 0, err
	}
	return math.Sqrt(linalg.Sum(partials)), nil
}

func (mat *Matrix) checkRow(row int) {
	if row < 0 || row >= mat.Rows {
		panic(fmt.Sprintf("ps: row %d out of range [0,%d) for matrix %d", row, mat.Rows, mat.ID))
	}
}

// rangeSpan returns the local storage positions [a, b) of the view's columns
// that fall inside the absolute column range [lo, hi). Local storage order
// is column-ascending for every placement, so the owned columns of any
// absolute range always form one contiguous local run.
func rangeSpan(v ColView, lo, hi int) (a, b int) {
	if v.Cols != nil {
		return sort.SearchInts(v.Cols, lo), sort.SearchInts(v.Cols, hi)
	}
	w := v.Hi - v.Lo
	a = min(max(lo-v.Lo, 0), w)
	b = min(max(hi-v.Lo, 0), w)
	if b < a {
		b = a
	}
	return a, b
}

// sortedUniqueInts returns a sorted copy of xs with duplicates removed (nil
// in, nil out).
func sortedUniqueInts(xs []int) []int {
	if xs == nil {
		return nil
	}
	out := append([]int(nil), xs...)
	sort.Ints(out)
	n := 0
	for i, x := range out {
		if i == 0 || x != out[n-1] {
			out[n] = x
			n++
		}
	}
	return out[:n]
}
