package dcv

// This file implements the operator-fusion layer: a Batch records a program
// of column ops against co-located vectors and executes the whole program as
// ONE request per server (ps.TryInvokeFused) instead of one fan-out per
// operator. Cost accounting: the fused request pays the per-RPC framing
// (RequestOverheadB) once each way plus OpCommandBytes per recorded op and
// the ops' summed result bytes and server work — so fusing k ops saves
// (k-1) request/response overheads and (k-1) round trips per server while
// charging exactly the same per-element compute as the unfused operators.
//
// Because the program rides one ps.CallShard per server, it inherits the
// retry/dedup machinery atomically: a batch containing any mutation carries
// one request ID per server call, and a retried batch re-executes exactly
// once per server incarnation. Reduction results are assigned into per-(op,
// server) slots, never accumulated, so re-execution after a server recovery
// stays idempotent.
//
// All vectors in a batch must share one raw matrix (the co-location Derive
// guarantees): the fused program runs on each server against local shard
// memory only, with no operand shuffle. A non-co-located operand is recorded
// as an error and surfaced by Run.

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/simnet"
)

// OpCommandBytes is the wire size of one fused op's command descriptor
// (opcode, row ids, scalar arguments). Unfused operators pay a full
// RequestOverheadB per op per server; fused ops share one and pay only this.
const OpCommandBytes = 24

// Scalar is the deferred result of a reducing batch op (Dot, Sum, Norm2,
// Nnz). It becomes readable after the batch's Run returns nil.
type Scalar struct {
	ready    bool
	value    float64
	finalize func(partials []float64) float64
}

// Value returns the reduction result. It panics if the owning batch has not
// successfully run.
func (sc *Scalar) Value() float64 {
	if !sc.ready {
		panic("dcv: Scalar read before its batch ran successfully")
	}
	return sc.value
}

// fusedOp is one recorded operation.
type fusedOp struct {
	reqBytes  float64
	respBytes float64
	// workPerElem already includes the vector-count factor, matching
	// zipInvoke's charge of workPerElem × width × (1+operands).
	workPerElem float64
	mutates     bool
	// rows lists the matrix rows a mutating op writes, forwarded as the
	// fused request's dirty-row declaration (ps.InvokeOp.DirtyRows), which
	// both scopes version stamping and keeps the consistency layer's
	// per-row drift watermarks exact (ps/versions.go).
	rows   []int
	scalar *Scalar
	run    func(s int, sh *ps.Shard) float64
}

// Batch records a program of column ops against one raw matrix and executes
// it with one request per server. Recording is free (no communication);
// validation errors are remembered and returned by Run. A batch is single
// use: Run executes it at most once.
type Batch struct {
	sess *Session
	mat  *ps.Matrix
	ops  []fusedOp
	err  error
	ran  bool
}

// NewBatch starts an empty batch anchored at anchor's raw matrix; every
// vector subsequently recorded must be co-located with it.
func NewBatch(anchor *Vector) *Batch {
	return &Batch{sess: anchor.sess, mat: anchor.mat}
}

// Len returns the number of ops recorded so far.
func (b *Batch) Len() int { return len(b.ops) }

// check validates that every vector is co-located with the batch's matrix,
// recording the first violation as the batch error.
func (b *Batch) check(op string, vs ...*Vector) bool {
	if b.err != nil {
		return false
	}
	for i, v := range vs {
		if v == nil {
			b.err = fmt.Errorf("dcv: batch %s: vector %d is nil", op, i)
			return false
		}
		if v.mat != b.mat {
			b.err = fmt.Errorf("dcv: batch %s: %w", op, ErrNotColocated)
			return false
		}
	}
	return true
}

// cost returns the per-element flop charge of the calibrated cost model.
func (b *Batch) cost() float64 { return b.sess.Master.Cl.Cost.FlopsPerElem }

// Fill records "set every element of v to c".
func (b *Batch) Fill(v *Vector, c float64) *Batch {
	if !b.check("fill", v) {
		return b
	}
	row := v.row
	b.ops = append(b.ops, fusedOp{
		reqBytes: OpCommandBytes, workPerElem: b.cost(), mutates: true, rows: []int{row},
		run: func(_ int, sh *ps.Shard) float64 {
			linalg.Fill(sh.Rows[row], c)
			return 0
		},
	})
	return b
}

// Zero records "reset v to zero".
func (b *Batch) Zero(v *Vector) *Batch { return b.Fill(v, 0) }

// Scale records "v *= alpha".
func (b *Batch) Scale(v *Vector, alpha float64) *Batch {
	if !b.check("scale", v) {
		return b
	}
	row := v.row
	b.ops = append(b.ops, fusedOp{
		reqBytes: OpCommandBytes, workPerElem: b.cost(), mutates: true, rows: []int{row},
		run: func(_ int, sh *ps.Shard) float64 {
			linalg.Scale(alpha, sh.Rows[row])
			return 0
		},
	})
	return b
}

// Axpy records "v += alpha * other".
func (b *Batch) Axpy(v *Vector, alpha float64, other *Vector) *Batch {
	if !b.check("axpy", v, other) {
		return b
	}
	tr, or := v.row, other.row
	b.ops = append(b.ops, fusedOp{
		reqBytes: OpCommandBytes, workPerElem: 2 * b.cost(), mutates: true, rows: []int{tr},
		run: func(_ int, sh *ps.Shard) float64 {
			linalg.Axpy(alpha, sh.Rows[or], sh.Rows[tr])
			return 0
		},
	})
	return b
}

// elementwise records "v = kernel(v, other)" element-wise, where kernel
// applies an in-place vectorized update dst = dst op src (see linalg's
// unrolled kernels, which also fan wide shards over the worker pool).
func (b *Batch) elementwise(name string, v, other *Vector, kernel func(dst, src []float64)) *Batch {
	if !b.check(name, v, other) {
		return b
	}
	tr, or := v.row, other.row
	b.ops = append(b.ops, fusedOp{
		reqBytes: OpCommandBytes, workPerElem: 2 * b.cost(), mutates: true, rows: []int{tr},
		run: func(_ int, sh *ps.Shard) float64 {
			kernel(sh.Rows[tr], sh.Rows[or])
			return 0
		},
	})
	return b
}

// AddVec records "v += other".
func (b *Batch) AddVec(v, other *Vector) *Batch {
	return b.elementwise("add", v, other, linalg.Add)
}

// SubVec records "v -= other".
func (b *Batch) SubVec(v, other *Vector) *Batch {
	return b.elementwise("sub", v, other, linalg.Sub)
}

// MulVec records "v *= other".
func (b *Batch) MulVec(v, other *Vector) *Batch {
	return b.elementwise("mul", v, other, linalg.Mul)
}

// DivVec records "v /= other".
func (b *Batch) DivVec(v, other *Vector) *Batch {
	return b.elementwise("div", v, other, linalg.Div)
}

// CopyFrom records "v = other".
func (b *Batch) CopyFrom(v, other *Vector) *Batch {
	return b.elementwise("copy", v, other, func(dst, src []float64) { copy(dst, src) })
}

// ZipMap records the general server-side zip: fn runs on every shard with the
// target's and operands' aligned live slices, exactly like Vector.TryZipMap but
// sharing the batch's single request. workPerElem is the caller's estimate of
// compute per element per vector.
func (b *Batch) ZipMap(v *Vector, workPerElem float64, fn func(lo int, rows [][]float64), others ...*Vector) *Batch {
	if !b.check("zipmap", append([]*Vector{v}, others...)...) {
		return b
	}
	rowIdx := make([]int, 1+len(others))
	rowIdx[0] = v.row
	for i, ov := range others {
		rowIdx[1+i] = ov.row
	}
	b.ops = append(b.ops, fusedOp{
		reqBytes:    OpCommandBytes,
		workPerElem: workPerElem * float64(len(rowIdx)),
		mutates:     true,
		rows:        rowIdx, // fn may mutate any zipped slice
		run: func(_ int, sh *ps.Shard) float64 {
			rows := make([][]float64, len(rowIdx))
			for i, r := range rowIdx {
				rows[i] = sh.Rows[r]
			}
			fn(sh.View().Lo, rows)
			return 0
		},
	})
	return b
}

// reduce records a read-only reduction returning one partial per server.
func (b *Batch) reduce(name string, vs []*Vector, workPerElem float64,
	partial func(sh *ps.Shard) float64, finalize func([]float64) float64) *Scalar {
	sc := &Scalar{finalize: finalize}
	if !b.check(name, vs...) {
		return sc
	}
	b.ops = append(b.ops, fusedOp{
		reqBytes: OpCommandBytes, respBytes: 8, workPerElem: workPerElem,
		scalar: sc,
		run: func(_ int, sh *ps.Shard) float64 {
			return partial(sh)
		},
	})
	return sc
}

func sumPartials(parts []float64) float64 {
	var total float64
	for _, x := range parts {
		total += x
	}
	return total
}

// Dot records "<v, other>", readable from the returned Scalar after Run.
func (b *Batch) Dot(v, other *Vector) *Scalar {
	tr, or := 0, 0
	if v != nil && other != nil {
		tr, or = v.row, other.row
	}
	return b.reduce("dot", []*Vector{v, other}, 2*b.cost(),
		func(sh *ps.Shard) float64 {
			return linalg.Dot(sh.Rows[tr], sh.Rows[or])
		}, sumPartials)
}

// Sum records the element sum of v.
func (b *Batch) Sum(v *Vector) *Scalar {
	row := 0
	if v != nil {
		row = v.row
	}
	return b.reduce("sum", []*Vector{v}, b.cost(),
		func(sh *ps.Shard) float64 { return linalg.Sum(sh.Rows[row]) }, sumPartials)
}

// Norm2 records the Euclidean norm of v.
func (b *Batch) Norm2(v *Vector) *Scalar {
	row := 0
	if v != nil {
		row = v.row
	}
	return b.reduce("norm2", []*Vector{v}, b.cost(),
		func(sh *ps.Shard) float64 {
			return linalg.SumSquares(sh.Rows[row])
		}, func(parts []float64) float64 { return math.Sqrt(sumPartials(parts)) })
}

// Run executes the recorded program with one request per server and resolves
// every reduction Scalar. It returns the first recording error (nil-vector,
// co-location violation), an execution error wrapping ps.ErrServerDown or
// simnet.ErrNodeDown when a shard stays unreachable, or nil on success. A
// batch runs at most once.
func (b *Batch) Run(p *simnet.Proc, from *simnet.Node) error {
	if b.err != nil {
		return b.err
	}
	if b.ran {
		return errors.New("dcv: batch already ran; record a fresh one")
	}
	b.ran = true
	if len(b.ops) == 0 {
		return nil
	}
	if t := b.sess.Master.Cl.Sim.Tracer(); t != nil {
		sp := t.Begin(from.ID, from.Name, obs.KBatch, "batch",
			p.TraceParent(), obs.KV{K: "ops", V: strconv.Itoa(len(b.ops))})
		prev := p.SetTraceParent(sp)
		defer func() {
			p.SetTraceParent(prev)
			sp.End()
		}()
	}
	ops := make([]ps.InvokeOp, len(b.ops))
	for i := range b.ops {
		op := b.ops[i]
		ops[i] = ps.InvokeOp{
			ReqBytes:  op.reqBytes,
			RespBytes: op.respBytes,
			Work:      func(w int) float64 { return op.workPerElem * float64(w) },
			Mutates:   op.mutates,
			DirtyRows: op.rows,
			Fn:        op.run,
		}
	}
	partials, err := b.mat.TryInvokeFused(p, from, ops)
	if err != nil {
		return err
	}
	for i, op := range b.ops {
		if op.scalar != nil {
			op.scalar.value = op.scalar.finalize(partials[i])
			op.scalar.ready = true
		}
	}
	return nil
}
