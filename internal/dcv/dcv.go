// Package dcv implements the paper's core abstraction: the Dimension
// Co-located Vector. A DCV is a vector distributed over parameter servers by
// column. DCVs allocated with Dense get a raw matrix with k pre-allocated
// rows; Derive hands out the matrix's free rows, so derived vectors share one
// column partitioner and every dimension of every derived vector lives on the
// same server as that dimension of the original. That co-location is what
// lets element-wise operators (dot, add, mul, axpy, zip) run entirely
// server-side, with only scalars on the wire.
//
// The operator set mirrors the paper's Table 1 (each server-touching
// operator X is the method TryX):
//
//	Row access:    Pull, Push(Add), Sum, Nnz, Norm2
//	Column access: Axpy, Dot, Copy, Sub, Add, Mul, Div (and ZipMap/ZipReduce)
//	Creation:      Derive, Dense, Sparse
package dcv

import (
	"errors"
	"fmt"

	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/simnet"
)

// DefaultCapacity is the number of rows pre-allocated in a raw matrix when
// Dense is called without an explicit capacity — the paper's "initial size of
// the matrix (i.e., the k) is usually small, for example ten".
const DefaultCapacity = 10

// ErrNoFreeRows is returned by Derive when the raw matrix's pre-allocated
// rows are exhausted; allocate the original with a larger capacity.
var ErrNoFreeRows = errors.New("dcv: no free rows left in the raw matrix; create the original with a larger capacity")

// ErrNotColocated is returned by operators that require their operands to
// share a raw matrix (created via Derive) when they do not.
var ErrNotColocated = errors.New("dcv: vectors are not dimension co-located; create one with Derive from the other")

// ErrPartitionMismatch is returned by column operators whose operand lives in
// a matrix with an incompatible partitioning (different server count, hence
// different shard ranges): the shuffle path would align slices of different
// widths. Operands must share the target's column layout even when they are
// not co-located.
var ErrPartitionMismatch = errors.New("dcv: operand partitioning incompatible with target")

// Session binds DCV bookkeeping to one parameter-server application: it
// tracks how many rows of each raw matrix are in use so Derive can hand out
// free rows.
type Session struct {
	Master *ps.Master
	used   map[*ps.Matrix]int
}

// NewSession creates a DCV session over a PS master.
func NewSession(m *ps.Master) *Session {
	return &Session{Master: m, used: map[*ps.Matrix]int{}}
}

// Vector is one DCV: a row of a column-partitioned raw matrix.
type Vector struct {
	sess   *Session
	mat    *ps.Matrix
	row    int
	sparse bool
}

// Dim returns the vector's dimension.
func (v *Vector) Dim() int { return v.mat.Dim }

// Matrix exposes the raw matrix for tests and low-level extensions.
func (v *Vector) Matrix() *ps.Matrix { return v.mat }

// Row returns the vector's row index inside its raw matrix.
func (v *Vector) Row() int { return v.row }

// Colocated reports whether v and other live in the same raw matrix and so
// share a partitioner and physical placement.
func (v *Vector) Colocated(other *Vector) bool { return v.mat == other.mat }

// Dense allocates a new dense DCV of the given dimension, with capacity
// pre-allocated rows in the raw matrix (DefaultCapacity when omitted).
// Corresponds to the paper's DCV.dense(dim, k).
func (s *Session) Dense(p *simnet.Proc, dim int, capacity ...int) (*Vector, error) {
	k := DefaultCapacity
	if len(capacity) > 0 {
		k = capacity[0]
	}
	if k < 1 {
		return nil, fmt.Errorf("dcv: capacity must be at least 1, got %d", k)
	}
	mat, err := s.Master.CreateMatrix(p, k, dim)
	if err != nil {
		return nil, err
	}
	s.used[mat] = 1
	return &Vector{sess: s, mat: mat, row: 0}, nil
}

// Sparse allocates a DCV whose row-pull traffic is charged by the number of
// nonzero entries instead of the dimension, modelling a sparse server-side
// representation. Corresponds to the paper's DCV.sparse.
func (s *Session) Sparse(p *simnet.Proc, dim int, capacity ...int) (*Vector, error) {
	v, err := s.Dense(p, dim, capacity...)
	if err != nil {
		return nil, err
	}
	v.sparse = true
	return v, nil
}

// Derive returns a fresh DCV co-located with v: the next free row of v's raw
// matrix. It is a pure metadata operation — no server communication — which
// is exactly why deriving is the "correct writing" in the paper's Figure 4.
func (v *Vector) Derive() (*Vector, error) {
	next := v.sess.used[v.mat]
	if next >= v.mat.Rows {
		return nil, ErrNoFreeRows
	}
	v.sess.used[v.mat] = next + 1
	return &Vector{sess: v.sess, mat: v.mat, row: next, sparse: v.sparse}, nil
}

// --- Row access operators (worker <-> server data movement) ---
//
// Each operator has one form, following the repo-wide convention documented
// in ARCHITECTURE.md: TryX returns a typed error when a shard's server stays
// unreachable (wrapping ps.ErrServerDown) or the calling machine is down
// (wrapping simnet.ErrNodeDown). Callers with no error return wrap it in
// rdd.Must or rdd.Check. Argument errors (wrong dimension) panic.

// TryPull fetches the whole vector to the caller's machine. For sparse DCVs
// the transfer is charged by stored nonzeros.
func (v *Vector) TryPull(p *simnet.Proc, from *simnet.Node) ([]float64, error) {
	if v.sparse {
		return v.mat.TryPullRowCompressed(p, from, v.row)
	}
	return v.mat.TryPullRow(p, from, v.row)
}

// Pull is TryPull panicking on an availability error. It is the one
// panicking twin left in this package, kept because the host-time benchmark
// (perfbench/, a module of its own) calls it; new code uses TryPull.
func (v *Vector) Pull(p *simnet.Proc, from *simnet.Node) []float64 {
	row, err := v.TryPull(p, from)
	if err != nil {
		panic(err)
	}
	return row
}

// TryPullIndices fetches only the given strictly-increasing dimensions — the
// sparse pull used when a mini-batch touches a small feature subset.
func (v *Vector) TryPullIndices(p *simnet.Proc, from *simnet.Node, indices []int) ([]float64, error) {
	return v.mat.TryPullRowIndices(p, from, v.row, indices)
}

// PinSnapshot pins a snapshot-consistent view of the vector's raw matrix at
// the current model clock (ps.ModelSnapshot): subsequent TryPullIndicesAt
// reads return exactly the values live at the pin, bit-identical under
// concurrent pushes, at no bulk-copy cost. Close the snapshot when done.
func (v *Vector) PinSnapshot(p *simnet.Proc) (*ps.ModelSnapshot, error) {
	return v.mat.PinSnapshot(p)
}

// TryPullIndicesAt is TryPullIndices read against a pinned snapshot instead
// of the live model. The snapshot must pin this vector's raw matrix; reads
// of a pin that was fenced (recovery, migration, undeclared bulk write)
// return an error wrapping ps.ErrSnapshotInvalid, never torn values.
func (v *Vector) TryPullIndicesAt(p *simnet.Proc, from *simnet.Node, snap *ps.ModelSnapshot, indices []int) ([]float64, error) {
	if snap == nil {
		return v.TryPullIndices(p, from, indices)
	}
	if snap.Matrix() != v.mat {
		return nil, fmt.Errorf("dcv: snapshot pins matrix %d, vector lives in %d", snap.Matrix().ID, v.mat.ID)
	}
	return snap.TryReadRowIndices(p, from, v.row, indices)
}

// TryAdd pushes a sparse delta into the vector (the DCV add used as the
// gradient push in the paper's Figure 3).
func (v *Vector) TryAdd(p *simnet.Proc, from *simnet.Node, delta *linalg.SparseVector) error {
	return v.mat.TryPushAdd(p, from, v.row, delta)
}

// TryAddDense pushes a dense delta into the vector.
func (v *Vector) TryAddDense(p *simnet.Proc, from *simnet.Node, delta []float64) error {
	return v.mat.TryPushAddDense(p, from, v.row, delta)
}

// TrySet overwrites the vector with the given values.
func (v *Vector) TrySet(p *simnet.Proc, from *simnet.Node, values []float64) error {
	return v.mat.TrySetRow(p, from, v.row, values)
}

// TryPush overwrites the vector (paper terminology for writing a row).
func (v *Vector) TryPush(p *simnet.Proc, from *simnet.Node, values []float64) error {
	return v.TrySet(p, from, values)
}

// TrySum returns the sum of all elements, computed server-side.
func (v *Vector) TrySum(p *simnet.Proc, from *simnet.Node) (float64, error) {
	return v.mat.TryRowSum(p, from, v.row)
}

// TryNnz returns the number of nonzero elements, computed server-side.
func (v *Vector) TryNnz(p *simnet.Proc, from *simnet.Node) (int, error) {
	return v.mat.TryRowNnz(p, from, v.row)
}

// TryNorm2 returns the Euclidean norm, computed server-side.
func (v *Vector) TryNorm2(p *simnet.Proc, from *simnet.Node) (float64, error) {
	return v.mat.TryRowNorm2(p, from, v.row)
}
