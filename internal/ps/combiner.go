package ps

// PushBuffer is the write-combining half of the worker-side cache layer: it
// locally aggregates sparse (TryPushAdd-shaped) and dense
// (TryPushRowsDelta-shaped) deltas across a mini-batch and flushes ONE
// coalesced message per server at the clock tick. Accumulation is pure host
// work — deltas to the same element merge by addition before ever touching
// the wire — so n pushes into a hot row cost one request framing per server
// instead of n.
//
// TryFlush rides Matrix.CallShard with Mutates set, so each per-server flush
// carries a dedup request ID: a flush retried through message loss or a
// server crash re-applies exactly once per server incarnation, never
// double-applying a delta. The buffered deltas are snapshotted when TryFlush
// starts; Adds issued while a flush is in flight land in the next batch.
//
// Semantics: combining defers when deltas become visible (at flush, not at
// Add) and changes the order contributions to one element are summed in, so
// it is an opt-in for the trainers (CacheConfig.CombinePushes) — the
// staleness-0 bit-identity guarantee of the pull cache applies to runs with
// combining off. Callers that need read-your-writes before the flush (the
// embedding trainer does) merge pending deltas into pulled values with
// ApplyPending.

import (
	"math"
	"sort"

	"repro/internal/linalg"
	"repro/internal/simnet"
)

// PushBuffer accumulates deltas against one matrix for one worker. Not safe
// for use from multiple executor machines — make one per worker/executor,
// like the per-machine cache.
type PushBuffer struct {
	mat    *Matrix
	cc     *CachedClient           // owning cached client, when made by one
	sparse map[int]map[int]float64 // row → col → pending delta
	dense  map[int][]float64       // row → pending full-dim delta

	adds     uint64  // deltas absorbed since the last flush
	baseline float64 // wire bytes the unbuffered pushes would have paid

	// Auto-flush tuner state (SetAutoFlushTarget / ShouldFlush). pendingBytes
	// counts the payload a flush would ship NOW — 12 per distinct buffered
	// sparse element, 8·Dim per dense row — maintained incrementally so
	// ShouldFlush is O(1). framingEst is an EWMA of the framing bytes
	// (request/ack overheads plus row headers) observed per flush; until the
	// first flush lands, a worst-case all-servers seed is used.
	autoTarget    float64
	pendingBytes  float64
	framingEst    float64
	autoTriggered bool
}

// NewPushBuffer returns an empty write-combining buffer for mat.
func NewPushBuffer(mat *Matrix) *PushBuffer {
	return &PushBuffer{mat: mat, sparse: map[int]map[int]float64{}, dense: map[int][]float64{}}
}

// NewPushBuffer returns a buffer for the cached client's matrix; its
// counters land in the same master-wide CacheStats, and it inherits the
// client's AutoFlushTarget.
func (cc *CachedClient) NewPushBuffer() *PushBuffer {
	b := NewPushBuffer(cc.mat)
	b.cc = cc
	b.autoTarget = cc.cfg.AutoFlushTarget
	return b
}

// SetAutoFlushTarget sets the payload-efficiency target for ShouldFlush
// (see CacheConfig.AutoFlushTarget); <=0 disables auto-flushing.
func (b *PushBuffer) SetAutoFlushTarget(target float64) { b.autoTarget = target }

// ShouldFlush reports whether the buffered payload has grown past the
// auto-tuner's threshold: pending payload bytes ≥ framingEst · t/(1−t),
// the point where a flush issued now would be at least target-fraction
// payload. Always false when auto-flushing is disabled or nothing is
// buffered. The caller decides when to act on it (typically right after an
// Add, at a point where a flush is semantically allowed).
func (b *PushBuffer) ShouldFlush() bool {
	if b.autoTarget <= 0 || (len(b.sparse) == 0 && len(b.dense) == 0) {
		return false
	}
	t := b.autoTarget
	if t >= 1 {
		return true // degenerate target: framing can never be 0, flush eagerly
	}
	if b.pendingBytes >= b.framingEstimate()*t/(1-t) {
		b.autoTriggered = true
		return true
	}
	return false
}

// framingEstimate returns the EWMA of observed per-flush framing bytes, or a
// worst-case seed (every server touched, one dirty row each) before any
// flush has been observed.
func (b *PushBuffer) framingEstimate() float64 {
	if b.framingEst > 0 {
		return b.framingEst
	}
	cost := b.mat.master.Cl.Cost
	return float64(b.mat.Part.NumServers()) * (2*cost.RequestOverheadB + 4)
}

// Add absorbs one sparse delta into the buffer — the combining form of
// TryPushAdd. It validates like the wire operator but costs nothing until
// TryFlush.
func (b *PushBuffer) Add(row int, delta *linalg.SparseVector) error {
	b.mat.checkRow(row)
	if err := validateIndices(delta.Indices, b.mat.Dim); err != nil {
		return err
	}
	cost := b.mat.master.Cl.Cost
	r := b.sparse[row]
	if r == nil {
		r = map[int]float64{}
		b.sparse[row] = r
	}
	for i, col := range delta.Indices {
		if _, seen := r[col]; !seen {
			b.pendingBytes += sparseColBytes
		}
		r[col] += delta.Values[i]
	}
	// What TryPushAdd would have put on the wire for this delta.
	for _, idx := range b.mat.Part.SplitIndices(delta.Indices) {
		if len(idx) > 0 {
			b.baseline += cost.SparseBytes(len(idx)) + cost.RequestOverheadB
		}
	}
	b.adds++
	return nil
}

// AddRowsDelta absorbs one dense multi-row delta — the combining form of
// TryPushRowsDelta (deltas[i] spans the full dimension, aligned with rows[i]).
func (b *PushBuffer) AddRowsDelta(rows []int, deltas [][]float64) {
	if len(rows) != len(deltas) {
		panic("ps: PushBuffer.AddRowsDelta rows/deltas length mismatch")
	}
	cost := b.mat.master.Cl.Cost
	for i, row := range rows {
		b.mat.checkRow(row)
		d := deltas[i]
		if len(d) != b.mat.Dim {
			panic("ps: PushBuffer.AddRowsDelta delta has wrong dimension")
		}
		acc := b.dense[row]
		if acc == nil {
			acc = make([]float64, b.mat.Dim)
			b.dense[row] = acc
			b.pendingBytes += 8 * float64(b.mat.Dim)
		}
		for c, v := range d {
			acc[c] += v
		}
		b.adds++
	}
	// What TryPushRowsDelta would have paid: per server, framing + row ids +
	// its width of every row, plus the ack.
	for s := 0; s < b.mat.Part.NumServers(); s++ {
		b.baseline += 2*cost.RequestOverheadB + 4*float64(len(rows)) + 8*float64(len(rows)*b.mat.Part.Width(s))
	}
}

// ApplyPending adds the buffered deltas for the given rows into vecs (full
// dimension, aligned with rows) — read-your-writes for callers that pull
// rows they have pending updates against.
func (b *PushBuffer) ApplyPending(rows []int, vecs [][]float64) {
	for i, row := range rows {
		if d, ok := b.dense[row]; ok {
			v := vecs[i]
			for c, x := range d {
				v[c] += x
			}
		}
		if r, ok := b.sparse[row]; ok {
			v := vecs[i]
			cols := sortedKeys(r)
			for _, col := range cols {
				v[col] += r[col]
			}
		}
	}
}

// Pending returns the number of rows with buffered deltas.
func (b *PushBuffer) Pending() int { return len(b.sparse) + len(b.dense) }

// TryFlush ships every buffered delta as one coalesced request per server
// that has any, applying dense then sparse deltas in sorted row/column order
// (deterministic regardless of accumulation order). Returns the first
// shard's error when a server stays unreachable; the buffer is cleared
// either way — retries happen inside CallShard, and each server call is
// dedup'd, so no delta can be double-applied.
func (b *PushBuffer) TryFlush(p *simnet.Proc, from *simnet.Node) error {
	if len(b.sparse) == 0 && len(b.dense) == 0 {
		return nil
	}
	b.mat.enterOp(p)
	defer b.mat.exitOp()
	m := b.mat.master
	cost := m.Cl.Cost
	// Snapshot and reset: Adds during the flush start the next batch.
	sparse, dense := b.sparse, b.dense
	b.sparse, b.dense = map[int]map[int]float64{}, map[int][]float64{}
	m.Cache.CombinedPushes += b.adds
	m.Cache.FlushBaselineBytes += b.baseline
	if b.autoTriggered {
		m.Cache.AutoFlushes++
	}
	b.adds, b.baseline, b.pendingBytes, b.autoTriggered = 0, 0, 0, false
	if b.cc != nil && b.cc.deltas {
		b.creditFlush(from, sparse, dense)
	}

	denseRows := sortedKeys(dense)
	type sparsePart struct {
		row  int
		cols []int
	}
	// Per-server sparse payload: each dirty row's columns within the shard,
	// already sorted (SplitIndices preserves the sorted column order).
	parts := make([][]sparsePart, b.mat.Part.NumServers())
	nnz := make([]int, b.mat.Part.NumServers())
	for _, row := range sortedKeys(sparse) {
		split := b.mat.Part.SplitIndices(sortedKeys(sparse[row]))
		for s, cols := range split {
			if len(cols) > 0 {
				parts[s] = append(parts[s], sparsePart{row: row, cols: cols})
				nnz[s] += len(cols)
			}
		}
	}
	errs := make([]error, b.mat.Part.NumServers())
	g := p.Sim().NewGroup()
	var framing float64 // this flush's non-payload bytes, fed to the tuner EWMA
	for s := 0; s < b.mat.Part.NumServers(); s++ {
		if len(parts[s]) == 0 && len(denseRows) == 0 {
			continue
		}
		s := s
		width := b.mat.Part.Width(s)
		framing += 2*cost.RequestOverheadB + 4*float64(len(parts[s])) + 4*float64(len(denseRows))
		touched := append([]int(nil), denseRows...)
		for _, sp := range parts[s] {
			touched = append(touched, sp.row)
		}
		elems := nnz[s] + len(denseRows)*width
		reqBytes := cost.RequestOverheadB +
			12*float64(nnz[s]) + 4*float64(len(parts[s])) + // sparse (col,val) pairs + row headers
			8*float64(len(denseRows)*width) + 4*float64(len(denseRows)) // dense stretches + row headers
		g.Go("flush", func(cp *simnet.Proc) {
			errs[s] = b.mat.CallShard(cp, from, CallSpec{
				Name:      "push-combined",
				Shard:     s,
				ReqBytes:  reqBytes,
				RespBytes: cost.RequestOverheadB, // ack
				Work:      func(int) float64 { return cost.ElemWork(elems) },
				Mutates:   true,
				Touched:   sortedUniqueInts(touched),
				Fn: func(_ *simnet.Proc, sh *Shard) error {
					for _, row := range denseRows {
						sh.GatherAdd(sh.Rows[row], dense[row])
					}
					for _, sp := range parts[s] {
						out := sh.Rows[sp.row]
						deltas := sparse[sp.row]
						for _, col := range sp.cols {
							out[sh.Local(col)] += deltas[col]
						}
					}
					return nil
				},
			})
			if errs[s] == nil {
				m.Cache.FlushedBytes += reqBytes + cost.RequestOverheadB
			}
		})
	}
	g.Wait(p)
	m.Cache.Flushes++
	// Adapt the tuner's framing estimate toward what this flush actually
	// paid in overhead (smoothed, so one unusually wide or narrow flush
	// doesn't whipsaw the threshold).
	if b.framingEst == 0 {
		b.framingEst = framing
	} else {
		b.framingEst = 0.75*b.framingEst + 0.25*framing
	}
	return firstError(errs)
}

// creditFlush records the magnitudes of a flush's deltas against the owning
// client's cache entries on machine from (cachedVal.pend / densePend), so a
// delta-consuming policy knows how far locally-pushed writes have moved the
// values it is still serving. The mean magnitude also feeds the policy's
// adaptive EWMA — but only when at least one live cache entry was credited:
// a buffer flushing rows the cache never holds (LR's gradient accumulator
// row) says nothing about the freshness of what IS cached, and its trainer
// credits the real target row itself via CreditPush. Iteration is in sorted
// row/column order so the float accumulation is deterministic. Host-side
// only; no virtual cost.
func (b *PushBuffer) creditFlush(from *simnet.Node, sparse map[int]map[int]float64, dense map[int][]float64) {
	cc := b.cc
	nc := cc.node(from)
	var sum float64
	var cnt int
	credited := false
	for _, row := range sortedKeys(sparse) {
		cols := sparse[row]
		var rowMax float64
		for _, col := range sortedKeys(cols) {
			mag := math.Abs(cols[col])
			sum += mag
			cnt++
			if mag > rowMax {
				rowMax = mag
			}
			s := cc.mat.Part.ServerOf(col)
			if e := nc.get(cacheKey{row: row, shard: s}); e != nil {
				if cv, ok := e.vals[col]; ok {
					cv.pend += mag
					e.vals[col] = cv
					credited = true
				}
			}
		}
		for s := 0; s < cc.mat.Part.NumServers(); s++ {
			if e := nc.get(cacheKey{row: row, shard: s, dense: true}); e != nil && e.dense != nil {
				e.densePend += rowMax
				credited = true
			}
		}
	}
	for _, row := range sortedKeys(dense) {
		d := dense[row]
		var rowMax float64
		for _, v := range d {
			mag := math.Abs(v)
			if mag > rowMax {
				rowMax = mag
			}
		}
		sum += rowMax
		cnt++
		for s := 0; s < cc.mat.Part.NumServers(); s++ {
			if e := nc.get(cacheKey{row: row, shard: s, dense: true}); e != nil && e.dense != nil {
				e.densePend += rowMax
				credited = true
			}
			if e := nc.get(cacheKey{row: row, shard: s}); e != nil {
				// Per-column credit against sparse entries of the same row;
				// each column's increment is independent, so map order is fine.
				for col, cv := range e.vals {
					cv.pend += math.Abs(d[col])
					e.vals[col] = cv
					credited = true
				}
			}
		}
	}
	if credited && cnt > 0 {
		cc.pol.ObserveDelta(sum / float64(cnt))
	}
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
