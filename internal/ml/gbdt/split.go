package gbdt

import (
	"math"

	"repro/internal/core"
	"repro/internal/dcv"
	"repro/internal/linalg"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// trainerState holds the boosting loop's worker-local state: per row the
// current margin, gradient, hessian and the tree node the row currently sits
// in. State is indexed [partition][rowInPartition] — it lives on the
// executors conceptually and never crosses the network.
type trainerState struct {
	e       *core.Engine
	cfg     Config
	dataset *rdd.RDD[Row]

	margins [][]float64
	grads   [][]float64
	hess    [][]float64
	nodeOf  [][]int32

	// PS2 backend: two co-located DCV histograms (paper Figure 8 lines 2-3).
	gradHist *dcv.Vector
	hessHist *dcv.Vector
	histDim  int

	// AllReduce backend: per-worker local histograms gathered here.
	localG [][]float64
	localH [][]float64
}

func newTrainerState(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[Row], cfg Config) *trainerState {
	parts := dataset.Partitions()
	st := &trainerState{
		e: e, cfg: cfg, dataset: dataset,
		margins: make([][]float64, parts),
		grads:   make([][]float64, parts),
		hess:    make([][]float64, parts),
		nodeOf:  make([][]int32, parts),
	}
	return st
}

func (st *trainerState) ensureHists(p *simnet.Proc, features int) error {
	st.histDim = features * st.cfg.Bins
	if st.cfg.Backend == BackendPS2 && st.gradHist == nil {
		// val gradHist = DCV.dense(dim, 2); val hessHist = derive(gradHist).
		gh, err := st.e.DCV.Dense(p, st.histDim, 2)
		if err != nil {
			return err
		}
		if err := gh.TryFill(p, st.e.Driver(), 0); err != nil {
			return err
		}
		hh, err := gh.Derive()
		if err != nil {
			return err
		}
		if err := hh.TryFill(p, st.e.Driver(), 0); err != nil {
			return err
		}
		st.gradHist, st.hessHist = gh, hh
	}
	if st.cfg.Backend != BackendPS2 && st.localG == nil {
		st.localG = make([][]float64, st.dataset.Partitions())
		st.localH = make([][]float64, st.dataset.Partitions())
	}
	return nil
}

// computeGradients refreshes g and h from the current margins (logistic
// objective: g = p - y, h = p(1-p)) and draws the tree's row sample when
// stochastic boosting is on: excluded rows get node -1 and never enter
// histograms or routing. Pure worker-local computation.
func (st *trainerState) computeGradients(p *simnet.Proc, tree int) {
	cost := st.e.Cluster.Cost
	subsample := st.cfg.Subsample
	rdd.RunPartitions(p, st.dataset, 8, func(tc *rdd.TaskContext, part int, rows []Row) struct{} {
		if st.margins[part] == nil {
			st.margins[part] = make([]float64, len(rows))
			st.grads[part] = make([]float64, len(rows))
			st.hess[part] = make([]float64, len(rows))
			st.nodeOf[part] = make([]int32, len(rows))
		}
		var rng *linalg.RNG
		if subsample > 0 && subsample < 1 {
			rng = linalg.NewRNG(st.cfg.Seed*1009 + uint64(part)*31 + uint64(tree))
		}
		for i := range rows {
			prob := linalg.Sigmoid(st.margins[part][i])
			st.grads[part][i] = prob - rows[i].Label
			st.hess[part][i] = prob * (1 - prob)
			if rng != nil && rng.Float64() >= subsample {
				st.nodeOf[part][i] = -1 // excluded from this tree
				continue
			}
			st.nodeOf[part][i] = 0
		}
		tc.Charge(cost.ElemWork(len(rows) * 2))
		tc.Commit()
		return struct{}{}
	})
}

// featureMask returns the per-tree column sample (nil = all features).
func (st *trainerState) featureMask(tree, features int) []bool {
	cs := st.cfg.ColsampleByTree
	if cs <= 0 || cs >= 1 {
		return nil
	}
	rng := linalg.NewRNG(st.cfg.Seed*2003 + uint64(tree))
	mask := make([]bool, features)
	any := false
	for f := range mask {
		if rng.Float64() < cs {
			mask[f] = true
			any = true
		}
	}
	if !any {
		mask[rng.Intn(features)] = true
	}
	return mask
}

// nodeTotals is the (G, H, rows) summary of one tree node.
type nodeTotals struct {
	G, H float64
	N    int
}

// buildHistograms constructs the grad/hess histograms for the rows of one
// tree node and aggregates them with the configured backend. Returns the
// node totals.
func (st *trainerState) buildHistograms(p *simnet.Proc, node int32, features int) (nodeTotals, error) {
	cost := st.e.Cluster.Cost
	if st.cfg.Backend == BackendPS2 {
		if err := st.gradHist.TryZero(p, st.e.Driver()); err != nil {
			return nodeTotals{}, err
		}
		if err := st.hessHist.TryZero(p, st.e.Driver()); err != nil {
			return nodeTotals{}, err
		}
	}
	totals := rdd.RunPartitions(p, st.dataset, 24, func(tc *rdd.TaskContext, part int, rows []Row) nodeTotals {
		g := make([]float64, st.histDim)
		h := make([]float64, st.histDim)
		var tot nodeTotals
		for i := range rows {
			if st.nodeOf[part][i] != node {
				continue
			}
			gi, hi := st.grads[part][i], st.hess[part][i]
			tot.G += gi
			tot.H += hi
			tot.N++
			bins := rows[i].Bins
			for f := 0; f < features; f++ {
				idx := f*st.cfg.Bins + int(bins[f])
				g[idx] += gi
				h[idx] += hi
			}
		}
		tc.Charge(cost.ElemWork(tot.N * features))
		tc.Commit()
		switch st.cfg.Backend {
		case BackendPS2:
			// Paper Figure 8: gradHist.add(localGrad); hessHist.add(localHess).
			rdd.Check(st.gradHist.TryAddDense(tc.P, tc.Node, g))
			rdd.Check(st.hessHist.TryAddDense(tc.P, tc.Node, h))
		case BackendAllReduce:
			st.localG[part] = g
			st.localH[part] = h
		case BackendDriver:
			// MLlib: both histograms travel to the driver.
			tc.Node.Send(tc.P, st.e.Cluster.Driver, cost.DenseBytes(2*st.histDim))
			st.localG[part] = g
			st.localH[part] = h
		}
		return tot
	})
	var tot nodeTotals
	for _, t := range totals {
		tot.G += t.G
		tot.H += t.H
		tot.N += t.N
	}
	switch st.cfg.Backend {
	case BackendAllReduce:
		st.ringAllReduce(p)
	case BackendDriver:
		st.driverReduce(p)
	}
	return tot, nil
}

// ringAllReduce simulates XGBoost's histogram AllReduce: every worker
// exchanges 2(W-1) chunks of size S/W with its ring neighbour (reduce-scatter
// followed by all-gather), then holds the full summed histograms. The sums
// themselves are computed once host-side; the simulation charges the
// communication and the per-chunk reduction compute.
func (st *trainerState) ringAllReduce(p *simnet.Proc) {
	execs := st.e.Cluster.Executors
	w := len(execs)
	if w <= 1 {
		return
	}
	histBytes := float64(st.histDim) * 8 * 2 // grad + hess
	chunk := histBytes / float64(w)
	cost := st.e.Cluster.Cost
	for step := 0; step < 2*(w-1); step++ {
		g := p.Sim().NewGroup()
		for i := 0; i < w; i++ {
			src, dst := execs[i], execs[(i+1)%w]
			g.Go("allreduce-step", func(cp *simnet.Proc) {
				src.Send(cp, dst, chunk)
				if step < w-1 {
					dst.Compute(cp, cost.ElemWork(st.histDim*2/w))
				}
			})
		}
		g.Wait(p)
	}
	// Reduce host-side into partition 0's buffers (every worker now has it).
	for part := 1; part < len(st.localG); part++ {
		if st.localG[part] == nil {
			continue
		}
		for i := range st.localG[0] {
			st.localG[0][i] += st.localG[part][i]
			st.localH[0][i] += st.localH[part][i]
		}
	}
}

// boundaryPiece carries a server's partial bins of a feature that straddles
// its range boundary back to the driver for exact merging.
type boundaryPiece struct {
	Feature int
	Offset  int // first bin index covered
	G, H    []float64
}

// serverSplit is one server's split-finding result.
type serverSplit struct {
	Best     Split
	Boundary []boundaryPiece
}

// maskAllows reports whether feature f may be split on under mask.
func maskAllows(mask []bool, f int) bool { return mask == nil || (f < len(mask) && mask[f]) }

// findSplitPS2 runs split finding server-side over the two co-located
// histogram DCVs (the paper's max operator, footnote 5): each server scans
// the features fully contained in its range and returns its best split plus
// raw partial bins for (at most two) boundary-straddling features, which the
// driver merges exactly.
func (st *trainerState) findSplitPS2(p *simnet.Proc, tot nodeTotals, mask []bool) (Split, error) {
	cfg := st.cfg
	lambda := cfg.Lambda
	results, err := dcv.ZipReduce(p, st.e.Driver(), st.gradHist, st.e.Cluster.Cost.FlopsPerElem, 64,
		func(sp dcv.ShardSpan) serverSplit {
			if !sp.Contiguous() {
				// The prefix-sum scan and boundary-piece protocol assume each
				// server owns a dense bin range; create the histogram matrices
				// with the default range placement.
				panic("gbdt: split finding requires a contiguous placement")
			}
			res := serverSplit{Best: Split{Feature: -1, Gain: math.Inf(-1)}}
			gRow, hRow := sp.Rows[0], sp.Rows[1]
			firstF := sp.Lo / cfg.Bins
			lastF := (sp.Hi - 1) / cfg.Bins
			for f := firstF; f <= lastF; f++ {
				if !maskAllows(mask, f) {
					continue
				}
				fLo, fHi := f*cfg.Bins, (f+1)*cfg.Bins
				if fLo >= sp.Lo && fHi <= sp.Hi {
					// Fully contained: scan left-to-right prefix sums.
					var gl, hl float64
					for b := 0; b < cfg.Bins-1; b++ {
						gl += gRow[fLo-sp.Lo+b]
						hl += hRow[fLo-sp.Lo+b]
						if hl < cfg.MinChildWeight || tot.H-hl < cfg.MinChildWeight {
							continue
						}
						if gn := gain(gl, hl, tot.G, tot.H, lambda); gn > res.Best.Gain {
							res.Best = Split{Feature: f, BinThreshold: b, Gain: gn, LeftWeight: hl}
						}
					}
					continue
				}
				// Boundary feature: ship the local piece to the driver.
				lo := max(fLo, sp.Lo)
				hi := min(fHi, sp.Hi)
				piece := boundaryPiece{Feature: f, Offset: lo - fLo}
				piece.G = append(piece.G, gRow[lo-sp.Lo:hi-sp.Lo]...)
				piece.H = append(piece.H, hRow[lo-sp.Lo:hi-sp.Lo]...)
				res.Boundary = append(res.Boundary, piece)
			}
			return res
		}, st.hessHist)
	if err != nil {
		return Split{}, err
	}
	best := Split{Feature: -1, Gain: math.Inf(-1)}
	merged := map[int]*boundaryPiece{}
	for _, r := range results {
		if r.Best.Feature >= 0 && r.Best.Gain > best.Gain {
			best = r.Best
		}
		for _, piece := range r.Boundary {
			m, ok := merged[piece.Feature]
			if !ok {
				m = &boundaryPiece{Feature: piece.Feature, G: make([]float64, cfg.Bins), H: make([]float64, cfg.Bins)}
				merged[piece.Feature] = m
			}
			for i := range piece.G {
				m.G[piece.Offset+i] += piece.G[i]
				m.H[piece.Offset+i] += piece.H[i]
			}
		}
	}
	for f, m := range merged {
		var gl, hl float64
		for b := 0; b < cfg.Bins-1; b++ {
			gl += m.G[b]
			hl += m.H[b]
			if hl < cfg.MinChildWeight || tot.H-hl < cfg.MinChildWeight {
				continue
			}
			if gn := gain(gl, hl, tot.G, tot.H, cfg.Lambda); gn > best.Gain {
				best = Split{Feature: f, BinThreshold: b, Gain: gn, LeftWeight: hl}
			}
		}
	}
	return best, nil
}

// driverReduce sums the per-worker histograms at the driver, charging the
// driver's CPU for every combine — MLlib's aggregation step.
func (st *trainerState) driverReduce(p *simnet.Proc) {
	cost := st.e.Cluster.Cost
	for part := 1; part < len(st.localG); part++ {
		if st.localG[part] == nil {
			continue
		}
		st.e.Cluster.Driver.Compute(p, cost.ElemWork(st.histDim*2))
		for i := range st.localG[0] {
			st.localG[0][i] += st.localG[part][i]
			st.localH[0][i] += st.localH[part][i]
		}
	}
}

// findSplitDriver scans the driver-aggregated histograms on the driver.
func (st *trainerState) findSplitDriver(p *simnet.Proc, tot nodeTotals, features int, mask []bool) Split {
	cost := st.e.Cluster.Cost
	st.e.Cluster.Driver.Compute(p, cost.ElemWork(st.histDim))
	best := Split{Feature: -1, Gain: math.Inf(-1)}
	gh, hh := st.localG[0], st.localH[0]
	for f := 0; f < features; f++ {
		if !maskAllows(mask, f) {
			continue
		}
		var gl, hl float64
		for b := 0; b < st.cfg.Bins-1; b++ {
			gl += gh[f*st.cfg.Bins+b]
			hl += hh[f*st.cfg.Bins+b]
			if hl < st.cfg.MinChildWeight || tot.H-hl < st.cfg.MinChildWeight {
				continue
			}
			if gn := gain(gl, hl, tot.G, tot.H, st.cfg.Lambda); gn > best.Gain {
				best = Split{Feature: f, BinThreshold: b, Gain: gn, LeftWeight: hl}
			}
		}
	}
	return best
}

// findSplitAllReduce scans the full (already all-reduced) histograms; every
// worker does this redundantly in XGBoost, so the compute is charged on all
// executors in parallel.
func (st *trainerState) findSplitAllReduce(p *simnet.Proc, tot nodeTotals, features int, mask []bool) Split {
	cost := st.e.Cluster.Cost
	g := p.Sim().NewGroup()
	for _, exec := range st.e.Cluster.Executors {
		exec := exec
		g.Go("scan", func(cp *simnet.Proc) {
			exec.Compute(cp, cost.ElemWork(st.histDim))
		})
	}
	g.Wait(p)
	best := Split{Feature: -1, Gain: math.Inf(-1)}
	gh, hh := st.localG[0], st.localH[0]
	for f := 0; f < features; f++ {
		if !maskAllows(mask, f) {
			continue
		}
		var gl, hl float64
		for b := 0; b < st.cfg.Bins-1; b++ {
			gl += gh[f*st.cfg.Bins+b]
			hl += hh[f*st.cfg.Bins+b]
			if hl < st.cfg.MinChildWeight || tot.H-hl < st.cfg.MinChildWeight {
				continue
			}
			if gn := gain(gl, hl, tot.G, tot.H, st.cfg.Lambda); gn > best.Gain {
				best = Split{Feature: f, BinThreshold: b, Gain: gn, LeftWeight: hl}
			}
		}
	}
	return best
}

// growTree builds one tree level by level, node by node (paper Figure 8's
// outer loop).
func (st *trainerState) growTree(p *simnet.Proc, features, treeIdx int) (*Tree, error) {
	if err := st.ensureHists(p, features); err != nil {
		return nil, err
	}
	mask := st.featureMask(treeIdx, features)
	tree := &Tree{}
	type work struct {
		node  int32
		depth int
	}
	tree.Nodes = append(tree.Nodes, TreeNode{Left: -1, Right: -1})
	queue := []work{{node: 0, depth: 1}}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		tot, err := st.buildHistograms(p, w.node, features)
		if err != nil {
			return nil, err
		}
		leafValue := 0.0
		if tot.H+st.cfg.Lambda > 0 {
			leafValue = -st.cfg.LearningRate * tot.G / (tot.H + st.cfg.Lambda)
		}
		if w.depth >= st.cfg.MaxDepth || tot.H < 2*st.cfg.MinChildWeight {
			tree.Nodes[w.node].Value = leafValue
			continue
		}
		var split Split
		switch st.cfg.Backend {
		case BackendPS2:
			if split, err = st.findSplitPS2(p, tot, mask); err != nil {
				return nil, err
			}
		case BackendAllReduce:
			split = st.findSplitAllReduce(p, tot, features, mask)
		default:
			split = st.findSplitDriver(p, tot, features, mask)
		}
		if split.Feature < 0 || split.Gain <= 1e-12 {
			tree.Nodes[w.node].Value = leafValue
			continue
		}
		// Min-child-weight was enforced during the histogram scan, so the
		// split can be applied directly — no extra counting stage.
		st.e.RDD.Broadcast(p, 24) // ship the split decision
		sp := split
		li := int32(len(tree.Nodes))
		tree.Nodes = append(tree.Nodes, TreeNode{Left: -1, Right: -1})
		ri := int32(len(tree.Nodes))
		tree.Nodes = append(tree.Nodes, TreeNode{Left: -1, Right: -1})
		tree.Nodes[w.node].Split = &sp
		tree.Nodes[w.node].Left = int(li)
		tree.Nodes[w.node].Right = int(ri)
		st.routeRows(p, w.node, li, ri, split)
		queue = append(queue, work{node: li, depth: w.depth + 1}, work{node: ri, depth: w.depth + 1})
	}
	return tree, nil
}

// routeRows reassigns a node's rows to its children.
func (st *trainerState) routeRows(p *simnet.Proc, node, left, right int32, split Split) {
	cost := st.e.Cluster.Cost
	rdd.RunPartitions(p, st.dataset, 8, func(tc *rdd.TaskContext, part int, rows []Row) struct{} {
		n := 0
		for i := range rows {
			if st.nodeOf[part][i] != node {
				continue
			}
			n++
			if int(rows[i].Bins[split.Feature]) <= split.BinThreshold {
				st.nodeOf[part][i] = left
			} else {
				st.nodeOf[part][i] = right
			}
		}
		tc.Charge(cost.ElemWork(n))
		tc.Commit()
		return struct{}{}
	})
}

// applyTree adds the new tree's predictions to every row's margin and
// returns the resulting training logloss.
func (st *trainerState) applyTree(p *simnet.Proc, tree *Tree) float64 {
	cost := st.e.Cluster.Cost
	losses := rdd.RunPartitions(p, st.dataset, 16, func(tc *rdd.TaskContext, part int, rows []Row) [2]float64 {
		var lossSum float64
		for i := range rows {
			st.margins[part][i] += tree.Predict(rows[i].Bins)
			lossSum += linalg.LogLoss(st.margins[part][i], rows[i].Label)
		}
		tc.Charge(cost.ElemWork(len(rows) * len(tree.Nodes)))
		tc.Commit()
		return [2]float64{lossSum, float64(len(rows))}
	})
	var lossSum, n float64
	for _, l := range losses {
		lossSum += l[0]
		n += l[1]
	}
	if n == 0 {
		return math.NaN()
	}
	return lossSum / n
}
