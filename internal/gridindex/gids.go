package gridindex

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"asrs/internal/asp"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
	"asrs/internal/kernel"
)

// GI-DS (Algorithm 2): estimate a distance lower bound for the candidate
// regions bl-corner-located in every index cell, then search the cells
// best-first with DS-Search, stopping when the cheapest unsearched cell
// cannot beat the incumbent (d_opt exactly, or d_opt/(1+δ) for app-GIDS).

// Stats reports the work of one GI-DS run. CellsSearched/Cells is the
// "ratio of cells searched" column of Table 1.
type Stats struct {
	Cells         int // index cells considered
	CellsSearched int // cells handed to DS-Search
	CellsExcluded int // cells reached by the best-first loop but wholly forbidden by exclusions (not in CellsSearched)
	MarginRuns    int // DS-Search runs on the reduction margins
	Pieces        int // sub-rectangles actually searched: margin runs plus every piece of every searched cell
	ExcludingRuns int // completed runs that searched under a non-empty exclusion list
	DS            dssearch.Stats
}

// Add folds another run's counters into s (the rounds of a top-k).
func (s *Stats) Add(o Stats) {
	s.Cells += o.Cells
	s.CellsSearched += o.CellsSearched
	s.CellsExcluded += o.CellsExcluded
	s.MarginRuns += o.MarginRuns
	s.Pieces += o.Pieces
	s.ExcludingRuns += o.ExcludingRuns
	s.DS.Add(o.DS)
}

type cellCand struct {
	lb   float64
	rect geom.Rect
}

// Solve runs GI-DS for an a×b query over the index. rects must be the
// AnchorTR reduction of the indexed dataset with the same extent (the
// bl-corner bucketing of §5.3 assumes the top-right-corner reduction).
// opt.Delta > 0 selects the approximate variant (app-GIDS). The cell
// lower-bound pass and the per-cell DS-Search refinement both use
// opt.Workers; the answer is independent of the worker count.
//
// exclude lists rectangles the answer region may not overlap (beyond a
// shared boundary); an empty list is Algorithm 2 as published. Each
// exclusion forbids an open box of answer points
// (dssearch.ForbiddenBoxes), and everything searched — the margin strips
// and each cell the best-first loop reaches — is first cut into the
// pieces that avoid every box. A cell's lower bound bounds every answer
// point in the cell and so every point of a piece of it: the loop's
// order and stopping rule stand as they are. A wholly forbidden cell has
// no piece and is passed over.
func Solve(idx *Index, rects []asp.RectObject, q asp.Query, a, b float64, exclude []geom.Rect, opt dssearch.Options) (asp.Result, Stats, error) {
	if idx.f != q.F {
		return asp.Result{}, Stats{}, fmt.Errorf("gridindex: index was built for a different composite aggregator")
	}
	if err := q.Validate(); err != nil {
		return asp.Result{}, Stats{}, err
	}
	// Ownership of rects passes to the searcher, whose aggregation layer
	// may re-sort them by MinX; every use below goes through the searcher
	// or is order-independent.
	searcher, err := dssearch.NewSearcherOwning(rects, q, opt)
	if err != nil {
		return asp.Result{}, Stats{}, err
	}
	defer searcher.Release()
	rects = searcher.Rects()
	var stats Stats

	// Seed the incumbent with the empty covering set.
	space := asp.Space(rects)
	emptyP := asp.EmptyCandidate(space)
	emptyRep := searcher.PointRepresentation(emptyP)
	searcher.SeedBest(asp.Result{Point: emptyP, Dist: q.Distance(emptyRep), Rep: emptyRep})

	if len(rects) > 0 {
		forbidden := dssearch.ForbiddenBoxes(exclude, a, b)
		var pieces []geom.Rect

		// The reduction extends the candidate space below/left of the
		// indexed bounds by (a, b); those thin margins are searched
		// directly (no index cells bucket them).
		bounds := idx.bounds
		margins := []geom.Rect{
			{MinX: space.MinX, MinY: space.MinY, MaxX: bounds.MinX, MaxY: space.MaxY},
			{MinX: bounds.MinX, MinY: space.MinY, MaxX: space.MaxX, MaxY: bounds.MinY},
		}
		for _, m := range margins {
			if !m.IsValid() || m.IsEmpty() {
				continue
			}
			pieces = dssearch.AppendPieces(pieces[:0], m, forbidden)
			for _, p := range pieces {
				stats.MarginRuns++
				stats.Pieces++
				searcher.SolveWithin(p, 0)
			}
		}

		// Lines 2–4: lower-bound every cell and heap them.
		h := kernel.NewHeap[cellCand](func(x, y cellCand) bool { return x.lb < y.lb })
		h.Grow(idx.sx * idx.sy)
		lbs := idx.ParallelCellLowerBounds(q, a, b, kernel.Workers(opt.Workers))
		for j := 0; j < idx.sy; j++ {
			for i := 0; i < idx.sx; i++ {
				stats.Cells++
				h.Push(cellCand{lb: lbs[j*idx.sx+i], rect: idx.CellRect(i, j)})
			}
		}

		// Lines 5–7: best-first refinement. Rectangle id subsets per piece
		// come from the searcher's binary-searched master window, not a
		// linear scan.
		var sub []int32
		for h.Len() > 0 && searcher.Err() == nil {
			top := h.Pop()
			thresh := searcher.Best().Dist
			if opt.Delta > 0 {
				thresh /= 1 + opt.Delta
			}
			if top.lb >= thresh {
				break
			}
			pieces = dssearch.AppendPieces(pieces[:0], top.rect, forbidden)
			if len(pieces) == 0 {
				stats.CellsExcluded++
				continue
			}
			stats.CellsSearched++
			for _, p := range pieces {
				stats.Pieces++
				sub = searcher.AppendWindowIDs(p, sub[:0])
				searcher.SolveWithinIDs(p, top.lb, sub)
			}
		}
	}
	if err := searcher.Err(); err != nil {
		stats.DS = searcher.Stats
		return asp.Result{}, stats, err
	}

	best := searcher.Best()
	best.Rep = searcher.PointRepresentation(best.Point)
	best.Dist = q.Distance(best.Rep)
	stats.DS = searcher.Stats
	if len(exclude) > 0 {
		stats.ExcludingRuns = 1
	}
	return best, stats, nil
}

// lbScratch bundles the per-query scratch of the cell lower-bound pass
// — channel vectors, bound vectors, min/max slots and the integer-dim
// flags — carved from one slab allocation. Index.CellLowerBounds used
// to allocate its nine slices on every query (and the parallel variant
// once per worker); scratches now recycle through the index's pool, so
// steady-state GI-DS queries reallocate nothing here.
type lbScratch struct {
	full, big, part []float64
	lo, hi          []float64
	mmMin, mmMax    []float64
	isInt           []bool
}

func (x *Index) getLBScratch() *lbScratch {
	if sc, ok := x.lbPool.Get().(*lbScratch); ok && sc != nil {
		return sc
	}
	dims := x.f.Dims()
	slab := make([]float64, 3*x.chans+2*dims+2*x.mmSlots)
	carve := func(n int) []float64 {
		out := slab[:n:n]
		slab = slab[n:]
		return out
	}
	return &lbScratch{
		full:  carve(x.chans),
		big:   carve(x.chans),
		part:  carve(x.chans),
		lo:    carve(dims),
		hi:    carve(dims),
		mmMin: carve(x.mmSlots),
		mmMax: carve(x.mmSlots),
		isInt: x.f.IntegerDims(),
	}
}

func (x *Index) putLBScratch(sc *lbScratch) { x.lbPool.Put(sc) }

// CellLowerBounds computes the §5.3 lower bound for every index cell:
// bounded region ⊆ every candidate region ⊆ bounding region, evaluated
// with Lemma 8 and Equation 1. Returned in row-major order (j*sx+i).
func (x *Index) CellLowerBounds(q asp.Query, a, b float64) []float64 {
	out := make([]float64, x.sx*x.sy)
	sc := x.getLBScratch()
	for j := 0; j < x.sy; j++ {
		x.rowLowerBounds(q, a, b, j, out[j*x.sx:(j+1)*x.sx], sc)
	}
	x.putLBScratch(sc)
	return out
}

// ParallelCellLowerBounds computes CellLowerBounds with row-parallelism;
// results are identical for every worker count (rows are computed
// independently). workers <= 0 selects runtime.GOMAXPROCS(0).
func (x *Index) ParallelCellLowerBounds(q asp.Query, a, b float64, workers int) []float64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || x.sy < 2*workers {
		return x.CellLowerBounds(q, a, b)
	}
	out := make([]float64, x.sx*x.sy)
	var wg sync.WaitGroup
	rows := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := x.getLBScratch()
			for j := range rows {
				x.rowLowerBounds(q, a, b, j, out[j*x.sx:(j+1)*x.sx], sc)
			}
			x.putLBScratch(sc)
		}()
	}
	for j := 0; j < x.sy; j++ {
		rows <- j
	}
	close(rows)
	wg.Wait()
	return out
}

// rowLowerBounds fills one row of CellLowerBounds using a pooled
// scratch (so the parallel variant can shard by row, one scratch per
// worker).
func (x *Index) rowLowerBounds(q asp.Query, a, b float64, j int, out []float64, sc *lbScratch) {
	ib, it := x.insideRows(j, b)
	ob, ot := x.boundRows(j, b)
	for i := 0; i < x.sx; i++ {
		il, ir := x.insideCols(i, a)
		ol, or := x.boundCols(i, a)

		x.RegionChannels(il, ir, ib, it, sc.full)
		x.RegionChannels(ol, or, ob, ot, sc.big)
		for ch := 0; ch < x.chans; ch++ {
			// The partial set is the bounding region minus the bounded
			// one, so its channel totals are exactly big−full. Values
			// may be legitimately negative (the sumNeg channel of fS);
			// only float residue from the telescoped sums is clamped.
			v := sc.big[ch] - sc.full[ch]
			if v < 0 && v > -1e-9 {
				v = 0
			}
			sc.part[ch] = v
		}
		if x.mmSlots > 0 {
			for s := 0; s < x.mmSlots; s++ {
				sc.mmMin[s] = math.Inf(1)
				sc.mmMax[s] = math.Inf(-1)
			}
			x.RingMinMax(ol, or, ob, ot, il, ir, ib, it, sc.mmMin, sc.mmMax)
		}
		x.f.FinalizeBounds(sc.full, sc.part, sc.mmMin, sc.mmMax, sc.lo, sc.hi)
		out[i] = q.LowerBoundInt(sc.lo, sc.hi, sc.isInt)
	}
}

// insideCols returns the [l, r) column range of cells fully covered by
// every candidate region whose bl corner lies in column i: columns inside
// [X_{i+1}, X_i + a]. Objects in those cells satisfy p.x < x < p.x+a
// strictly for every corner p in the half-open bucket [X_i, X_{i+1})
// because binning is half-open too — except that boundary objects at the
// dataset maximum are clamped into the last cell, so a range reaching the
// last column is shrunk by one (conservatively partial).
func (x *Index) insideCols(i int, a float64) (int, int) {
	l := i + 1
	hi := x.bounds.MinX + float64(i)*x.cw + a
	r := l
	for r < x.sx && x.bounds.MinX+float64(r+1)*x.cw <= hi {
		r++
	}
	if r == x.sx && r > l {
		r--
	}
	return l, r
}

func (x *Index) insideRows(j int, b float64) (int, int) {
	bo := j + 1
	hi := x.bounds.MinY + float64(j)*x.chh + b
	t := bo
	for t < x.sy && x.bounds.MinY+float64(t+1)*x.chh <= hi {
		t++
	}
	if t == x.sy && t > bo {
		t--
	}
	return bo, t
}

// boundCols returns the [l, r) column range of cells intersected by any
// candidate region with bl corner in column i: columns meeting
// [X_i, X_{i+1} + a].
func (x *Index) boundCols(i int, a float64) (int, int) {
	hi := x.bounds.MinX + float64(i+1)*x.cw + a
	r := i + 1
	for r < x.sx && x.bounds.MinX+float64(r)*x.cw < hi {
		r++
	}
	return i, r
}

func (x *Index) boundRows(j int, b float64) (int, int) {
	hi := x.bounds.MinY + float64(j+1)*x.chh + b
	t := j + 1
	for t < x.sy && x.bounds.MinY+float64(t)*x.chh < hi {
		t++
	}
	return j, t
}
