package gridindex

import (
	"fmt"
	"math"

	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
	"asrs/internal/kernel"
)

// GI-DS (Algorithm 2): estimate a distance lower bound for the candidate
// regions bl-corner-located in every index cell, then search the cells
// best-first with DS-Search, stopping when the cheapest unsearched cell
// cannot beat the incumbent (d_opt exactly, or d_opt/(1+δ) for app-GIDS).
// The two margin strips the reduction adds left of and below the indexed
// bounds are bounded the same way and take their place in that order.

// Stats reports the work of one GI-DS run. CellsSearched/Cells is the
// "ratio of cells searched" column of Table 1.
type Stats struct {
	Cells          int // index cells considered
	CellsSearched  int // cells handed to DS-Search
	CellsExcluded  int // cells reached by the best-first loop but wholly forbidden by exclusions (not in CellsSearched)
	MarginRuns     int // DS-Search runs on the reduction margins
	MarginsSkipped int // margin strips never searched: the search ended below their bound
	Pieces         int // sub-rectangles actually searched: margin runs plus every piece of every searched cell
	ExcludingRuns  int // completed runs that searched under a non-empty exclusion list
	// LeftMarginLB and BottomMarginLB are the lower bounds of the two
	// margin strips (+Inf for a strip the space does not have). They do
	// not depend on the exclusions: the rounds of a top-k share them.
	LeftMarginLB, BottomMarginLB float64
	DS                           dssearch.Stats
}

// Add folds another run's counters into s (the rounds of a top-k).
func (s *Stats) Add(o Stats) {
	s.Cells += o.Cells
	s.CellsSearched += o.CellsSearched
	s.CellsExcluded += o.CellsExcluded
	s.MarginRuns += o.MarginRuns
	s.MarginsSkipped += o.MarginsSkipped
	s.Pieces += o.Pieces
	s.ExcludingRuns += o.ExcludingRuns
	s.LeftMarginLB, s.BottomMarginLB = o.LeftMarginLB, o.BottomMarginLB
	s.DS.Add(o.DS)
}

// cellCand is a heap entry: an index cell under its lower bound.
type cellCand struct {
	lb   float64
	i, j int32
}

// margin is one of the two strips no cell buckets, under the minimum
// bound of the virtual cells that tile it (marginBounds).
type margin struct {
	rect geom.Rect
	lb   float64
}

// Solve runs GI-DS for an a×b query over the index, which must have been
// built over ds: the searcher is that of the request
// (dssearch.NewRegionSearcher: the bl-corner bucketing of §5.3 assumes its
// top-right-corner reduction). opt.Delta > 0 selects the approximate
// variant (app-GIDS).
//
// The reduction extends the candidate space left of and below the indexed
// bounds by (a, b). No cell buckets those two margin strips; each carries
// a bound of its own and is searched whole, in order: every step of the
// best-first loop takes the pending strip with the smaller bound if that
// bound is at most the cheapest cell's — a strip goes before a cell of
// equal bound — and else pops the cell, and the search ends at the first
// one taken whose bound cannot beat the incumbent. The cell heap is built
// and popped exactly as if there were no strips.
//
// exclude lists rectangles the answer region may not overlap (beyond a
// shared boundary); an empty list is Algorithm 2 as published. Each
// exclusion forbids an open box of answer points
// (dssearch.ForbiddenBoxes), and everything searched — a margin strip or
// a cell the loop takes — is first cut into the pieces that avoid every
// box. A lower bound bounds every answer point of its cell or strip and
// so every point of a piece of it: the loop's order and stopping rule
// stand as they are. A wholly forbidden cell has no piece and is passed
// over.
func Solve(idx *Index, ds *attr.Dataset, q asp.Query, a, b float64, exclude []geom.Rect, opt dssearch.Options) (asp.Result, Stats, error) {
	if idx.f != q.F {
		return asp.Result{}, Stats{}, fmt.Errorf("gridindex: index was built for a different composite aggregator")
	}
	searcher, err := dssearch.NewRegionSearcher(ds, a, b, q, opt)
	if err != nil {
		return asp.Result{}, Stats{}, err
	}
	defer searcher.Release()
	stats := Stats{LeftMarginLB: math.Inf(1), BottomMarginLB: math.Inf(1)}

	// Seed the incumbent with the empty covering set.
	space := searcher.Space()
	emptyP := asp.EmptyCandidate(space)
	emptyRep := searcher.PointRepresentation(emptyP)
	searcher.SeedBest(asp.Result{Point: emptyP, Dist: q.Distance(emptyRep), Rep: emptyRep})

	if len(searcher.Rects()) > 0 {
		forbidden := dssearch.ForbiddenBoxes(exclude, a, b)
		sc := idx.getLBScratch()
		defer idx.putLBScratch(sc)

		// Lines 2–4: lower-bound every cell and heap them.
		n := idx.sx * idx.sy
		if cap(sc.lbs) < n {
			sc.lbs = make([]float64, n)
			sc.heap = kernel.NewHeap[cellCand](func(x, y cellCand) bool { return x.lb < y.lb })
		}
		lbs, h := sc.lbs[:n], sc.heap
		idx.fillLowerBounds(lbs, q, a, b, sc)
		h.Reset()
		for j := 0; j < idx.sy; j++ {
			for i := 0; i < idx.sx; i++ {
				h.Push(cellCand{lb: lbs[j*idx.sx+i], i: int32(i), j: int32(j)})
			}
		}
		stats.Cells = n

		// The strips, in the order they are taken in: by bound, the left one
		// first at equal bounds. A space that does not reach past the bounds
		// on a side (an extent below one ulp of the coordinates) has no
		// strip there.
		bounds := idx.bounds
		left, bottom := idx.marginBounds(q, a, b, sc)
		pending := make([]margin, 0, 2)
		if r := (geom.Rect{MinX: space.MinX, MinY: space.MinY, MaxX: bounds.MinX, MaxY: space.MaxY}); r.IsValid() && !r.IsEmpty() {
			pending = append(pending, margin{r, left})
			stats.LeftMarginLB = left
		}
		if r := (geom.Rect{MinX: bounds.MinX, MinY: space.MinY, MaxX: space.MaxX, MaxY: bounds.MinY}); r.IsValid() && !r.IsEmpty() {
			pending = append(pending, margin{r, bottom})
			stats.BottomMarginLB = bottom
		}
		if len(pending) == 2 && pending[1].lb < pending[0].lb {
			pending[0], pending[1] = pending[1], pending[0]
		}

		// Lines 5–7: best-first refinement. Rectangle id subsets per piece
		// of a cell come from the searcher's binary-searched master window,
		// not a linear scan.
		var pieces []geom.Rect
		var sub []int32
		for (len(pending) > 0 || h.Len() > 0) && searcher.Err() == nil {
			thresh := searcher.Best().Dist
			if opt.Delta > 0 {
				thresh /= 1 + opt.Delta
			}
			if len(pending) > 0 && (h.Len() == 0 || pending[0].lb <= h.Peek().lb) {
				m := pending[0]
				if m.lb >= thresh {
					break
				}
				pending = pending[1:]
				pieces = dssearch.AppendPieces(pieces[:0], m.rect, forbidden)
				for _, p := range pieces {
					stats.MarginRuns++
					stats.Pieces++
					searcher.SolveWithin(p, m.lb)
				}
				continue
			}
			top := h.Pop()
			if top.lb >= thresh {
				break
			}
			pieces = dssearch.AppendPieces(pieces[:0], idx.CellRect(int(top.i), int(top.j)), forbidden)
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
		stats.MarginsSkipped = len(pending)
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
// flags — carved from one slab allocation, and what a Solve builds from
// the bounds: the bound array and the cell heap (absent from a scratch
// only CellLowerBounds has used so far). Scratches recycle through the
// index's pool, so steady-state GI-DS queries reallocate nothing here.
type lbScratch struct {
	full, big, part []float64
	lo, hi          []float64
	mmMin, mmMax    []float64
	isInt           []bool

	lbs  []float64
	heap *kernel.Heap[cellCand]
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
	x.fillLowerBounds(out, q, a, b, sc)
	x.putLBScratch(sc)
	return out
}

// fillLowerBounds is CellLowerBounds into a caller's array.
func (x *Index) fillLowerBounds(out []float64, q asp.Query, a, b float64, sc *lbScratch) {
	for j := 0; j < x.sy; j++ {
		x.rowLowerBounds(q, a, b, j, out[j*x.sx:(j+1)*x.sx], sc)
	}
}

// span holds, along one axis, the §5.3 cell ranges of the candidate
// regions whose bl corner lies in one bucket of that axis: [il, ir) are
// covered by every such region, [ol, or) met by some.
type span struct{ il, ir, ol, or int }

func (x *Index) colSpan(i int, a float64) span {
	il, ir := x.insideCols(i, a)
	ol, or := x.boundCols(i, a)
	return span{il, ir, ol, or}
}

func (x *Index) rowSpan(j int, b float64) span {
	ib, it := x.insideRows(j, b)
	ob, ot := x.boundRows(j, b)
	return span{ib, it, ob, ot}
}

// rowLowerBounds fills one row of CellLowerBounds.
func (x *Index) rowLowerBounds(q asp.Query, a, b float64, j int, out []float64, sc *lbScratch) {
	rows := x.rowSpan(j, b)
	for i := 0; i < x.sx; i++ {
		out[i] = x.cellLowerBound(q, x.colSpan(i, a), rows, sc)
	}
}

// cellLowerBound is the §5.3 bound of the candidate regions whose bl
// corner lies in the bucket with these column and row spans. Ranges may
// reach outside the grid: there is nothing there, and RegionChannels and
// RingMinMax clamp.
func (x *Index) cellLowerBound(q asp.Query, cols, rows span, sc *lbScratch) float64 {
	x.RegionChannels(cols.il, cols.ir, rows.il, rows.ir, sc.full)
	x.RegionChannels(cols.ol, cols.or, rows.ol, rows.or, sc.big)
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
		x.RingMinMax(cols.ol, cols.or, rows.ol, rows.or, cols.il, cols.ir, rows.il, rows.ir, sc.mmMin, sc.mmMax)
	}
	x.f.FinalizeBounds(sc.full, sc.part, sc.mmMin, sc.mmMax, sc.lo, sc.hi)
	return q.LowerBoundInt(sc.lo, sc.hi, sc.isInt)
}

// marginBounds lower-bounds the two margin strips of an a×b query: the
// left one, every candidate point with x below the bounds, and the bottom
// one, the points with x inside the bounds and y below them. Each is
// tiled with virtual index cells — columns −nx…−1 and rows −ny…−1, the
// grid continued past its origin, nx = ⌈a/cw⌉ and ny = ⌈b/ch⌉ reaching as
// far as the reduction does — bounded by the formulas of the real ones
// (the span functions are arithmetic in the cell index; virtual cells
// hold no objects), and a strip takes the minimum over its tiles: left,
// columns < 0 at every row, virtual or real; bottom, columns ≥ 0 at rows
// < 0.
//
// nx and ny are capped at the grid's own size, so that a query larger
// than the bounds costs at most three more grids of bounds. The farthest
// virtual column then also owns everything left of it, where a region
// reaches less far into the grid than the column's formula assumes: its
// inside range is emptied, which every region further left satisfies (the
// bounding range is governed by the bucket's near edge and stands).
// Without the cap the formula's own range is empty there. Rows likewise.
func (x *Index) marginBounds(q asp.Query, a, b float64, sc *lbScratch) (left, bottom float64) {
	nx := int(math.Min(math.Ceil(a/x.cw), float64(x.sx)))
	ny := int(math.Min(math.Ceil(b/x.chh), float64(x.sy)))
	left, bottom = math.Inf(1), math.Inf(1)
	for j := -ny; j < x.sy; j++ {
		rows := x.rowSpan(j, b)
		if j == -ny {
			rows.ir = rows.il
		}
		for i := -nx; i < 0; i++ {
			cols := x.colSpan(i, a)
			if i == -nx {
				cols.ir = cols.il
			}
			left = math.Min(left, x.cellLowerBound(q, cols, rows, sc))
		}
		if j < 0 {
			for i := 0; i < x.sx; i++ {
				bottom = math.Min(bottom, x.cellLowerBound(q, x.colSpan(i, a), rows, sc))
			}
		}
	}
	return left, bottom
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
