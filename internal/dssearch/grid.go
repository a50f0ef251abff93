package dssearch

import (
	"math"

	"asrs/internal/agg"
	"asrs/internal/geom"
)

// cellInfo is one surviving dirty cell: its extent and Equation 1 lower
// bound.
type cellInfo struct {
	rect geom.Rect
	lb   float64
}

// gridBuffers holds the reusable scratch memory of Function Discretize:
// 2D difference arrays for the full-cover and overlap grids, per-cell
// min/max slots for average aggregators and the precomputed cell edge
// coordinates. A cell's vector in either grid is its limb sums followed
// by one count slot, the number of rectangles covering (diffFull) or
// overlapping (diffPart) it. A Searcher owns one, recycled with its slab
// through the SlabCache.
type gridBuffers struct {
	ncol, nrow int
	limbs      int // the limb count (agg.Limbs.Eff); slot limbs of a cell's vector is its count
	chans      int // grid vector stride: limbs + 1
	lchans     int // channel count (f.Channels())
	mmSlots    int
	dims       int

	diffFull []float64 // (nrow+1)*(ncol+1)*chans difference array: rectangles covering a cell
	diffPart []float64 // same layout: rectangles overlapping a cell; a cell's partial covers are diffPart − diffFull
	dense    []float64 // limb sums of the rectangles covering the whole grid
	mmMin    []float64 // nrow*ncol*mmSlots
	mmMax    []float64

	xe []float64 // cell edge x coordinates: xe[i] = space.MinX + i*cw
	ye []float64

	rep []float64

	// Fold scratch: channel views of limb cell vectors (agg.Limbs.Fold).
	foldFull []float64
	foldPart []float64

	probeCh []float64 // probeCellCenters' limb totals at a probe point

	rowSum     []float64 // integRow's running sum along one row
	dirtyCells []int32   // pass 1 output: flat indices (cellIdx) of the dirty cells, row-major
}

// maxGridDim bounds NCol and NRow so that every flat cell index of the
// padded (ncol+1)×(nrow+1) grid fits the int32 of dirtyCells.
const maxGridDim = math.MaxInt16 - 1

// newGridBuffers builds the buffers of an ncol×nrow grid for the
// composite f summed in eff limbs. The float buffers are carved from one
// slab.
func newGridBuffers(ncol, nrow int, f *agg.Composite, eff int) *gridBuffers {
	g := &gridBuffers{
		ncol:       ncol,
		nrow:       nrow,
		limbs:      eff,
		chans:      eff + 1,
		lchans:     f.Channels(),
		mmSlots:    f.MinMaxSlots(),
		dims:       f.Dims(),
		dirtyCells: make([]int32, 0, ncol*nrow),
	}
	pad := (nrow + 1) * (ncol + 1)
	slab := make([]float64, 0, 2*pad*g.chans+2*g.limbs+2*nrow*ncol*g.mmSlots+(ncol+1)+(nrow+1)+g.dims+2*g.lchans+ncol*g.chans)
	carve := func(n int) []float64 {
		slab = slab[:len(slab)+n]
		return slab[len(slab)-n:]
	}
	g.diffFull = carve(pad * g.chans)
	g.diffPart = carve(pad * g.chans)
	g.dense = carve(g.limbs)
	if g.mmSlots > 0 {
		g.mmMin = carve(nrow * ncol * g.mmSlots)
		g.mmMax = carve(nrow * ncol * g.mmSlots)
	}
	g.xe = carve(ncol + 1)
	g.ye = carve(nrow + 1)
	g.rep = carve(g.dims)
	g.foldFull = carve(g.lchans)
	g.foldPart = carve(g.lchans)
	g.probeCh = carve(g.limbs)
	g.rowSum = carve(ncol * g.chans)
	return g
}

// shape reslices the buffers to an ncol×nrow grid, at most the size they
// were built for: every buffer keeps its capacity, and the row strides
// follow g.ncol, so a smaller grid is the leading part of each.
func (g *gridBuffers) shape(ncol, nrow int) {
	if ncol == g.ncol && nrow == g.nrow {
		return
	}
	g.ncol, g.nrow = ncol, nrow
	pad := (nrow + 1) * (ncol + 1)
	g.diffFull = g.diffFull[:pad*g.chans]
	g.diffPart = g.diffPart[:pad*g.chans]
	g.mmMin = g.mmMin[:nrow*ncol*g.mmSlots]
	g.mmMax = g.mmMax[:nrow*ncol*g.mmSlots]
	g.xe = g.xe[:ncol+1]
	g.ye = g.ye[:nrow+1]
	g.rowSum = g.rowSum[:ncol*g.chans]
}

// Index-cell grids: the first discretization of a space GI-DS enters with
// an index bound (Searcher.SolveCell) takes an n×n grid sized to its m
// rectangles, n = round(√(m/cellGridRects)) clamped to [cellGridMin, the
// configured size] — about cellGridRects rectangles per cell instead of
// the 900 cells the paper tunes for whole-space searches (DESIGN.md §5).
const (
	cellGridRects = 4
	cellGridMin   = 4
)

// cellGrid is the sized grid dimension for m rectangles under limit.
func cellGrid(m, limit int) int {
	n := int(math.Round(math.Sqrt(float64(m) / cellGridRects)))
	return min(limit, max(cellGridMin, n))
}

// reset prepares the buffers for one fill: zeroed difference arrays and
// whole-grid sums, and the min/max fold identities.
func (g *gridBuffers) reset() {
	clear(g.diffFull)
	clear(g.diffPart)
	clear(g.dense)
	for i := range g.mmMin {
		g.mmMin[i] = math.Inf(1)
		g.mmMax[i] = math.Inf(-1)
	}
}

// rangeAdd applies the sparse contributions of one rectangle, and a 1 to
// the count slot, to the 2D difference array diff over cell rows [r0,r1]
// × cols [c0,c1] (inclusive, assumed valid). Closing corners past the
// last column or row land in the pad, which no cell's prefix sum
// includes.
func (g *gridBuffers) rangeAdd(diff []float64, contribs []agg.Contrib, c0, r0, c1, r1 int) {
	w := g.ncol + 1
	a := (r0*w + c0) * g.chans
	b := (r0*w + c1 + 1) * g.chans
	c := ((r1+1)*w + c0) * g.chans
	d := ((r1+1)*w + c1 + 1) * g.chans
	for _, cb := range contribs {
		diff[a+cb.Ch] += cb.V
		diff[b+cb.Ch] -= cb.V
		diff[c+cb.Ch] -= cb.V
		diff[d+cb.Ch] += cb.V
	}
	n := g.limbs
	diff[a+n]++
	diff[b+n]--
	diff[c+n]--
	diff[d+n]++
}

// mmRing folds the min/max contributions into the cells of the overlap
// range [c0,c1] × [r0,r1] that the full range [fc0,fc1] × [fr0,fr1] (empty
// when fc0 > fc1 or fr0 > fr1) leaves: the partially covered cells, as up
// to four rectangles.
func (g *gridBuffers) mmRing(mm []agg.MMContrib, c0, r0, c1, r1, fc0, fr0, fc1, fr1 int) {
	if len(mm) == 0 {
		return
	}
	if fc0 > fc1 || fr0 > fr1 {
		g.mmUpdate(mm, c0, r0, c1, r1)
		return
	}
	g.mmUpdate(mm, c0, r0, c1, fr0-1) // bottom rows
	g.mmUpdate(mm, c0, fr1+1, c1, r1) // top rows
	g.mmUpdate(mm, c0, fr0, fc0-1, fr1)
	g.mmUpdate(mm, fc1+1, fr0, c1, fr1)
}

// mmUpdate folds the min/max contributions into every cell of the
// (possibly empty) range.
func (g *gridBuffers) mmUpdate(mm []agg.MMContrib, c0, r0, c1, r1 int) {
	for r := r0; r <= r1; r++ {
		base := (r*g.ncol + c0) * g.mmSlots
		for c := c0; c <= c1; c++ {
			for _, m := range mm {
				if m.V < g.mmMin[base+m.Slot] {
					g.mmMin[base+m.Slot] = m.V
				}
				if m.V > g.mmMax[base+m.Slot] {
					g.mmMax[base+m.Slot] = m.V
				}
			}
			base += g.mmSlots
		}
	}
}

// integrateRow turns row r of the difference arrays into per-cell values
// (in place; cell (c,r) lands at cellIdx(c,r)), given that every row
// below r already holds them. Rows are integrated one at a time so pass 1
// can evaluate each while it is still in L1.
func (g *gridBuffers) integrateRow(r int) {
	integRow(g.diffFull, g.rowSum, r, g.ncol, g.chans)
	integRow(g.diffPart, g.rowSum, r, g.ncol, g.chans)
}

// integRow is one row of a 2D prefix sum over a (ncol+1)-cell-wide,
// chans-deep array: the running sum along the row's ncol cells (kept in
// sum, ncol*chans long), with the integrated row below added on. Per
// element these are the two additions of the textbook form (all rows
// prefixed, then rows accumulated) with the same operands, so the cell
// values are the same bit for bit; the pad column and row are skipped,
// since no cell reads them.
func integRow(v, sum []float64, r, ncol, chans int) {
	n := ncol * chans
	stride := n + chans
	row := v[r*stride:][:n]
	if r == 0 {
		lead := row[chans:]
		lag := row[:len(lead)]
		for i := range lead {
			lead[i] += lag[i]
		}
		return
	}
	below := v[(r-1)*stride:][:n]
	copy(sum, row[:chans])
	for ch := range row[:chans] {
		row[ch] += below[ch]
	}
	x := row[chans:]
	lag := sum[:len(x)]
	lead := sum[chans:][:len(x)]
	under := below[chans:][:len(x)]
	for i, xi := range x {
		s := lag[i] + xi
		lead[i] = s
		x[i] = s + under[i]
	}
}

// setEdges precomputes the cell edge coordinates of a grid over space
// with cells of cw × chh.
func (g *gridBuffers) setEdges(space geom.Rect, cw, chh float64) {
	for i := range g.xe {
		g.xe[i] = space.MinX + float64(i)*cw
	}
	for j := range g.ye {
		g.ye[j] = space.MinY + float64(j)*chh
	}
}

// cellIdx returns the flat index of cell (c,r) in the integrated arrays.
func (g *gridBuffers) cellIdx(c, r int) int { return r*(g.ncol+1) + c }

// discretize implements Function Discretize (paper §4.3): it grids the
// space, classifies cells, evaluates clean cells exactly (updating the
// incumbent), bounds dirty cells, and returns the dirty cells whose lower
// bound survives the pruning threshold. The returned slice is the
// searcher's scratch, valid until the next discretize call.
//
// Cell totals come from the per-rectangle difference-array fill
// (fillRects), integrated row by row inside pass 1.
func (s *Searcher) discretize(space, clip geom.Rect, ids []int32) []cellInfo {
	g := s.grid
	ncol, nrow := g.ncol, g.nrow
	cw := space.Width() / float64(ncol)
	chh := space.Height() / float64(nrow)
	if cw <= 0 || chh <= 0 {
		// Degenerate (zero-area) space: fall back to an exact line sweep.
		s.miniSweep(space, ids)
		return nil
	}
	g.setEdges(space, cw, chh)

	g.reset()
	s.fillRects(space, ids, cw, chh)
	s.cleanPass(cw, chh)
	dirty := s.boundPass()
	s.probeCellCenters(dirty, clip, ids)
	return dirty
}

// cleanPass is pass 1 of Function Discretize: clean cells refine the
// incumbent so that pass 2 prunes against the tightest d_opt, and the
// dirty cells are listed in g.dirtyCells (row-major) for pass 2 to walk.
// The grids arrive holding the difference arrays of fillRects; each row
// is integrated just before it is evaluated. A cell is dirty when more
// rectangles overlap it than cover it: its two count slots differ (both
// are exact integer sums).
//
// A clean cell is scored from its limb totals by the query's compiled
// score (the sweep solver's, agg.ScorePlan), which reads only the limbs
// the distance does. Clean cells come in runs covered by the same
// rectangles (a covering set changes only where a rectangle edge
// crosses), so a cell whose limb totals repeat the last evaluated cell's
// bit for bit reuses its representation and distance — both are pure
// functions of those bits. The incumbent test still runs for every cell,
// so ties move the incumbent point exactly as a cell-by-cell evaluation
// would.
func (s *Searcher) cleanPass(cw, chh float64) {
	g := s.grid
	score := s.sw.Score()
	chans, n := g.chans, g.limbs
	dirty := g.dirtyCells[:0]
	var last []float64 // totals of the cell g.rep and dist were computed from
	var dist float64
	for r := 0; r < g.nrow; r++ {
		g.integrateRow(r)
		row := g.cellIdx(0, r)
		for c := range g.ncol {
			idx := row + c
			full := g.diffFull[idx*chans:][:chans]
			if g.diffPart[idx*chans+n] != full[n] {
				dirty = append(dirty, int32(idx))
				continue
			}
			full = full[:n]
			if last == nil || !sameBits(full, last) {
				s.Stats.CleanEvals++
				dist = score.Distance(full, g.rep)
				last = full
			}
			if dist <= s.cur.Dist {
				// A cell thinner than the float spacing at its coordinates
				// holds no representable point: its centre rounds onto an
				// edge, where the covering set — and the distance — is
				// another. Such a cell has no candidate to offer.
				p := geom.Point{X: g.xe[c] + cw/2, Y: g.ye[r] + chh/2}
				if g.xe[c] < p.X && p.X < g.xe[c+1] && g.ye[r] < p.Y && p.Y < g.ye[r+1] {
					s.improve(dist, p, g.rep)
				}
			}
		}
	}
	g.dirtyCells = dirty
	s.Stats.CleanCells += g.nrow*g.ncol - len(dirty)
}

// sameBits reports whether two equally long vectors hold identical bit
// patterns (so ±0 differ and a NaN equals itself, unlike ==).
func sameBits(a, b []float64) bool {
	b = b[:len(a)]
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// boundPass is pass 2 of Function Discretize: it bounds the dirty cells
// cleanPass listed and returns those whose lower bound stays under the
// pruning threshold.
//
// A dirty cell's partial-cover limbs are its overlap limbs less its
// full-cover limbs (fillRects), subtracted in place: both are exact limb
// sums, so the difference is the exact sum of the partial covers, the
// same bits a fill of the partial covers alone gives. The bound is the
// query's compiled plan (agg.BoundPlan), which stops summing once it
// reaches the threshold: a kept cell's bound is Equation 1's to the bit,
// and a pruned one needs none.
func (s *Searcher) boundPass() []cellInfo {
	g := s.grid
	tab := s.core
	dirty := s.dirty[:0]
	thresh := s.threshold()
	s.Stats.DirtyCells += len(g.dirtyCells)
	for _, di := range g.dirtyCells {
		idx := int(di)
		fullLimbs := g.diffFull[idx*g.chans:][:g.limbs]
		partLimbs := g.diffPart[idx*g.chans:][:len(fullLimbs)]
		for i, v := range fullLimbs {
			partLimbs[i] -= v
		}
		full := tab.limbs.Fold(g.foldFull, fullLimbs)
		part := tab.limbs.Fold(g.foldPart, partLimbs)
		var mmMin, mmMax []float64
		if g.mmSlots > 0 {
			// The min/max grid has no pad column: cell (c, r) sits r places
			// before its padded index.
			mi := (idx - idx/(g.ncol+1)) * g.mmSlots
			mmMin = g.mmMin[mi : mi+g.mmSlots]
			mmMax = g.mmMax[mi : mi+g.mmSlots]
		}
		if lb, ok := s.slab.bound.Under(full, part, mmMin, mmMax, thresh); ok {
			r := idx / (g.ncol + 1)
			c := idx - r*(g.ncol+1)
			cell := geom.Rect{MinX: g.xe[c], MinY: g.ye[r], MaxX: g.xe[c+1], MaxY: g.ye[r+1]}
			dirty = append(dirty, cellInfo{rect: cell, lb: lb})
		} else {
			s.Stats.PrunedCells++
		}
	}
	s.dirty = dirty
	return dirty
}

// fillRects is the difference-array fill: each rectangle is classified
// against the cell grid once (overlap range, fully-covered sub-range) and
// its contributions and a count of one range-added twice — over the
// overlap range into diffPart and over the full range into diffFull. A
// cell's partial covers are then diffPart − diffFull (boundPass), exact
// because every partial sum of a limb is (agg.Limbs), and their number is
// the difference of the count slots (cleanPass). Rectangles that cover
// the whole grid are summed into g.dense, added to both grids once at the
// end; they leave both count slots alone, as they change no difference.
// The min/max slots of average aggregators cannot be subtracted, so they
// fold only into the partially covered ring (mmRing).
//
// The cell ranges are decided by exact edge comparisons (overlapRange);
// all that varies is where the comparison walks start. Ids ascend in
// MinX, so a rectangle's column range starts at or right of its
// predecessor's and the walks resume there; rows start from a
// reciprocal-multiply guess.
func (s *Searcher) fillRects(space geom.Rect, ids []int32, cw, chh float64) {
	g := s.grid
	tab := s.core
	perH := 1 / chh
	// A rectangle that contains the space fully covers every cell — two
	// thirds of a deep space's rectangles do — provided the outermost
	// cells have width: on a collapsed edge cell "contains" stops
	// implying "overlaps", and the general classification must decide.
	ncol, nrow := g.ncol, g.nrow
	x0, xn, y0, yn := g.xe[0], g.xe[ncol], g.ye[0], g.ye[nrow]
	wide := x0 < g.xe[1] && g.xe[ncol-1] < xn && y0 < g.ye[1] && g.ye[nrow-1] < yn
	dense := g.dense
	c0, c1 := 0, 0
	for _, id := range ids {
		contribs := tab.rectContribs(id)
		r := s.rect(id)
		if wide && r.MinX <= x0 && r.MaxX >= xn && r.MinY <= y0 && r.MaxY >= yn {
			for _, cb := range contribs {
				dense[cb.Ch] += cb.V
			}
			c0, c1 = 0, ncol-1
			continue
		}
		// Columns whose open interior intersects the rect interior.
		c0, c1 = overlapRange(r.MinX, r.MaxX, c0, c1, g.xe)
		r0, r1 := overlapRange(r.MinY, r.MaxY, int((r.MinY-space.MinY)*perH), int((r.MaxY-space.MinY)*perH), g.ye)
		if c0 > c1 || r0 > r1 {
			continue
		}
		// Fully covered sub-range: every point of the cell interior is
		// strictly inside the rect (closed cell ⊆ closed rect suffices for
		// interiors; see DESIGN.md "Coverage semantics").
		fc0, fc1 := fullRange(c0, c1, r.MinX, r.MaxX, g.xe)
		fr0, fr1 := fullRange(r0, r1, r.MinY, r.MaxY, g.ye)

		g.rangeAdd(g.diffPart, contribs, c0, r0, c1, r1)
		if fc0 <= fc1 && fr0 <= fr1 {
			g.rangeAdd(g.diffFull, contribs, fc0, fr0, fc1, fr1)
		}
		if g.mmSlots > 0 {
			g.mmRing(tab.rectMM(id), c0, r0, c1, r1, fc0, fr0, fc1, fr1)
		}
	}
	for ch, v := range dense {
		g.diffFull[ch] += v
		g.diffPart[ch] += v
	}
}

// probeCellCenters evaluates the centers of the most promising surviving
// dirty cells as genuine candidate points. This does not affect
// exactness — any point's distance is a valid incumbent — but it makes
// d_opt converge early on flat distance landscapes, which is what lets
// Equation 1 prune aggressively on workloads like F2 where many regions
// are near-ties.
//
// A probe reads the space's own ids, not the master: every rectangle
// meeting the clip is among them (kernel.Item.Ids), and they ascend in
// master order, so the ones that can cover p are the binary-searched run
// with MinX < p.X < MaxX (idWindow) — the master window's rectangles that
// meet the clip, in the same order, summed to the same bits.
func (s *Searcher) probeCellCenters(dirty []cellInfo, clip geom.Rect, ids []int32) {
	const probes = 4
	if len(dirty) == 0 {
		return
	}
	// Partial selection of the `probes` lowest lower bounds.
	idx := make([]int, 0, probes)
	for i := range dirty {
		if len(idx) < probes {
			idx = append(idx, i)
			continue
		}
		worst := 0
		for j := 1; j < len(idx); j++ {
			if dirty[idx[j]].lb > dirty[idx[worst]].lb {
				worst = j
			}
		}
		if dirty[i].lb < dirty[idx[worst]].lb {
			idx[worst] = i
		}
	}
	g := s.grid
	t := s.core
	score := s.sw.Score()
	ch := g.probeCh
	for _, di := range idx {
		p := dirty[di].rect.Center()
		clear(ch)
		// The clip clause keeps the ids that meet the clip (a probe point
		// in a boundary cell can poke an ulp outside it; see Item.Clip).
		for _, id := range s.idWindow(ids, p.X, p.X) {
			rc := s.rect(id)
			if rc.ContainsOpen(p) &&
				rc.MinX < clip.MaxX && clip.MinX < rc.MaxX &&
				rc.MinY < clip.MaxY && clip.MinY < rc.MaxY {
				for _, cb := range t.rectContribs(id) {
					ch[cb.Ch] += cb.V
				}
			}
		}
		if d := score.Distance(ch, g.rep); d <= s.cur.Dist {
			s.improve(d, p, g.rep)
		}
	}
	s.Stats.CenterProbes += len(idx)
}

// overlapRange returns the inclusive range [i0, i1] of cells whose open
// interior intersects the open interval (lo, hi); i0 > i1 signals no
// overlap. Cell edges are precomputed in edges (edges[i] == min+i*step
// bit-for-bit, non-decreasing). s0 and s1 only say where the
// exact-comparison walks start: i0 comes out as the number of right
// edges at or below lo and i1 as one less than the number of left edges
// below hi whatever the seeds, so the result is consistent with every
// other edge computation in the package.
func overlapRange(lo, hi float64, s0, s1 int, edges []float64) (int, int) {
	n := len(edges) - 1
	// i0: smallest cell with right edge strictly greater than lo.
	i0 := min(max(s0, 0), n-1)
	for i0 > 0 && edges[i0] > lo {
		i0--
	}
	for i0 < n && edges[i0+1] <= lo {
		i0++
	}
	// i1: largest cell with left edge strictly smaller than hi.
	i1 := min(max(s1, 0), n-1)
	for i1 < n-1 && edges[i1+1] < hi {
		i1++
	}
	for i1 >= 0 && edges[i1] >= hi {
		i1--
	}
	return i0, i1
}

// fullRange shrinks [c0, c1] to the cells entirely inside [lo, hi]
// (closed containment).
func fullRange(c0, c1 int, lo, hi float64, edges []float64) (int, int) {
	f0, f1 := c0, c1
	for f0 <= f1 && edges[f0] < lo {
		f0++
	}
	for f1 >= f0 && edges[f1+1] > hi {
		f1--
	}
	return f0, f1
}
