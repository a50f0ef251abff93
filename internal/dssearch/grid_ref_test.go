package dssearch

import (
	"math"

	"asrs/internal/agg"
	"asrs/internal/geom"
)

// This file keeps the straightforward form of Function Discretize's
// inner loops — clear everything, float-seeded edge walks, four-corner
// range adds of the full range and of the partial ring as up to four
// pieces, a two-sweep 2D prefix sum over the padded arrays, two full
// scans of the grid with every clean cell finalized on its own and every
// dirty one bounded by FinalizeBounds and the whole LowerBoundInt — as the
// oracle the production loops of grid.go are held to bit for bit
// (TestDiscretizeMatchesReference). Its diffPart holds the partial covers
// themselves, their number in the count slot; diffFull's count slot stays
// 0. It
// shares with production only what production did not rewrite: mmUpdate
// and fullRange. The centre probes (refProbeCellCenters) scan the master
// window, where production reads the space's ids.

func (g *gridBuffers) refReset() {
	clear(g.diffFull)
	clear(g.diffPart)
	for i := range g.mmMin {
		g.mmMin[i] = math.Inf(1)
		g.mmMax[i] = math.Inf(-1)
	}
}

// refRangeAdd writes all four corners, pad column and row included.
func (g *gridBuffers) refRangeAdd(diff []float64, contribs []agg.Contrib, c0, r0, c1, r1 int) {
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
}

// refRangeAddCnt is refRangeAdd for the count slot of the partial grid.
func (g *gridBuffers) refRangeAddCnt(c0, r0, c1, r1 int) {
	w, n := g.ncol+1, g.limbs
	g.diffPart[(r0*w+c0)*g.chans+n]++
	g.diffPart[(r0*w+c1+1)*g.chans+n]--
	g.diffPart[((r1+1)*w+c0)*g.chans+n]--
	g.diffPart[((r1+1)*w+c1+1)*g.chans+n]++
}

// refIntegrate is the two-sweep 2D prefix sum over the whole padded
// arrays: every row prefixed along its columns, then rows accumulated.
func (g *gridBuffers) refIntegrate() {
	w := g.ncol + 1
	h := g.nrow + 1
	integ2D(g.diffFull, w, h, g.chans)
	integ2D(g.diffPart, w, h, g.chans)
}

func integ2D(v []float64, w, h, chans int) {
	// Prefix along columns within each row.
	for r := 0; r < h; r++ {
		row := r * w * chans
		for c := 1; c < w; c++ {
			a := row + c*chans
			b := a - chans
			for ch := 0; ch < chans; ch++ {
				v[a+ch] += v[b+ch]
			}
		}
	}
	// Prefix along rows within each column.
	for r := 1; r < h; r++ {
		cur := r * w * chans
		prev := cur - w*chans
		for i := 0; i < w*chans; i++ {
			v[cur+i] += v[prev+i]
		}
	}
}

// refDiscretize is Function Discretize as two full scans of the grid:
// every clean cell finalized on its own, then every cell revisited for
// the dirty ones. afterPass1, when non-nil, runs between the scans;
// probed, when non-nil, is called with every rectangle a centre probe
// counts.
func (s *Searcher) refDiscretize(space, clip geom.Rect, ids []int32, afterPass1 func(), probed func(id int32)) []cellInfo {
	if s.grid == nil {
		// Acquired lazily at first use: GI-DS runs SolveCell once
		// per index cell, and cells at or below the sweep cutoff never
		// discretize at all.
		s.grid = newGridBuffers(s.opt.NCol, s.opt.NRow, s.query.F, s.core.limbs.Eff())
	}
	g := s.grid
	query := &s.query
	ncol, nrow := g.ncol, g.nrow
	cw := space.Width() / float64(ncol)
	chh := space.Height() / float64(nrow)
	if cw <= 0 || chh <= 0 {
		// Degenerate (zero-area) space: fall back to an exact line sweep.
		s.miniSweep(space, ids)
		return nil
	}
	g.setEdges(space, cw, chh)

	tab := s.core
	s.refFillGridDiff(space, ids, cw, chh)
	partials := func(idx int) float64 { return g.diffPart[idx*g.chans+g.limbs] }

	// Pass 1: clean cells refine the incumbent so that pass 2 prunes
	// against the tightest d_opt.
	for r := 0; r < nrow; r++ {
		for c := 0; c < ncol; c++ {
			idx := g.cellIdx(c, r)
			if partials(idx) != 0 {
				continue
			}
			s.Stats.CleanCells++
			full := tab.limbs.Fold(g.foldFull, g.diffFull[idx*g.chans:][:g.limbs])
			query.F.FinalizeExact(full, g.rep)
			if d := query.Distance(g.rep); d <= s.cur.Dist {
				// Only a centre strictly inside the cell is a candidate
				// (see cleanPass): the one behaviour this form does not
				// keep from before the rewrite.
				p := geom.Point{X: g.xe[c] + cw/2, Y: g.ye[r] + chh/2}
				if g.xe[c] < p.X && p.X < g.xe[c+1] && g.ye[r] < p.Y && p.Y < g.ye[r+1] {
					s.improve(d, p, g.rep)
				}
			}
		}
	}

	if afterPass1 != nil {
		afterPass1()
	}

	// Pass 2: bound and filter dirty cells.
	dirty := s.dirty[:0]
	thresh := s.threshold()
	lo, hi := make([]float64, g.dims), make([]float64, g.dims)
	isInt := query.F.IntegerDims()
	for r := 0; r < nrow; r++ {
		for c := 0; c < ncol; c++ {
			idx := g.cellIdx(c, r)
			if partials(idx) == 0 {
				continue
			}
			s.Stats.DirtyCells++
			full := tab.limbs.Fold(g.foldFull, g.diffFull[idx*g.chans:][:g.limbs])
			part := tab.limbs.Fold(g.foldPart, g.diffPart[idx*g.chans:][:g.limbs])
			var mmMin, mmMax []float64
			if g.mmSlots > 0 {
				mi := (r*ncol + c) * g.mmSlots
				mmMin = g.mmMin[mi : mi+g.mmSlots]
				mmMax = g.mmMax[mi : mi+g.mmSlots]
			}
			query.F.FinalizeBounds(full, part, mmMin, mmMax, lo, hi)
			lb := agg.LowerBoundInt(query.Norm, query.Target, lo, hi, query.W, isInt)
			cell := geom.Rect{MinX: g.xe[c], MinY: g.ye[r], MaxX: g.xe[c+1], MaxY: g.ye[r+1]}
			if lb < thresh {
				dirty = append(dirty, cellInfo{rect: cell, lb: lb})
			} else {
				s.Stats.PrunedCells++
			}
		}
	}
	s.dirty = dirty
	s.refProbeCellCenters(dirty, clip, probed)
	return dirty
}

// refFillGridDiff clears everything, fills and integrates.
func (s *Searcher) refFillGridDiff(space geom.Rect, ids []int32, cw, chh float64) {
	g := s.grid
	g.refReset()
	s.refFillRects(space, ids, cw, chh)
	g.refIntegrate()
}

// refFillRects seeds each rectangle's four edge walks from a divide and
// a Floor.
func (s *Searcher) refFillRects(space geom.Rect, ids []int32, cw, chh float64) {
	g := s.grid
	tab := s.core
	for _, id := range ids {
		contribs := tab.rectContribs(id)
		var mm []agg.MMContrib
		if g.mmSlots > 0 {
			mm = tab.rectMM(id)
		}
		r := s.rect(id)
		// Columns whose open interior intersects the rect interior.
		c0, c1 := refOverlapRange(r.MinX, r.MaxX, space.MinX, cw, g.xe)
		r0, r1 := refOverlapRange(r.MinY, r.MaxY, space.MinY, chh, g.ye)
		if c0 > c1 || r0 > r1 {
			continue
		}
		// Fully covered sub-range: every point of the cell interior is
		// strictly inside the rect (closed cell ⊆ closed rect suffices for
		// interiors; see DESIGN.md "Coverage semantics").
		fc0, fc1 := fullRange(c0, c1, r.MinX, r.MaxX, g.xe)
		fr0, fr1 := fullRange(r0, r1, r.MinY, r.MaxY, g.ye)

		if fc0 <= fc1 && fr0 <= fr1 {
			g.refRangeAdd(g.diffFull, contribs, fc0, fr0, fc1, fr1)
			// Partial ring: the overlap range minus the full range, as up
			// to four rectangles.
			s.refApplyPartial(contribs, mm, c0, r0, c1, fr0-1) // bottom rows
			s.refApplyPartial(contribs, mm, c0, fr1+1, c1, r1) // top rows
			s.refApplyPartial(contribs, mm, c0, fr0, fc0-1, fr1)
			s.refApplyPartial(contribs, mm, fc1+1, fr0, c1, fr1)
		} else {
			s.refApplyPartial(contribs, mm, c0, r0, c1, r1)
		}
	}
}

// refApplyPartial marks a (possibly empty) cell range as partially
// covered.
func (s *Searcher) refApplyPartial(contribs []agg.Contrib, mm []agg.MMContrib, c0, r0, c1, r1 int) {
	if c0 > c1 || r0 > r1 {
		return
	}
	g := s.grid
	g.refRangeAdd(g.diffPart, contribs, c0, r0, c1, r1)
	g.refRangeAddCnt(c0, r0, c1, r1)
	g.mmUpdate(mm, c0, r0, c1, r1)
}

// refOverlapRange starts its exact-comparison walks from a float guess.
func refOverlapRange(lo, hi, min, step float64, edges []float64) (int, int) {
	n := len(edges) - 1
	// i0: smallest cell with right edge strictly greater than lo.
	i0 := int(math.Floor((lo - min) / step))
	if i0 < 0 {
		i0 = 0
	}
	if i0 > n-1 {
		i0 = n - 1
	}
	for i0 > 0 && edges[i0] > lo {
		i0--
	}
	for i0 < n && edges[i0+1] <= lo {
		i0++
	}
	// i1: largest cell with left edge strictly smaller than hi.
	i1 := int(math.Floor((hi - min) / step))
	if i1 < 0 {
		i1 = 0
	}
	if i1 > n-1 {
		i1 = n - 1
	}
	for i1 < n-1 && edges[i1+1] < hi {
		i1++
	}
	for i1 >= 0 && edges[i1] >= hi {
		i1--
	}
	return i0, i1
}

// refProbeCellCenters is probeCellCenters with every candidate rectangle
// of the window asked on its own. It evaluates the centers of the most
// promising surviving dirty cells as genuine candidate points. This does
// not affect exactness — any point's distance is a valid incumbent — but
// it makes d_opt converge early on flat distance landscapes, which is
// what lets Equation 1 prune aggressively on workloads like F2 where many
// regions are near-ties.
func (s *Searcher) refProbeCellCenters(dirty []cellInfo, clip geom.Rect, probed func(id int32)) {
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
	query := &s.query
	ch := g.probeCh
	for _, di := range idx {
		p := dirty[di].rect.Center()
		clear(ch)
		// The rectangles covering p form a binary-searched window of the
		// master order: MinX < p.X < MaxX. The clip clause restricts the
		// window to the space's chain-filtered subset (a probe point in a
		// boundary cell can poke an ulp outside the clip; see Item.Clip).
		lo, hi := s.window(p.X, p.X)
		for id := lo; id < hi; id++ {
			rc := s.rect(int32(id))
			if rc.ContainsOpen(p) &&
				rc.MinX < clip.MaxX && clip.MinX < rc.MaxX &&
				rc.MinY < clip.MaxY && clip.MinY < rc.MaxY {
				for _, cb := range t.rectContribs(int32(id)) {
					ch[cb.Ch] += cb.V
				}
				if probed != nil {
					probed(int32(id))
				}
			}
		}
		query.F.FinalizeExact(t.limbs.Fold(g.foldFull, ch), g.rep)
		if d := query.Distance(g.rep); d <= s.cur.Dist {
			s.improve(d, p, g.rep)
		}
	}
	s.Stats.CenterProbes += len(idx)
}
