package sweep

import (
	"fmt"
	"math"
	"slices"

	"asrs/internal/geom"

	"asrs/internal/asp"
)

// The incremental sweep, run by every solver NewSized builds, replaces
// the classic per-strip rescan with a delta walk over the candidate
// x-intervals. The intervals of a space are the gaps between consecutive
// distinct edge coordinates and are shared by every strip; a rectangle
// covers a fixed inclusive interval span and is active over a contiguous
// strip run. Walking strips
// bottom-up, only the rectangles entering or leaving at the strip
// boundary change any interval's covering set, and only the intervals
// those deltas touch are re-evaluated: an untouched interval has the
// same covering set — hence the same representation and distance — as
// when it was last evaluated, at which point it already failed (or set)
// the strict `d < best` improvement test. The answer (distance and
// point) is therefore bit-identical to the classic scan's.
//
// A strip's dirty intervals are resolved by one flat pass: entering and
// leaving rectangles update a difference array (diffArray, two writes per
// contribution and two to the totals of blocks of ⌈√k⌉ positions), and
// the strip's point values are read in ONE branch-light merge pass — a
// running prefix sum over the deltas and a second sorted cursor over the
// dirty interval ranges, both advancing monotonically left to right. The
// prefix seeks across the gaps between dirty ranges a block at a time,
// so a dirty strip's pass costs O(√k) folds per dirty range plus its
// ranges' lengths, and never more than O(k) for its k ≤ 2n+1 intervals,
// the per-strip order of the classic walk (DESIGN.md §8).
//
// The setup is linear in the rectangles but for the y edges' sort: the
// interval boundaries and each rectangle's interval span come off one
// merge of the MinX and MaxX runs (xSpans), each of which is already
// ascending in the master order DS-Search hands a sweep.
//
// The pass carries the interval totals of the limbs the query's score
// reads — its columns (agg.ScorePlan) — as scaled int64: each column is a
// count of its limb's grid 2^-s, so every intermediate is exact, and the
// power-of-two conversion back plus the one fold per channel at
// evaluation reproduce the classic walk's floats bit for bit, whatever
// order the contributions were summed in (agg.Limbs). A limb the score
// does not read (a Sum's negative and positive parts) has no column: it
// reaches only the strip bound's totals.
//
// A dirty strip is bounded before it is scored (Lemma 5, as the grid
// bounds a dirty cell): every interval of the strip is covered by the
// base and the active rectangles spanning all k intervals (the full
// vector) plus some of the other active rectangles (the part vector), so
// when the strip's Equation 1 bound reaches min(best, evalCap) no
// interval of it can pass the strict improvement test, and the strip is
// skipped. The answer is the same bit for bit: a skipped interval is one
// the score would have rejected, and the bound only falls, so an
// interval a skipped strip leaves untouched has failed the later strips'
// test as well (DESIGN.md §8).

// incrState is the reusable scratch of the incremental sweep.
type incrState struct {
	xs       []float64 // distinct interval boundaries, incl. space edges
	dif      diffArray
	li, ri   []int32 // per-rect inclusive interval span (li>ri: inactive)
	sa, se   []int32 // per-rect active strip run [sa, se)
	addStart []int32 // CSR: rect ids activating at each strip
	addIds   []int32
	remStart []int32 // CSR: rect ids deactivating at each strip
	remIds   []int32
	fill     []int32
	ranges   [][2]int32 // dirty interval ranges of the current strip
	run      []int64    // running prefix accumulator of the flat pass
	ymid     []float64  // each strip's midpoint height

	// byMin and byMax are the rects in MinX and in MaxX order: the
	// identity for rects in master order, else sorted (xOrders).
	byMin, byMax []int32

	// The strip bound's inputs: the limb totals of the current strip's
	// spanning set (the base and every active rectangle covering all k
	// intervals) and of its other active rectangles, kept by apply (exact
	// float sums, as every limb sum is), and each Average slot's min/max
	// over the rectangles a strip can hold partially.
	full, part   []float64
	mmMin, mmMax []float64
}

// diffArray is a range-add / point-read array over n positions, each
// carrying chans int64 channels: a range add is two writes to the delta
// rows and two to their blocks' totals, and point values are read by
// moving a running prefix accumulator across positions in ascending
// order, a whole block at a time where the move spans one. The zero value
// is not usable; reset before use.
type diffArray struct {
	n, chans int
	// data[p*chans+c] is the delta entering at position p: the point
	// value at position j is Σ_{p<=j} data[p*chans+c]. Entry n absorbs
	// the closing delta of ranges ending at n-1.
	data []int64
	// bw = ⌈√n⌉ is the block width, and blk[b*chans+c] the total of
	// channel c's deltas at positions b*bw … b*bw+bw−1, the spill entry
	// included: a seek folds a block's deltas in one row (seek).
	bw  int
	blk []int64
}

// reset re-dimensions the array to n positions × chans channels and
// zeroes it, reusing the backing arrays when they fit and at least
// doubling them when not. Dimensions that cannot hold a position or a
// channel are a caller bug.
func (d *diffArray) reset(n, chans int) {
	if n < 1 || chans < 1 {
		panic(fmt.Sprintf("sweep: invalid difference array %dx%d", n, chans))
	}
	d.n, d.chans = n, chans
	d.bw = int(math.Ceil(math.Sqrt(float64(n))))
	d.data = zeroed(d.data, (n+1)*chans)
	d.blk = zeroed(d.blk, (n/d.bw+1)*chans)
}

// zeroed returns v resized to n zeros, reusing its capacity when it fits
// and at least doubling it when not.
func zeroed(v []int64, n int) []int64 {
	if cap(v) >= n {
		v = v[:n]
		clear(v)
		return v
	}
	return make([]int64, n, max(n, 2*cap(v)))
}

// edge is the offsets of a position's delta row in data and of its
// block's totals in blk.
type edge struct{ row, blk int }

// edgeAt returns position p's edge.
func (d *diffArray) edgeAt(p int) edge { return edge{p * d.chans, p / d.bw * d.chans} }

// add adds delta to channel ch of the delta row at e and to its block's
// total.
func (d *diffArray) add(e edge, ch int, delta int64) {
	d.data[e.row+ch] += delta
	d.blk[e.blk+ch] += delta
}

// rangeAdd adds delta to channel ch of every position in [l, r]
// (inclusive). Out-of-range ends are clamped; empty ranges are no-ops.
func (d *diffArray) rangeAdd(l, r, ch int, delta int64) {
	l, r = max(l, 0), min(r, d.n-1)
	if l > r {
		return
	}
	d.add(d.edgeAt(l), ch, delta)
	d.add(d.edgeAt(r+1), ch, -delta)
}

// step folds position pos's delta row into acc (length chans): if acc
// held the point value at pos-1, it now holds the value at pos. It
// reports whether any channel moved.
func (d *diffArray) step(pos int, acc []int64) (moved bool) {
	var any int64
	for c, v := range d.data[pos*d.chans : pos*d.chans+len(acc)] {
		acc[c] += v
		any |= v
	}
	return any != 0
}

// seek moves acc from the point value at position from to the value at
// position to (from == -1: acc holds zeros, the value before position 0;
// to may be n, the spill entry, whose value is zero), as step does for
// each position in (from, to], and returns the rows it folded: the delta
// rows up to the end of from+1's block (none when from+1 starts a block
// that ends by to), the totals of every block the move then spans whole,
// and the delta rows of to's block up to to — fewer than 2·bw + n/bw
// rows. from >= to is a no-op. The sums are int64 and exact, so acc ends
// as stepping leaves it, whatever rows it was folded from.
func (d *diffArray) seek(from, to int, acc []int64) (folds int) {
	p, bw := from+1, d.bw
	if p > to {
		return 0
	}
	if p%bw != 0 || p+bw-1 > to {
		end := min(to, p/bw*bw+bw-1)
		d.fold(d.data, p, end, acc)
		folds = end - p + 1
		p = end + 1
	}
	if whole := (to + 1 - p) / bw; whole > 0 {
		d.fold(d.blk, p/bw, p/bw+whole-1, acc)
		folds += whole
		p += whole * bw
	}
	d.fold(d.data, p, to, acc)
	return folds + max(to-p+1, 0)
}

// fold adds rows lo … hi of rows (chans wide) into acc.
func (d *diffArray) fold(rows []int64, lo, hi int, acc []int64) {
	for r := lo; r <= hi; r++ {
		row := rows[r*d.chans : r*d.chans+len(acc)]
		for c, v := range row {
			acc[c] += v
		}
	}
}

// solveWithinIncremental walks the strips of s.ys (deduplicated
// ascending, exactly as SolveWithin built them) updating best in place;
// it reports whether any candidate was evaluated. A degenerate space is
// one strip or one interval of the pass, as the classic walk takes it.
func (s *Solver) solveWithinIncremental(space geom.Rect, best *asp.Result) (found bool) {
	inc := &s.inc
	ys := s.ys
	ns := max(len(ys)-1, 1)
	// Each strip's midpoint, non-decreasing in the strip index. A
	// zero-height space's one strip is the line at its height, holding the
	// rectangles whose open y-extent contains it.
	if cap(inc.ymid) < ns {
		inc.ymid = make([]float64, ns, max(ns, 2*cap(inc.ymid)))
	}
	ymid := inc.ymid[:ns]
	ymid[0] = ys[0]
	for si := 0; si+1 < len(ys); si++ {
		ymid[si] = (ys[si] + ys[si+1]) / 2
	}

	// Interval boundaries and each rectangle's interval span, off one
	// merge of the MinX and MaxX runs.
	k := inc.xSpans(s.rects, space)
	xs := inc.xs
	column := space.MinX == space.MaxX

	// Per-rect activation strip runs, bucketed into CSR event lists
	// (counting sort by strip).
	n := len(s.rects)
	inc.sa = resizeI32(inc.sa, n)
	inc.se = resizeI32(inc.se, n)
	inc.addStart = resizeI32(inc.addStart, ns+2)
	inc.remStart = resizeI32(inc.remStart, ns+2)
	for i := range inc.addStart {
		inc.addStart[i] = 0
		inc.remStart[i] = 0
	}
	mmSlots := s.plan.Bound.MinMaxSlots()
	inc.boundScratch(s.limbs.Eff(), mmSlots)
	for i := range s.rects {
		r := &s.rects[i]
		li, ri := inc.li[i], inc.ri[i]
		if column && (r.MinX == xs[0] || r.MaxX == xs[0]) {
			li, ri = 1, 0 // an edge on the column: its open x-extent misses it
		}
		// Active strips: the contiguous run where MinY < ym < MaxY
		// (identical to the classic active() predicate).
		sa := firstAbove(ymid, r.MinY)
		se := firstAtLeast(ymid, r.MaxY)
		if int(li) > int(ri) || sa >= se {
			inc.li[i], inc.ri[i] = 1, 0 // inactive
			continue
		}
		inc.li[i], inc.ri[i] = li, ri
		inc.sa[i], inc.se[i] = int32(sa), int32(se)
		if mmSlots > 0 && (li != 0 || int(ri) != k-1) {
			// A rectangle that spans every interval is full wherever it is
			// active; only the others reach a strip's partial set.
			for _, m := range s.mms(i) {
				inc.mmMin[m.Slot] = min(inc.mmMin[m.Slot], m.V)
				inc.mmMax[m.Slot] = max(inc.mmMax[m.Slot], m.V)
			}
		}
		inc.addStart[sa+1]++
		inc.remStart[se+1]++
	}
	for i := 1; i < len(inc.addStart); i++ {
		inc.addStart[i] += inc.addStart[i-1]
		inc.remStart[i] += inc.remStart[i-1]
	}
	inc.addIds = resizeI32(inc.addIds, int(inc.addStart[ns+1]))
	inc.remIds = resizeI32(inc.remIds, int(inc.remStart[ns+1]))
	inc.fill = append(inc.fill[:0], inc.addStart...)
	remFillOff := len(inc.fill)
	inc.fill = append(inc.fill, inc.remStart...)
	addFill := inc.fill[:remFillOff]
	remFill := inc.fill[remFillOff:]
	for i := range s.rects {
		if inc.li[i] > inc.ri[i] {
			continue
		}
		sa, se := inc.sa[i], inc.se[i]
		inc.addIds[addFill[sa]] = int32(i)
		addFill[sa]++
		inc.remIds[remFill[se]] = int32(i)
		remFill[se]++
	}

	// The pass carries the score's columns only; colOf maps each limb to
	// its column (-1: read by the strip bound alone). When the columns are
	// the limbs, as on a composite of one-limb Distributions, a limb is its
	// own column and no contribution is looked up.
	score := &s.plan.Score
	cols, colOf, ident := score.Columns(), score.ColumnOf(), score.Identity()
	// A limb value is carried as a count of its grid 2^-s: exact under
	// the limbs' certificate (a power-of-two product of a value on the
	// grid).
	scale := s.limbs.Scale
	inc.dif.reset(k, cols)
	// The base is one more covering set, spanning every interval of every
	// strip: scaled like the contributions apply folds in, so the totals
	// carry it.
	for c, v := range s.base {
		inc.full[c] = v
		if col := colOf[c]; col >= 0 {
			inc.dif.rangeAdd(0, k-1, int(col), int64(v*scale[c]))
		}
	}
	inc.run = resize(inc.run, cols)
	run := inc.run
	rep := s.rep

	// apply folds one entering/leaving rectangle into the difference
	// array (two writes per contribution), recording the dirtied span;
	// every limb, read or not, goes to the strip bound's totals.
	apply := func(id int32, sign int64) {
		l, r := int(inc.li[id]), int(inc.ri[id])
		set := inc.part
		if l == 0 && r == k-1 {
			set = inc.full
		}
		fsign := float64(sign)
		lo, hi := inc.dif.edgeAt(l), inc.dif.edgeAt(r+1)
		for _, cb := range s.contribs(int(id)) {
			set[cb.Ch] += fsign * cb.V
			col := cb.Ch
			if !ident {
				if col = int(colOf[col]); col < 0 {
					continue
				}
			}
			delta := sign * int64(cb.V*scale[cb.Ch])
			inc.dif.add(lo, col, delta)
			inc.dif.add(hi, col, -delta)
		}
		inc.ranges = append(inc.ranges, [2]int32{inc.li[id], inc.ri[id]})
	}

	// bound is what a candidate must score under to matter: the best so
	// far, or the caller's cap when that is lower. It only falls.
	bound := func() float64 {
		if s.evalCap < best.Dist {
			return s.evalCap
		}
		return best.Dist
	}

	// evalAt scores the interval j of the strip at height y given its
	// exact scaled column totals, through the compiled score: the totals
	// are int64 sums, so the floats the plan forms from them — and with
	// them the answer — cannot depend on the order the deltas came in.
	// (Exact: |scaled| stays within 2^53 under the certificate, and every
	// inverse is a power of two.) Only strips whose bound is under bound()
	// get here.
	evalAt := func(j int32, y float64) {
		s.Stats.Intervals++
		s.Stats.Scored++
		if d, ok := score.UnderCounts(run, rep, bound()); ok {
			best.Dist = d
			best.Point = geom.Point{X: (xs[j] + xs[j+1]) / 2, Y: y}
			best.Rep = append(best.Rep[:0], rep...)
		}
		found = true
	}

	for si := 0; si < ns; si++ {
		s.Stats.Strips++
		inc.ranges = inc.ranges[:0]
		for _, id := range inc.remIds[inc.remStart[si]:inc.remStart[si+1]] {
			apply(id, -1)
		}
		for _, id := range inc.addIds[inc.addStart[si]:inc.addStart[si+1]] {
			apply(id, 1)
		}
		if si == 0 {
			// Every interval is a fresh candidate in the first strip.
			inc.ranges = append(inc.ranges[:0], [2]int32{0, int32(k - 1)})
		} else if len(inc.ranges) == 0 {
			continue
		}
		// Every interval of the strip holds the full set and some of the
		// part set: a strip whose Lemma 5 bound reaches the bound has no
		// candidate that could pass the strict improvement test. Its
		// deltas are applied; only its scoring is skipped.
		if bnd := bound(); !math.IsInf(bnd, 1) && s.Reaches(inc.full, inc.part, inc.mmMin, inc.mmMax, bnd) {
			s.Stats.PrunedStrips++
			found = true
			continue
		}
		// Merge the dirty ranges so intervals are visited ascending —
		// the same (strip, interval) visit order as the classic scan on
		// the intervals that could have changed. The merge in place
		// leaves the coalesced ranges in inc.ranges[:nm], whatever order
		// ranges with one start come in. (slices.SortFunc: sort.Slice
		// allocates per call, and this is one call per dirty strip.)
		slices.SortFunc(inc.ranges, func(a, b [2]int32) int { return int(a[0]) - int(b[0]) })
		nm := 0
		for i := 1; i < len(inc.ranges); i++ {
			if inc.ranges[i][0] <= inc.ranges[nm][1]+1 {
				if inc.ranges[i][1] > inc.ranges[nm][1] {
					inc.ranges[nm][1] = inc.ranges[i][1]
				}
				continue
			}
			nm++
			inc.ranges[nm] = inc.ranges[i]
		}
		// The flat merge pass: one running prefix sum over the deltas
		// (cursor 1) and the merged dirty ranges (cursor 2), both advancing
		// monotonically. Deltas of untouched gaps are folded in without
		// evaluation. Within a range, an interval where no column moved has
		// the one before's representation, scores its distance, and that
		// already failed (or set) the strict improvement test, as in the
		// classic walk.
		s.Stats.FlatStrips++
		clear(run)
		y := ymid[si]
		pos := int32(-1)
		for _, cur := range inc.ranges[:nm+1] {
			s.Stats.Stepped += inc.dif.seek(int(pos), int(cur[0]), run) + int(cur[1]-cur[0])
			evalAt(cur[0], y)
			for j := cur[0] + 1; j <= cur[1]; j++ {
				if inc.dif.step(int(j), run) {
					evalAt(j, y)
				} else {
					s.Stats.Intervals++
				}
			}
			pos = cur[1]
		}
	}
	return found
}

// xSpans builds the interval boundaries of space over rects in inc.xs —
// space.MinX, the distinct edge x's strictly inside the space ascending,
// space.MaxX (a zero-width space's column x = space.MinX twice: its one
// interval's midpoint (x+x)/2 is x exactly, a certified coordinate being
// far from overflow) — and returns the interval count k. It writes each
// rectangle's span of covered intervals, those j with MinX ≤ xs[j] and
// xs[j+1] ≤ MaxX, into inc.li and inc.ri (li > ri: none).
//
// The boundaries are one merge of the MinX run and the MaxX run
// (xOrders), deduplicated as it goes, and each rectangle's span is read
// off the merge as its two edges pass: an edge at or left of the space is
// boundary 0, one inside is the boundary it merged into, and one at or
// right of the space is boundary k. The boundaries are the sorted,
// deduplicated edges inside the space, and each span is the one a binary
// search of them gives, so no bit of the answer depends on the merge.
func (inc *incrState) xSpans(rects []geom.Rect, space geom.Rect) (k int) {
	n := len(rects)
	inc.li, inc.ri = resizeI32(inc.li, n), resizeI32(inc.ri, n)
	byMin, byMax := inc.xOrders(rects)
	xs := append(inc.xs[:0], space.MinX)
	a, b := 0, 0
	for a < n || b < n {
		isMin := b == n || (a < n && rects[byMin[a]].MinX <= rects[byMax[b]].MaxX)
		var v float64
		if isMin {
			v = rects[byMin[a]].MinX
		} else {
			v = rects[byMax[b]].MaxX
		}
		p := int32(0)
		if v > space.MinX {
			if v >= space.MaxX {
				break // this edge and every one after it lie at or right of the space
			}
			if v != xs[len(xs)-1] {
				xs = append(xs, v)
			}
			p = int32(len(xs) - 1)
		}
		if isMin {
			inc.li[byMin[a]] = p
			a++
		} else {
			inc.ri[byMax[b]] = p - 1
			b++
		}
	}
	if space.MinX == space.MaxX {
		xs = append(xs, space.MinX) // the column, as given: a −0 stays −0
	} else {
		xs = append(xs, space.MaxX)
	}
	inc.xs = xs
	k = len(xs) - 1
	for ; a < n; a++ {
		inc.li[byMin[a]] = int32(k)
	}
	for ; b < n; b++ {
		inc.ri[byMax[b]] = int32(k - 1)
	}
	return k
}

// xOrders returns the rects' indices in MinX order and in MaxX order.
// DS-Search and GI-DS rebind their rectangles in master order, where
// MinX = x − a and MaxX = x each ascend with the anchor's x: one pass
// checks each run, and a run found ascending is its own order. A run that
// is not is sorted.
func (inc *incrState) xOrders(rects []geom.Rect) (byMin, byMax []int32) {
	n := len(rects)
	byMin, byMax = resizeI32(inc.byMin, n), resizeI32(inc.byMax, n)
	inc.byMin, inc.byMax = byMin, byMax
	minUp, maxUp := true, true
	for i := range rects {
		byMin[i], byMax[i] = int32(i), int32(i)
		if i > 0 {
			minUp = minUp && rects[i-1].MinX <= rects[i].MinX
			maxUp = maxUp && rects[i-1].MaxX <= rects[i].MaxX
		}
	}
	if !minUp {
		slices.SortFunc(byMin, func(i, j int32) int { return cmpLess(rects[i].MinX, rects[j].MinX) })
	}
	if !maxUp {
		slices.SortFunc(byMax, func(i, j int32) int { return cmpLess(rects[i].MaxX, rects[j].MaxX) })
	}
	return byMin, byMax
}

// boundScratch sizes the strip bound's scratch for limbs limb totals and
// mmSlots Average slots, and resets the totals and the min/max
// identities.
func (inc *incrState) boundScratch(limbs, mmSlots int) {
	if cap(inc.full) < limbs {
		inc.full = make([]float64, limbs)
		inc.part = make([]float64, limbs)
	}
	inc.full, inc.part = inc.full[:limbs], inc.part[:limbs]
	clear(inc.full)
	clear(inc.part)
	if cap(inc.mmMin) < mmSlots {
		inc.mmMin = make([]float64, mmSlots)
		inc.mmMax = make([]float64, mmSlots)
	}
	inc.mmMin, inc.mmMax = inc.mmMin[:mmSlots], inc.mmMax[:mmSlots]
	for i := range inc.mmMin {
		inc.mmMin[i], inc.mmMax[i] = math.Inf(1), math.Inf(-1)
	}
}

// Reaches reports whether the Lemma 5 bound of a cover reaches bnd: full
// and part are limb totals in the bound limbs — of the set every point of
// the cover holds and of the set it may hold some of — and mmMin, mmMax
// each Average slot's minimum and maximum over the part set (+Inf and −Inf
// for none). Every covering set between full and full ∪ part has its
// representation in the box Equation 1 takes from the two folds — the
// compiled bound of the grid's pass 2, whose soundness carries over — so
// when Reaches reports true, no point of the cover scores under bnd. A
// strip of the incremental sweep is bounded so before it is scored, and
// DS-Search bounds a whole swept space so before it sweeps it.
func (s *Solver) Reaches(full, part, mmMin, mmMax []float64, bnd float64) bool {
	full = s.limbs.Fold(s.foldFull, full)
	part = s.limbs.Fold(s.foldPart, part)
	_, under := s.plan.Bound.Under(full, part, mmMin, mmMax, bnd)
	return !under
}

// firstAtLeast returns the first index i of the ascending vs with vs[i] ≥
// v, or len(vs): sort.SearchFloat64s without the closure.
func firstAtLeast(vs []float64, v float64) int {
	i, j := 0, len(vs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if vs[h] < v {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// firstAbove returns the first index i of the ascending vs with vs[i] >
// v, or len(vs).
func firstAbove(vs []float64, v float64) int {
	i, j := 0, len(vs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if vs[h] <= v {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// resizeI32 returns a slice of length n, reusing capacity when possible
// and at least doubling it when not.
func resizeI32(v []int32, n int) []int32 {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]int32, n, max(n, 2*cap(v)))
}
