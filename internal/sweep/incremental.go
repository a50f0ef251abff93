package sweep

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"asrs/internal/geom"

	"asrs/internal/asp"
)

// The incremental sweep replaces the classic per-strip rescan with a
// delta walk over the candidate x-intervals. The intervals of a space
// are the gaps between consecutive distinct edge coordinates and are
// shared by every strip; a rectangle covers a fixed inclusive interval
// span and is active over a contiguous strip run. Walking strips
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
// contribution), and the strip's point values are read in ONE
// branch-light merge pass — a running prefix sum over the deltas and a
// second sorted cursor over the dirty interval ranges, both advancing
// monotonically left to right. A dirty strip's pass costs at most O(k)
// steps for its k ≤ 2n+1 intervals, the per-strip order of the classic
// walk (DESIGN.md §8).
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

// incrMinRects gates the incremental path: below it the classic scan's
// lower constant factor wins.
const incrMinRects = 48

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

	// The strip bound's inputs: the limb totals of the current strip's
	// spanning set (the base and every active rectangle covering all k
	// intervals) and of its other active rectangles, kept by apply (exact
	// float sums, as every limb sum is); their channel folds; and each
	// Average slot's min/max over the rectangles a strip can hold
	// partially.
	full, part       []float64
	foldFull, foldPt []float64
	mmMin, mmMax     []float64
}

// diffArray is a range-add / point-read array over n positions, each
// carrying chans int64 channels: a range add is two writes, and point
// values are read by marching a running prefix accumulator across
// positions in ascending order. The zero value is not usable; reset
// before use.
type diffArray struct {
	n, chans int
	// data[p*chans+c] is the delta entering at position p: the point
	// value at position j is Σ_{p<=j} data[p*chans+c]. Entry n absorbs
	// the closing delta of ranges ending at n-1.
	data []int64
}

// reset re-dimensions the array to n positions × chans channels and
// zeroes it, reusing the backing array when it fits and at least doubling
// it when not. Dimensions that cannot hold a position or a channel are a
// caller bug.
func (d *diffArray) reset(n, chans int) {
	if n < 1 || chans < 1 {
		panic(fmt.Sprintf("sweep: invalid difference array %dx%d", n, chans))
	}
	need := (n + 1) * chans
	if cap(d.data) >= need {
		d.data = d.data[:need]
		clear(d.data)
	} else {
		d.data = make([]int64, need, max(need, 2*cap(d.data)))
	}
	d.n, d.chans = n, chans
}

// rangeAdd adds delta to channel ch of every position in [l, r]
// (inclusive). Out-of-range ends are clamped; empty ranges are no-ops.
func (d *diffArray) rangeAdd(l, r, ch int, delta int64) {
	l, r = max(l, 0), min(r, d.n-1)
	if l > r {
		return
	}
	d.data[l*d.chans+ch] += delta
	d.data[(r+1)*d.chans+ch] -= delta
}

// step folds position pos's delta row into acc (length chans): if acc
// held the point value at pos-1, it now holds the value at pos. It
// reports whether any channel moved.
func (d *diffArray) step(pos int, acc []int64) (moved bool) {
	base := pos * d.chans
	for c := range acc {
		v := d.data[base+c]
		acc[c] += v
		moved = moved || v != 0
	}
	return moved
}

// advance marches acc from the point value at position from to the value
// at position to (from == -1: acc holds zeros, the value before position
// 0), as step does for each position in (from, to]; from >= to is a
// no-op.
func (d *diffArray) advance(from, to int, acc []int64) {
	for p := from + 1; p <= to; p++ {
		base := p * d.chans
		for c := range acc {
			acc[c] += d.data[base+c]
		}
	}
}

// solveWithinIncremental walks the strips of s.ys (deduplicated
// ascending, exactly as SolveWithin built them) updating best in place;
// it reports whether any candidate was evaluated.
func (s *Solver) solveWithinIncremental(space geom.Rect, best *asp.Result) (found bool) {
	inc := &s.inc
	ys := s.ys
	ns := len(ys) - 1
	// Each strip's midpoint, non-decreasing in the strip index.
	if cap(inc.ymid) < ns {
		inc.ymid = make([]float64, ns, max(ns, 2*cap(inc.ymid)))
	}
	ymid := inc.ymid[:ns]
	for si := range ymid {
		ymid[si] = (ys[si] + ys[si+1]) / 2
	}

	// Interval boundaries: distinct edge x-coordinates strictly inside
	// the space, plus the space edges.
	xs := append(inc.xs[:0], space.MinX, space.MaxX)
	for i := range s.rects {
		r := &s.rects[i]
		if r.MinX > space.MinX && r.MinX < space.MaxX {
			xs = append(xs, r.MinX)
		}
		if r.MaxX > space.MinX && r.MaxX < space.MaxX {
			xs = append(xs, r.MaxX)
		}
	}
	sort.Float64s(xs)
	xs = dedup(xs)
	inc.xs = xs
	k := len(xs) - 1 // interval count
	if k < 1 {
		return false
	}

	// Per-rect interval spans and activation strip runs, bucketed into
	// CSR event lists (counting sort by strip).
	n := len(s.rects)
	inc.li = resizeI32(inc.li, n)
	inc.ri = resizeI32(inc.ri, n)
	inc.sa = resizeI32(inc.sa, n)
	inc.se = resizeI32(inc.se, n)
	inc.addStart = resizeI32(inc.addStart, ns+2)
	inc.remStart = resizeI32(inc.remStart, ns+2)
	for i := range inc.addStart {
		inc.addStart[i] = 0
		inc.remStart[i] = 0
	}
	mmSlots := s.plan.Bound.MinMaxSlots()
	inc.boundScratch(s.limbs.Eff(), len(s.limbs.Lo), mmSlots)
	for i := range s.rects {
		r := &s.rects[i]
		// Covered intervals: MinX <= xs[j] && MaxX >= xs[j+1].
		li := int32(firstAtLeast(xs, r.MinX))
		ri := int32(firstAbove(xs[1:], r.MaxX)) - 1
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
		for _, cb := range s.contribs(int(id)) {
			set[cb.Ch] += fsign * cb.V
			col := cb.Ch
			if !ident {
				if col = int(colOf[col]); col < 0 {
					continue
				}
			}
			inc.dif.rangeAdd(l, r, col, sign*int64(cb.V*scale[cb.Ch]))
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
		if bnd := bound(); !math.IsInf(bnd, 1) && s.stripOutOfReach(bnd) {
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
			inc.dif.advance(int(pos), int(cur[0]), run)
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

// boundScratch sizes the strip bound's scratch for limbs limb totals,
// chans channels and mmSlots Average slots, and resets the totals and the
// min/max identities.
func (inc *incrState) boundScratch(limbs, chans, mmSlots int) {
	if cap(inc.full) < limbs {
		inc.full = make([]float64, limbs)
		inc.part = make([]float64, limbs)
	}
	inc.full, inc.part = inc.full[:limbs], inc.part[:limbs]
	clear(inc.full)
	clear(inc.part)
	if cap(inc.foldFull) < chans {
		inc.foldFull = make([]float64, chans)
		inc.foldPt = make([]float64, chans)
	}
	if cap(inc.mmMin) < mmSlots {
		inc.mmMin = make([]float64, mmSlots)
		inc.mmMax = make([]float64, mmSlots)
	}
	inc.mmMin, inc.mmMax = inc.mmMin[:mmSlots], inc.mmMax[:mmSlots]
	for i := range inc.mmMin {
		inc.mmMin[i], inc.mmMax[i] = math.Inf(1), math.Inf(-1)
	}
}

// stripOutOfReach reports whether the current strip's Lemma 5 bound is
// at least bnd: its covering sets lie between the full set and the full
// set with every part rectangle added, so each interval's representation
// lies in the bounds Equation 1 takes from the two folds — the compiled
// bound of the grid's pass 2 (boundPass), whose soundness carries over —
// and its distance is at least the bound.
func (s *Solver) stripOutOfReach(bnd float64) bool {
	inc := &s.inc
	full := s.limbs.Fold(inc.foldFull, inc.full)
	part := s.limbs.Fold(inc.foldPt, inc.part)
	_, under := s.plan.Bound.Under(full, part, inc.mmMin, inc.mmMax, bnd)
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
