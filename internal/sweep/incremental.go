package sweep

import (
	"math"
	"slices"
	"sort"

	"asrs/internal/fenwick"
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
// Two evaluators resolve a strip's dirty intervals, selected by a fixed
// cost rule (see stripPlan below); both carry the interval totals of the
// limbs the query's score reads — its columns (agg.ScorePlan) — as
// scaled int64, so their sums are exact integers and bit-identical to
// each other under any selection:
//
//   - The flat strip evaluator (the dense-regime default): entering and
//     leaving rectangles update a plain difference array
//     (fenwick.Int64Diff1D, two writes per contribution), and the strip's
//     point queries are answered in ONE branch-light merge pass — a
//     running prefix sum over the sorted deltas and a second sorted
//     cursor over the dirty interval ranges, both advancing
//     monotonically left to right. No pointer chasing, no per-probe
//     tree walk: the pass is a linear scan over a flat array.
//
//   - The Fenwick evaluator (the sparse-update regime): a
//     range-add/point-query fenwick.Int64Tree1D answers O(log k) point
//     queries, which wins when a strip touches a few narrow intervals
//     far into a wide strip — there the flat pass would march across
//     thousands of untouched deltas to seed its prefix. With the tree
//     live, each merged dirty range is seeded by one tree walk and then
//     marched with the difference array, so even this regime does one
//     walk per range rather than one per interval.
//
// Both evaluators sum contributions in another order than the classic
// walk, which the limbs make harmless (agg.Limbs): each column is carried
// as a scaled int64 — a count of its limb's grid 2^-s — so every
// intermediate is exact, and the power-of-two conversion back plus the
// one fold per channel at evaluation reproduce the classic walk's floats
// bit for bit. A limb the score does not read (a Sum's negative and
// positive parts) has no column: it reaches only the strip bound's totals.
//
// A dirty strip is bounded before either evaluator scores it (Lemma 5,
// as the grid bounds a dirty cell): every interval of the strip is
// covered by the base and the active rectangles spanning all k intervals
// (the full vector) plus some of the other active rectangles (the part
// vector), so when the strip's Equation 1 bound reaches min(best,
// evalCap) no interval of it can pass the strict improvement test, and
// the strip is skipped. The answer is the same bit for bit: a skipped
// interval is one the score would have rejected, and the bound only
// falls, so an interval a skipped strip leaves untouched has failed the
// later strips' test as well (DESIGN.md §8).

// incrMinRects gates the incremental path: below it the classic scan's
// lower constant factor wins.
const incrMinRects = 48

// The weights of the strip-evaluator rule (DESIGN.md §8); only their
// ratios matter. A flat prefix step is a sequential load-add the
// prefetcher hides, priced below one unit; a Fenwick RangeAdd level is
// two tree traversals of strided, cache-hostile read-modify-writes, paid
// per contribution per log2(k) level; a PointInto level reads scattered
// rows but folds whole channel vectors; a difference-array update is two
// scattered writes, paid once per contribution instead of per level. The
// inputs they weigh are deterministic shape counts, so a solve always
// makes the same choice, and no choice can change an answer.
const (
	treeUpdate = 2.5  // one Fenwick RangeAdd, per contribution per level
	treeProbe  = 1.0  // one Fenwick PointInto seed, per channel per level
	flatStep   = 0.35 // one flat-pass step, per channel per interval
	diffUpdate = 2.0  // one difference-array write pair, per contribution
)

// stripMode pins the strip evaluator of the incremental sweep. Solvers
// run stripAuto, the rule; the other two are test seams that force one
// evaluator each so both can be held to the classic scan. Every mode
// answers bit-identically (the interval totals are exact int64 sums
// either way).
type stripMode int

const (
	stripAuto stripMode = iota
	stripFlat           // the flat merge pass only; no tree maintained
	stripTree           // the tree maintained, every dirty range seeded from it
)

// incrState is the reusable scratch of the incremental sweep.
type incrState struct {
	xs       []float64 // distinct interval boundaries, incl. space edges
	bit      fenwick.Int64Tree1D
	dif      fenwick.Int64Diff1D
	li, ri   []int32 // per-rect inclusive interval span (li>ri: inactive)
	sa, se   []int32 // per-rect active strip run [sa, se)
	addStart []int32 // CSR: rect ids activating at each strip
	addIds   []int32
	remStart []int32 // CSR: rect ids deactivating at each strip
	remIds   []int32
	fill     []int32
	ranges   [][2]int32 // dirty interval ranges of the current strip
	chI      []int64    // scaled column scratch (point value / tree seed)
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

// stripPlan is the per-solve structural decision of the rule: whether
// the Fenwick tree is worth maintaining at all. Every quantity it needs
// — which rectangles enter and leave at each strip, and which interval
// spans they dirty — is known exactly before the strip loop runs, so
// the decision is made once from measured counts (delta count × probe
// span versus the flat pass's march length), not guessed per strip.
// Contribution counts per object are not known here; the column count is
// the proxy (a rect contributes to at most every column once).
func (s *Solver) stripPlan(ns, k, cols int) (maintainTree bool) {
	if s.stripMode != stripAuto {
		return s.stripMode == stripTree
	}
	inc := &s.inc
	logK := log2K(k)
	cf := float64(cols)
	var flatTotal, treeTotal float64
	for si := 0; si < ns; si++ {
		events := int(inc.remStart[si+1]-inc.remStart[si]) + int(inc.addStart[si+1]-inc.addStart[si])
		if events == 0 && si != 0 {
			continue
		}
		// Exact dirty geometry of this strip from the event spans.
		lastDirty, dirty := int32(-1), 0
		scan := func(ids []int32) {
			for _, id := range ids {
				if inc.ri[id] > lastDirty {
					lastDirty = inc.ri[id]
				}
				dirty += int(inc.ri[id]-inc.li[id]) + 1
			}
		}
		scan(inc.remIds[inc.remStart[si]:inc.remStart[si+1]])
		scan(inc.addIds[inc.addStart[si]:inc.addStart[si+1]])
		ranges := events // upper bound on merged dirty ranges
		if si == 0 {
			// The first strip evaluates every interval.
			lastDirty, dirty, ranges = int32(k-1), k, 1
		}
		if dirty > k {
			dirty = k
		}
		// Both evaluators pay the dirty-interval marching and the
		// difference-array writes; they differ in tree maintenance +
		// per-range seeds versus the march from position 0.
		common := float64(dirty)*cf*flatStep + float64(events)*cf*diffUpdate
		flatTotal += common + float64(lastDirty+1)*cf*flatStep
		treeTotal += common + float64(events)*cf*logK*treeUpdate + float64(ranges)*cf*logK*treeProbe
	}
	return treeTotal < flatTotal
}

// log2K is the depth of a Fenwick tree over k positions, at least 1.
func log2K(k int) float64 {
	return max(math.Log2(float64(k)+1), 1)
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

	// The evaluators carry the score's columns only; colOf maps each limb
	// to its column (-1: read by the strip bound alone). When the columns
	// are the limbs, as on a composite of one-limb Distributions, a limb
	// is its own column and no contribution is looked up.
	score := &s.plan.Score
	cols, colOf, ident := score.Columns(), score.ColumnOf(), score.Identity()
	// A limb value is carried as a count of its grid 2^-s: exact under
	// the limbs' certificate (a power-of-two product of a value on the
	// grid).
	scale := s.limbs.Scale
	maintainTree := s.stripPlan(ns, k, cols)
	if maintainTree {
		inc.bit.Reset(k, cols)
	}
	inc.dif.Reset(k, cols)
	// The base is one more covering set, spanning every interval of every
	// strip: scaled like the contributions apply folds in, so both
	// evaluators' totals carry it.
	for c, v := range s.base {
		inc.full[c] = v
		if col := colOf[c]; col >= 0 {
			d := int64(v * scale[c])
			inc.dif.RangeAdd(0, k-1, int(col), d)
			if maintainTree {
				inc.bit.RangeAdd(0, k-1, int(col), d)
			}
		}
	}
	if cap(inc.chI) < cols {
		inc.chI = make([]int64, cols)
		inc.run = make([]int64, cols)
	}
	chI := inc.chI[:cols]
	run := inc.run[:cols]
	rep := s.rep
	logK := log2K(k)

	// apply folds one entering/leaving rectangle into the difference
	// array (two writes per contribution) and, when live, the Fenwick
	// tree, recording the dirtied span; every limb, read or not, goes to
	// the strip bound's totals.
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
			d := sign * int64(cb.V*scale[cb.Ch])
			inc.dif.RangeAdd(l, r, col, d)
			if maintainTree {
				inc.bit.RangeAdd(l, r, col, d)
			}
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
	// exact scaled column totals, through the compiled score. Identical
	// arithmetic in every evaluator: the totals are int64 sums of the same
	// deltas, so the floats the plan forms from them — and with them the
	// answer — cannot depend on which structure produced them. (Exact:
	// |scaled| stays within 2^53 under the certificate, and every inverse
	// is a power of two.) Only strips whose bound is under bound() get
	// here.
	evalAt := func(j int32, y float64, tot []int64) {
		s.Stats.Intervals++
		s.Stats.Scored++
		if d, ok := score.UnderCounts(tot, rep, bound()); ok {
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
		merged := inc.ranges[:nm+1]
		y := ymid[si]
		// march steps a dirty range's totals from interval j-1 to j and
		// scores j — unless no column moved: j then has j-1's
		// representation, scores j-1's distance, and that already failed
		// (or set) the strict improvement test, as in the classic walk.
		march := func(j int32, tot []int64) {
			if inc.dif.StepInto(int(j), tot) {
				evalAt(j, y, tot)
			} else {
				s.Stats.Intervals++
			}
		}
		lastDirty := merged[len(merged)-1][1]

		// Read-path selection for this strip: marching the flat prefix
		// from position 0 to lastDirty, versus one tree seed per merged
		// range (the within-range marching is common to both). With no
		// tree live the flat pass is the only evaluator.
		useFlat := !maintainTree || s.stripMode == stripAuto &&
			float64(lastDirty+1)*flatStep < float64(len(merged))*logK*treeProbe
		if useFlat {
			// The flat merge pass: one running prefix sum over the
			// sorted deltas (cursor 1) and the merged dirty ranges
			// (cursor 2), both advancing monotonically. Deltas of
			// untouched gaps are folded in without evaluation.
			s.Stats.FlatStrips++
			for c := range run {
				run[c] = 0
			}
			pos := int32(-1)
			for _, cur := range merged {
				inc.dif.Advance(int(pos), int(cur[0]), run)
				evalAt(cur[0], y, run)
				for j := cur[0] + 1; j <= cur[1]; j++ {
					march(j, run)
				}
				pos = cur[1]
			}
		} else {
			// Sparse regime: seed each merged range with one tree walk,
			// then march within the range on the difference array.
			s.Stats.FenwickStrips++
			for _, cur := range merged {
				inc.bit.PointInto(int(cur[0]), chI)
				evalAt(cur[0], y, chI)
				for j := cur[0] + 1; j <= cur[1]; j++ {
					march(j, chI)
				}
			}
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
