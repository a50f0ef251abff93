// Package sweep implements the sweep-line baseline ("Base" in paper §7)
// for the ASP problem: it enumerates every disjoint region of the
// rectangle arrangement by sweeping horizontal strips and scanning the
// x-intervals within each strip with an incremental accumulator. Its time
// complexity is O(n²) for arbitrary composite aggregators, which is the
// bound the paper derives for sweep-line approaches (§4.1).
//
// The same machinery restricted to a small sub-space is DS-Search's
// terminal step: the spaces its terminal rule takes are swept (DESIGN.md
// §3).
//
// A solver reads its rectangles' aggregates in row form (Rows): each
// rectangle's limb contributions and min/max contributions, evaluated
// once and read by every strip. DS-Search binds its pyramid's core, which
// holds every object's row, and hands a sweep the swept rectangles with
// their rows' ids; New, the oracle, flattens its objects into a table of
// its own. No sweep evaluates a composite over an object.
package sweep

import (
	"math"
	"slices"
	"sort"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/geom"
)

// Stats reports work counters of one sweep run.
type Stats struct {
	Strips    int // horizontal strips examined
	Intervals int // candidate x-intervals enumerated (a strip scores one only where the covering set moved)
	// FlatStrips counts the dirty strips the incremental sweep's flat
	// merge pass scored.
	FlatStrips int
	// Scored counts the intervals whose representation was folded and
	// scored against the bound, in every walk; PrunedStrips the dirty
	// strips of the incremental sweep skipped unscored because their
	// Lemma 5 bound could not beat it.
	Scored       int
	PrunedStrips int
}

// Solver runs the Base algorithm. The zero value is not usable; construct
// with New or NewSized.
type Solver struct {
	// rects are the bound rectangles, and rows[i] is rectangle i's row in
	// the table tab: its limb contributions and min/max contributions.
	rects []geom.Rect
	rows  []int32
	tab   Rows
	// base is the limb vector of a set that covers every candidate of the
	// spaces about to be solved (Rebind); nil means none.
	base []float64

	// limbs is the layout channels are summed in, the one the table's rows
	// are split in, and plan the query compiled against it: its bound is
	// the strip bound (stripOutOfReach), its score what every interval —
	// and the empty covering set — is scored by. Both are the caller's
	// (Bind); a solver built by New reads its own.
	limbs   *agg.Limbs
	plan    *agg.Plan
	own     agg.Limbs
	ownPlan agg.Plan

	byMinX []int // rect indices sorted by Rect.MinX
	byMaxX []int // rect indices sorted by Rect.MaxX

	// Reusable per-solve scratch: DS-Search's terminal rule runs thousands
	// of mini-sweeps per query through one Rebind-ed solver, so the strip
	// coordinates, limb accumulator and representation buffers persist
	// here instead of being allocated per call.
	ys  []float64
	acc []float64 // a strip's limb totals
	rep []float64

	// incremental selects the delta sweep for large inputs (see
	// incremental.go); inc is its reusable scratch, and incrCap bounds the
	// input size it engages for.
	incremental bool
	incrCap     int
	inc         incrState

	// evalCap bounds candidate distance evaluation (SolveWithinCapped):
	// the score plan marches against min(local best, evalCap), so
	// candidates provably unable to matter to the caller exit after a
	// dimension or two. +Inf (the constructors' value) disables it.
	evalCap float64

	Stats Stats
}

// New prepares a solver over the given rectangle objects, summing their
// channels in the limbs they certify (agg.Limbs.Certify) over them in the
// order given — what DS-Search certifies over a dataset's reduction, so
// New's answers are what DS-Search answers, bit for bit. It fails when
// their values do not certify. The objects are flattened once into a
// table of their own, in the row form a pyramid's core holds (Rows), and
// the pre-sorted edge orders are shared across strips so each strip costs
// O(n).
func New(rects []asp.RectObject, q asp.Query) (*Solver, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	s := &Solver{evalCap: math.Inf(1)}
	var raw []agg.Contrib
	for i := range rects {
		raw = q.F.AppendContribs(rects[i].Obj, raw)
	}
	if err := s.own.Certify(q.F.Channels(), raw); err != nil {
		return nil, err
	}
	s.ownPlan.Compile(q.F, &s.own, q.Norm, q.Target, q.W)
	s.Bind(&s.own, FlattenRows(rects, q.F, &s.own), &s.ownPlan)
	geo, ids := make([]geom.Rect, len(rects)), make([]int32, len(rects))
	for i := range rects {
		geo[i], ids[i] = rects[i].Rect, int32(i)
	}
	s.Rebind(geo, ids, nil)
	return s, nil
}

// Rows is a table of rectangles' rows: row r holds the limb
// contributions C[Off[r]:Off[r+1]], split in the limbs the solver sums
// in, and the min/max contributions MM[MOff[r]:MOff[r+1]] (MOff is empty
// for a composite without min/max slots). DS-Search binds its pyramid's
// core, which holds every object's row in master order (dssearch's
// core); New flattens its objects into one of its own.
type Rows struct {
	Off  []int32
	C    []agg.Contrib
	MOff []int32
	MM   []agg.MMContrib
}

// FlattenRows evaluates the rows of rects, row i for rects[i]: each
// object's contributions (selectors included) split in the limbs l, and
// its min/max contributions.
func FlattenRows(rects []asp.RectObject, f *agg.Composite, l *agg.Limbs) Rows {
	t := Rows{Off: make([]int32, 1, len(rects)+1)}
	for i := range rects {
		start := len(t.C)
		t.C = l.Split(f.AppendContribs(rects[i].Obj, t.C), start)
		t.Off = append(t.Off, int32(len(t.C)))
	}
	if f.MinMaxSlots() > 0 {
		t.MOff = make([]int32, 1, len(rects)+1)
		for i := range rects {
			t.MM = f.AppendMM(rects[i].Obj, t.MM)
			t.MOff = append(t.MOff, int32(len(t.MM)))
		}
	}
	return t
}

// NewSized returns an unbound solver whose sorted edges and strips are
// pre-sized for 2048 rectangles. The incremental sweep engages for inputs
// up to incrCap rectangles (none for 0); its scratch grows with the
// sweeps it runs, doubling, and is kept. It must be Bind- and Rebind-ed
// before use.
func NewSized(incrCap int) *Solver {
	const presort = 2048
	return &Solver{
		byMinX:      make([]int, 0, presort),
		byMaxX:      make([]int, 0, presort),
		ys:          make([]float64, 0, presort),
		evalCap:     math.Inf(1),
		incremental: incrCap > 0,
		incrCap:     incrCap,
	}
}

// Bind installs the limbs channels are summed in, the table of rows the
// bound rectangles read and the query compiled against those limbs (p),
// sizing the strip accumulator to the limbs and the representation to
// the query. The rows must be split in l, and l must certify every set
// the solver is bound to — a caller's limbs over a superset do. All three
// are retained and only read: they must not change while the solver is
// in use. A nil plan detaches the solver (a released slab's); it must be
// bound again before use.
func (s *Solver) Bind(l *agg.Limbs, tab Rows, p *agg.Plan) {
	s.limbs, s.tab, s.plan = l, tab, p
	s.acc = resize(s.acc, l.Eff())
	if p != nil {
		s.rep = resize(s.rep, p.Score.Dims())
	}
}

// Plan returns the plan the solver is bound to: the one it scores
// intervals and bounds strips by.
func (s *Solver) Plan() *agg.Plan { return s.plan }

// Rebind points the solver at a new rectangle set, reusing all scratch
// (sorted-edge orders, strip buffers, accumulator): rectangle i is
// rects[i], and its contributions are row rows[i] of the bound table. The
// query is unchanged; the slices are only read, never retained past the
// next Rebind. Stats keep accumulating across rebinds.
//
// base, when non-nil, is for a caller that has factored out the
// rectangles covering every candidate of the spaces it is about to solve:
// rects holds only the others, and base (in the installed limbs; read,
// never retained past the next rebind) the summed limb contributions of
// the covering ones. No edge of a covering rectangle delimits a strip or
// an interval, so the candidates are those of sweeping all the rectangles
// and every one is scored on base plus what the sweep accumulates: the
// classic walk starts each strip's accumulator from base, the incremental
// sweep range-adds it across all intervals. Limb sums being exact, the
// answer is that of the unfactored sweep bit for bit. The caller vouches
// for the covering — for SolveWithin over a space, rectangles whose open
// interior contains the closed space.
func (s *Solver) Rebind(rects []geom.Rect, rows []int32, base []float64) {
	s.rects, s.rows = rects, rows
	s.base = base
	s.byMinX = resize(s.byMinX, len(rects))
	s.byMaxX = resize(s.byMaxX, len(rects))
	for i := range rects {
		s.byMinX[i] = i
		s.byMaxX[i] = i
	}
	// slices.SortFunc is sort.Slice's pdqsort without its per-call
	// allocations, and puts equal keys in the same order — the order
	// rectangles sharing an edge coordinate are added in, which real-valued
	// sums can see (TestRebindOrderMatchesSortSlice).
	slices.SortFunc(s.byMinX, func(a, b int) int { return cmpLess(rects[a].MinX, rects[b].MinX) })
	slices.SortFunc(s.byMaxX, func(a, b int) int { return cmpLess(rects[a].MaxX, rects[b].MaxX) })
}

// cmpLess is the three-way comparison whose "< 0" is exactly x < y.
func cmpLess(x, y float64) int {
	switch {
	case x < y:
		return -1
	case y < x:
		return 1
	}
	return 0
}

// contribs returns rect i's limb contributions, its row of the table.
func (s *Solver) contribs(i int) []agg.Contrib {
	r := s.rows[i]
	return s.tab.C[s.tab.Off[r]:s.tab.Off[r+1]]
}

// mms returns rect i's min/max contributions, its row of the table.
func (s *Solver) mms(i int) []agg.MMContrib {
	r := s.rows[i]
	return s.tab.MM[s.tab.MOff[r]:s.tab.MOff[r+1]]
}

// resize returns a slice of length n, reusing capacity when possible.
func resize[T any](v []T, n int) []T {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]T, n)
}

// Solve finds the minimum-distance point over the whole plane, including
// the empty covering set.
func (s *Solver) Solve() asp.Result {
	space := geom.EmptyRect()
	for _, r := range s.rects {
		space.ExpandToInclude(r.BL())
		space.ExpandToInclude(r.TR())
	}
	best := s.emptyResult(space)
	if len(s.rects) == 0 {
		return best
	}
	if r, ok := s.SolveWithin(space); ok && r.Dist < best.Dist {
		best = r
	}
	return best
}

// emptyResult scores the empty covering set — a zero limb vector — at a
// point outside space.
func (s *Solver) emptyResult(space geom.Rect) asp.Result {
	rep := make([]float64, s.plan.Score.Dims())
	d := s.plan.Score.Distance(make([]float64, s.limbs.Eff()), rep)
	return asp.Result{Point: asp.EmptyCandidate(space), Dist: d, Rep: rep}
}

// SolveWithinCapped is SolveWithin with a caller-side relevance cap:
// candidates whose distance provably exceeds cap abandon the distance
// march early and never become the local best. Every candidate with
// distance ≤ cap — ties with the caller's incumbent included — is
// evaluated bit-identically to SolveWithin, so a caller that discards
// results worse than its incumbent (under any tie order on equal
// distances) observes exactly SolveWithin's answers. When nothing
// scores ≤ cap the returned result can be the untouched +Inf sentinel
// even though candidates existed (ok stays true) — by the contract
// above, the caller was going to discard those anyway.
func (s *Solver) SolveWithinCapped(space geom.Rect, capDist float64) (asp.Result, bool) {
	// nextafter keeps distance == capDist candidates below the march
	// bound, so the caller's tie-breaking still sees them. +Inf maps to
	// +Inf.
	s.evalCap = math.Nextafter(capDist, math.Inf(1))
	r, ok := s.SolveWithin(space)
	s.evalCap = math.Inf(1)
	return r, ok
}

// SolveWithin finds the minimum-distance point whose location lies in the
// closed rectangle space, considering only open disjoint regions of the
// arrangement (the candidates the paper enumerates). It returns ok=false
// when the space is invalid or degenerate.
func (s *Solver) SolveWithin(space geom.Rect) (asp.Result, bool) {
	if !space.IsValid() {
		return asp.Result{}, false
	}
	// Horizontal strips: distinct y edge coordinates clipped to the space,
	// plus the space's own extent.
	ys := append(s.ys[:0], space.MinY, space.MaxY)
	for _, r := range s.rects {
		if r.MinY > space.MinY && r.MinY < space.MaxY {
			ys = append(ys, r.MinY)
		}
		if r.MaxY > space.MinY && r.MaxY < space.MaxY {
			ys = append(ys, r.MaxY)
		}
	}
	sort.Float64s(ys)
	ys = dedup(ys)
	s.ys = ys

	best := asp.Result{Dist: math.Inf(1)}
	found := false

	if s.incremental && len(s.rects) >= incrMinRects && len(s.rects) <= s.incrCap &&
		len(ys) >= 2 && space.MinY != space.MaxY && space.MinX != space.MaxX {
		found = s.solveWithinIncremental(space, &best)
		return best, found
	}

	for si := 0; si+1 < len(ys); si++ {
		ym := (ys[si] + ys[si+1]) / 2
		if ys[si+1] <= ys[si] {
			continue
		}
		s.Stats.Strips++
		if s.scanStrip(ym, space, &best) {
			found = true
		}
	}
	// Degenerate zero-height space: a single line strip.
	if space.MinY == space.MaxY {
		s.Stats.Strips++
		if s.scanStrip(space.MinY, space, &best) {
			found = true
		}
	}
	return best, found
}

// scanStrip sweeps the x-intervals of the strip at height ym, updating
// best. Returns true if at least one candidate was evaluated. The strip's
// limb totals start from the base and follow the covering set as the walk
// adds and removes rectangles; each scored interval is scored from them
// by the compiled plan, which folds only the limbs it reads.
func (s *Solver) scanStrip(ym float64, space geom.Rect, best *asp.Result) bool {
	acc, rep := s.acc, s.rep
	if s.base != nil {
		copy(acc, s.base)
	} else {
		clear(acc)
	}

	// Merge-walk the two pre-sorted edge lists, keeping only rects active
	// in this strip (open coverage in y).
	active := func(i int) bool {
		r := s.rects[i]
		return r.MinY < ym && ym < r.MaxY
	}
	found := false
	ins, outs := s.byMinX, s.byMaxX
	ii, oi := 0, 0
	// prevX is the left end of the current candidate interval, clipped to
	// the space.
	prevX := space.MinX
	// changed says the covering set moved since the strip's last scored
	// interval. Edges of rectangles not active in the strip delimit
	// intervals too, but an interval under the covering set of its
	// predecessor scores the same distance, which already failed (or set)
	// the strict improvement test against a bound that has only tightened.
	changed := true
	evaluate := func(upToX float64) {
		l := math.Max(prevX, space.MinX)
		r := math.Min(upToX, space.MaxX)
		if l > r {
			return
		}
		s.Stats.Intervals++
		found = true
		if !changed {
			return
		}
		changed = false
		s.Stats.Scored++
		var xm float64
		if l == r {
			xm = l
		} else {
			xm = (l + r) / 2
		}
		bnd := best.Dist
		if s.evalCap < bnd {
			bnd = s.evalCap
		}
		if d, ok := s.plan.Score.Under(acc, rep, bnd); ok {
			best.Dist = d
			best.Point = geom.Point{X: xm, Y: ym}
			best.Rep = append(best.Rep[:0], rep...)
		}
	}
	if space.MinX == space.MaxX {
		// Degenerate zero-width space: a single candidate column. The
		// interval walk below cannot reach it (its early-out fires
		// before the covering set assembles), so assemble the open
		// covering set at the column directly and evaluate once.
		for _, i := range ins {
			r := s.rects[i]
			if r.MinX < space.MinX && space.MinX < r.MaxX && active(i) {
				s.add(acc, i)
			}
		}
		evaluate(space.MaxX)
		return found
	}
	for ii < len(ins) || oi < len(outs) {
		var x float64
		takeIn := false
		switch {
		case ii >= len(ins):
			x = s.rects[outs[oi]].MaxX
		case oi >= len(outs):
			x = s.rects[ins[ii]].MinX
			takeIn = true
		default:
			xi := s.rects[ins[ii]].MinX
			xo := s.rects[outs[oi]].MaxX
			// Process removals first at equal coordinates so that a point
			// exactly between a closing and an opening edge is attributed
			// the open-interval set on each side correctly.
			if xi < xo {
				x, takeIn = xi, true
			} else {
				x = xo
			}
		}
		if x > prevX && x > space.MinX {
			evaluate(x)
			prevX = x
		}
		if prevX >= space.MaxX {
			// The rest of the strip is outside the space, and the covering
			// set to the right can only be reached outside; stop early.
			break
		}
		if takeIn {
			if active(ins[ii]) {
				s.add(acc, ins[ii])
				changed = true
			}
			ii++
		} else {
			if active(outs[oi]) {
				s.remove(acc, outs[oi])
				changed = true
			}
			oi++
		}
	}
	// Trailing interval to the right of the last edge.
	if prevX < space.MaxX {
		evaluate(space.MaxX)
	}
	return found
}

// add sums rect i's limb contributions into acc.
func (s *Solver) add(acc []float64, i int) {
	for _, cb := range s.contribs(i) {
		acc[cb.Ch] += cb.V
	}
}

// remove takes rect i's limb contributions out of acc.
func (s *Solver) remove(acc []float64, i int) {
	for _, cb := range s.contribs(i) {
		acc[cb.Ch] -= cb.V
	}
}

// dedup removes adjacent duplicates from a sorted slice in place.
func dedup(vs []float64) []float64 {
	if len(vs) == 0 {
		return vs
	}
	out := vs[:1]
	for _, v := range vs[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
