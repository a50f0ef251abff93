package gridindex

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
	"asrs/internal/kernel"
)

// GI-DS (Algorithm 2): lower-bound the distance of the candidate regions
// bl-corner-located in the index cells, then search the cells best-first
// with DS-Search, stopping when the cheapest unsearched cell cannot beat
// the incumbent (d_opt exactly, or d_opt/(1+δ) for app-GIDS). Cells are
// bounded lazily: one heap holds ranges of cells, seeded with the whole
// grid, and a range is split into quarters, each bounded, only when the
// loop reaches its bound. The two margin strips the reduction adds left
// of and below the indexed bounds are bounded the same way and take
// their place in that order. The rounds of a top-k are one Session: each
// round after the first resumes from the heap, the strips and the answers
// the round before left.

// Stats reports the work of one GI-DS run. CellsSearched/Cells is the
// "ratio of cells searched" column of Table 1.
type Stats struct {
	Cells          int // index cells considered
	CellsSearched  int // cells handed to DS-Search
	CellsExcluded  int // cells reached by the best-first loop but wholly forbidden by exclusions (not in CellsSearched)
	Bounded        int // cell ranges bounded: the whole grid, then the quarters of every range the loop split
	MarginRuns     int // DS-Search runs on the reduction margins
	MarginsSkipped int // margin strips never searched: the search ended below their bound
	Pieces         int // sub-rectangles actually searched: margin runs plus every piece of every searched cell
	ExcludingRuns  int // completed runs that searched under a non-empty exclusion list
	Recorded       int // cells and strips a carrying session recorded (Session): their minimum, or that nothing in them is at or under the record cap
	RecordedAbove  int // of those, the ones recorded above the cap, with no candidate
	CellIDs        int // rectangle ids the index's cells handed the searcher's filter, over every piece searched (cellRuns)
	// LeftMarginLB and BottomMarginLB are the lower bounds of the two
	// margin strips (+Inf for a strip the space does not have). They do
	// not depend on the exclusions: a session bounds the strips at its
	// first round, and every round it resumes reports the same two.
	LeftMarginLB, BottomMarginLB float64
	DS                           dssearch.Stats
}

// Add folds another run's counters into s (the rounds of a top-k).
func (s *Stats) Add(o Stats) {
	s.Cells += o.Cells
	s.CellsSearched += o.CellsSearched
	s.CellsExcluded += o.CellsExcluded
	s.Bounded += o.Bounded
	s.MarginRuns += o.MarginRuns
	s.MarginsSkipped += o.MarginsSkipped
	s.Pieces += o.Pieces
	s.ExcludingRuns += o.ExcludingRuns
	s.Recorded += o.Recorded
	s.RecordedAbove += o.RecordedAbove
	s.CellIDs += o.CellIDs
	s.LeftMarginLB, s.BottomMarginLB = o.LeftMarginLB, o.BottomMarginLB
	s.DS.Add(o.DS)
}

// cellRange is a heap entry: the index cells [i0,i1)×[j0,j1) under a
// lower bound on every candidate whose bl corner lies in one of them.
type cellRange struct {
	lb             float64
	i0, i1, j0, j1 int32
}

func (r cellRange) cells() int { return int(r.i1-r.i0) * int(r.j1-r.j0) }

// rangeFirst orders the heap: by bound, and at equal bounds a larger
// range first, then the lower row, then the lower column. A range's bound
// is at most its cells', so every range that could hold a cell tied with
// the one on top has been split by the time that cell pops: cells come
// out in (bound, row, column) order.
func rangeFirst(x, y cellRange) bool {
	if x.lb != y.lb {
		return x.lb < y.lb
	}
	if cx, cy := x.cells(), y.cells(); cx != cy {
		return cx > cy
	}
	if x.j0 != y.j0 {
		return x.j0 < y.j0
	}
	return x.i0 < y.i0
}

// margin is one of the two strips no cell buckets, under the minimum
// bound of the virtual cells that tile it (marginBounds) — or, in a
// session's later rounds, under its key.
type margin struct {
	rect geom.Rect
	lb   float64
}

// candidate is a feasible answer a searched cell or strip holds: its
// minimum, recorded at or under the record cap, or the answer a search
// improved the incumbent to; owner is the cell's row-major number, or −1
// and −2 for the session's first and second strip.
type candidate struct {
	owner int
	res   asp.Result
}

// Session is the GI-DS rounds of one request — one index, dataset, query
// and size — under exclusions that grow round by round, as a top-k's do.
// Its first round is Algorithm 2 from scratch. A later round resumes from
// what the one before left instead of starting over, because exclusions
// only grow: a round's feasible answer points are a subset of the last
// round's, so a lower bound on a cell's feasible minimum stays one, and a
// feasible answer stays feasible at the same distance. What a round
// leaves is
//
//   - the range heap, whole: the unpopped ranges, the quarters a split
//     bounded at or above the threshold, the range that stopped the loop,
//     and every cell searched, pushed back under its key;
//   - the two strips, bounded once per session, each under its key;
//   - the candidates: per searched cell or strip, its minimum when that
//     is at most the record cap, or the answer its search improved the
//     incumbent to;
//   - the picks, the candidates the record cap is drawn from (bound).
//
// A cell or strip whose every piece the terminal rule sweeps whole is
// swept under the record cap U instead of the incumbent's
// (dssearch.Searcher.SolveCell), U an upper bound on the distance the
// session's last announced round answers (bound), and the session
// records what the sweeps find. When some point of it is at or under U,
// the least of them is the minimum over the cell's feasible answers: its
// key is the larger of that minimum and the bound it was taken at, and
// the point is its candidate. Otherwise every point is above U: its key
// is the larger of the bound and the float after U, and it holds no
// candidate. Both keys are lower bounds whatever U is. U decides only how
// much a sweep scores and whether a later round takes the cell again: a
// round that answers at most U does not. Any other search — a piece
// discretized — moves the incumbent from before to after, and the key is
// the larger of after.Dist/(1+δ) and the bound: every point was either
// found, at ≥ after.Dist, or pruned against an incumbent between after
// and before, at ≥ after.Dist/(1+δ). The candidate is after, if the
// search improved the incumbent. A cell the exclusions swallow is not
// pushed back, and a swallowed strip takes key +Inf.
//
// A round drops the candidates the boxes of its new exclusions forbid and
// seeds its incumbent with the kernel.Better-least of the empty covering
// set and the rest. Every key is then at or above the threshold while its
// cell's candidate stands, so a cell is searched again — on its pieces
// under the new boxes — only once a box has forbidden the point it holds,
// or, recorded above U, once the threshold passes U; and a cell searched
// holds no candidate. The loop, its order and its stopping rule are a
// fresh round's, so an exact round's distance is the one a fresh
// session's round under the same exclusions answers, bit for bit (with
// δ > 0 it is within 1+δ of the optimum), and its point may be another
// of equally distant ones.
//
// A round whose exclusions do not extend the last round's (checked by
// prefix) starts over, as does a round after an error. Nothing is carried
// when at most one round was announced or when a shared cap tightens the
// inner pruning (opt.SharedCap): a key would not be a bound there. A Session
// holds no searcher between rounds, only its range heap and bound vectors,
// from the index's scratch pool, which Close returns; a session dropped
// without Close leaks nothing. It runs on one goroutine.
type Session struct {
	idx   *Index
	ds    *attr.Dataset
	q     asp.Query
	a, b  float64
	opt   dssearch.Options
	carry bool
	// rounds is how many rounds Open announced, done how many completed.
	rounds, done int

	sc      *lbScratch // bound vectors, the range heap and the picks (bound)
	started bool       // the carried state below is valid
	excl    []geom.Rect
	margins [2]margin // the strips, left before bottom (strips)
	nm      int
	cands   []candidate
	outside float64 // the distance of the empty covering set outside the space
	limit   float64 // the record cap U (bound)

	leftLB, bottomLB float64
	visit            func(i, j int)
}

// Open opens the GI-DS rounds of an a×b query over the index, which must
// have been built over ds; rounds is how many the caller may run (what
// the rounds carry is kept only if a second can follow). The session is
// returned by value, so that a caller can hold it without an allocation;
// it is used through a pointer, and not copied once a round has run.
func Open(idx *Index, ds *attr.Dataset, q asp.Query, a, b float64, opt dssearch.Options, rounds int) Session {
	return Session{
		idx: idx, ds: ds, q: q, a: a, b: b, opt: opt,
		carry:  rounds > 1 && opt.SharedCap == nil,
		rounds: rounds,
	}
}

// Close returns the session's scratch to the index's pool; the session
// must not be used afterwards.
func (s *Session) Close() {
	if s.sc != nil {
		s.idx.putLBScratch(s.sc)
		s.sc = nil
	}
	s.started = false
}

// Solve runs one round of GI-DS for the session's a×b query over the
// index: the best answer whose region overlaps none of exclude, resumed
// from the round before when exclude extends its list. The searcher is
// that of the request (dssearch.NewRegionSearcher: the bl-corner
// bucketing of §5.3 assumes its top-right-corner reduction). opt.Delta > 0
// selects the approximate variant (app-GIDS).
//
// A fresh round's heap starts with one range, the whole grid. Popping a
// range of more than one cell splits it (split); popping a single cell
// searches it. The reduction extends the candidate space left of and
// below the indexed bounds by (a, b). No cell buckets those two margin
// strips; each carries a bound of its own and is searched whole, in
// order: every step of the best-first loop takes the pending strip with
// the smaller bound if that bound is at most the heap top's — a strip goes
// before a range of equal bound — and else pops the heap, and the search
// ends at the first strip or range taken whose bound cannot beat the
// incumbent.
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
func (s *Session) Solve(exclude []geom.Rect) (asp.Result, Stats, error) {
	idx, q, a, b, opt := s.idx, s.q, s.a, s.b, s.opt
	if idx.f != q.F {
		return asp.Result{}, Stats{}, fmt.Errorf("gridindex: index was built for a different composite aggregator")
	}
	resume := s.resumes(exclude)
	s.started = false // set again once this round completes
	searcher, err := dssearch.NewRegionSearcher(s.ds, a, b, q, opt)
	if err != nil {
		return asp.Result{}, Stats{}, err
	}
	defer searcher.Release()
	stats := Stats{LeftMarginLB: math.Inf(1), BottomMarginLB: math.Inf(1)}

	// Seed the incumbent with the empty covering set.
	space := searcher.Space()
	emptyP := asp.EmptyCandidate(space)
	emptyRep := searcher.PointRepresentation(emptyP)
	incumbent := asp.Result{Point: emptyP, Dist: q.Distance(emptyRep), Rep: emptyRep}

	if searcher.Objects() > 0 {
		forbidden := dssearch.ForbiddenBoxes(exclude, a, b)
		if s.sc == nil {
			s.sc = idx.getLBScratch()
		}
		sc := s.sc
		h := sc.heap
		stats.Cells = idx.sx * idx.sy
		s.outside = incumbent.Dist
		if resume {
			// Drop what the new exclusions forbid — every candidate kept
			// so far avoids the boxes of the old ones — and seed the
			// incumbent with the least of the rest.
			added := forbidden[len(s.excl):]
			kept := s.cands[:0]
			for _, c := range s.cands {
				if allowed(c.res.Point, added) {
					kept = append(kept, c)
					if kernel.Better(c.res, incumbent) {
						incumbent = c.res
					}
				}
			}
			clear(s.cands[len(kept):])
			s.cands = kept
			s.limit = s.repick(added)
		} else {
			s.begin(space, &stats)
		}
		stats.LeftMarginLB, stats.BottomMarginLB = s.leftLB, s.bottomLB
		searcher.SeedBest(incumbent)

		// The strips in the order they are taken in: by bound, the left
		// one first at equal bounds.
		var order [2]int
		pending := order[:s.nm]
		if s.nm == 2 && s.margins[1].lb < s.margins[0].lb {
			order[0] = 1
		} else {
			order[1] = 1
		}

		// Lines 5–7: best-first refinement.
		var pieces []geom.Rect
		for (len(pending) > 0 || h.Len() > 0) && searcher.Err() == nil {
			thresh := searcher.Best().Dist
			if opt.Delta > 0 {
				thresh /= 1 + opt.Delta
			}
			if len(pending) > 0 && (h.Len() == 0 || s.margins[pending[0]].lb <= h.Peek().lb) {
				k := pending[0]
				m := &s.margins[k]
				if m.lb >= thresh {
					break
				}
				pending = pending[1:]
				pieces = dssearch.AppendPieces(pieces[:0], m.rect, forbidden)
				stats.MarginRuns += len(pieces)
				if len(pieces) == 0 {
					m.lb = math.Inf(1)
				} else {
					m.lb = s.search(searcher, -1-k, m.lb, pieces, &stats)
				}
				continue
			}
			top := h.Pop()
			if top.lb >= thresh {
				if s.carry {
					h.Push(top)
				}
				break
			}
			if top.cells() > 1 {
				stats.Bounded += idx.split(h, top, thresh, s.carry, q, a, b, sc)
				continue
			}
			i, j := int(top.i0), int(top.j0)
			if s.visit != nil {
				s.visit(i, j)
			}
			pieces = dssearch.AppendPieces(pieces[:0], idx.CellRect(i, j), forbidden)
			if len(pieces) == 0 {
				stats.CellsExcluded++
				continue
			}
			stats.CellsSearched++
			if key := s.search(searcher, j*idx.sx+i, top.lb, pieces, &stats); s.carry {
				top.lb = key
				h.Push(top)
			}
		}
		stats.MarginsSkipped = len(pending)
		if !s.carry {
			idx.putLBScratch(sc)
			s.sc = nil
		}
	} else {
		searcher.SeedBest(incumbent)
	}
	if err := searcher.Err(); err != nil {
		stats.DS = searcher.Stats
		return asp.Result{}, stats, err
	}
	if s.carry {
		s.started = true
		s.done++
		s.excl = append(s.excl[:0], exclude...)
	}

	best := searcher.Settle(searcher.Best())
	stats.DS = searcher.Stats
	if len(exclude) > 0 {
		stats.ExcludingRuns = 1
	}
	return best, stats, nil
}

// resumes reports whether a round under exclude can resume the carried
// state: the last round completed and exclude extends its exclusions.
func (s *Session) resumes(exclude []geom.Rect) bool {
	if !s.started || len(exclude) < len(s.excl) {
		return false
	}
	for i, r := range s.excl {
		if exclude[i] != r {
			return false
		}
	}
	return true
}

// begin starts the carried state over: the strips bounded, the heap
// holding the whole grid under its bound (lines 2–4, lazily), no
// candidates.
func (s *Session) begin(space geom.Rect, stats *Stats) {
	idx, sc := s.idx, s.sc
	s.nm = len(idx.strips(s.margins[:0], space, s.q, s.a, s.b, sc, stats))
	s.leftLB, s.bottomLB = stats.LeftMarginLB, stats.BottomMarginLB
	h := sc.heap
	h.Reset()
	whole := cellRange{i1: int32(idx.sx), j1: int32(idx.sy)}
	whole.lb = idx.rangeLowerBound(s.q, s.a, s.b, whole, sc)
	stats.Bounded++
	h.Push(whole)
	clear(s.cands)
	s.cands = s.cands[:0]
	if s.carry {
		s.sc.picks.reset(2*s.a, 2*s.b)
	}
	s.limit = s.outside
}

// strips appends to dst the margin strips of the space, the left one
// before the bottom one, each under its bound, and records the bounds in
// stats. A space that does not reach past the bounds on a side (an extent
// below one ulp of the coordinates) has no strip there.
func (x *Index) strips(dst []margin, space geom.Rect, q asp.Query, a, b float64, sc *lbScratch, stats *Stats) []margin {
	bounds := x.bounds
	left, bottom := x.marginBounds(q, a, b, sc)
	if r := (geom.Rect{MinX: space.MinX, MinY: space.MinY, MaxX: bounds.MinX, MaxY: space.MaxY}); r.IsValid() && !r.IsEmpty() {
		dst = append(dst, margin{r, left})
		stats.LeftMarginLB = left
	}
	if r := (geom.Rect{MinX: bounds.MinX, MinY: space.MinY, MaxX: space.MaxX, MaxY: bounds.MinY}); r.IsValid() && !r.IsEmpty() {
		dst = append(dst, margin{r, bottom})
		stats.BottomMarginLB = bottom
	}
	return dst
}

// search searches the pieces of a cell or strip taken under bound lb,
// each as a cell (SolveCell: a first grid sized to its rectangles), with
// the rectangle ids of the index cells the piece's anchor box reaches
// (cellRuns), kept by the searcher where they meet the piece
// (AppendCellIDs: the ids AppendWindowIDs collects), and returns its key
// in a carrying session, where it records the owner (see Session): by
// the least of the pieces' points at or under the record cap, or as
// above it, when every piece was swept whole; else by the incumbent's
// move from before to after. Pieces are swept under the record cap only
// while the cell can still be recorded; those after the first that
// cannot be take the capped, pruned search.
func (s *Session) search(searcher *dssearch.Searcher, owner int, lb float64, pieces []geom.Rect, stats *Stats) float64 {
	sc := s.sc
	before := searcher.Best()
	recording := s.carry
	least := asp.Result{Dist: math.Inf(1)}
	for _, p := range pieces {
		stats.Pieces++
		var n int
		sc.runs, n = s.idx.cellRuns(sc.runs[:0], p, s.a, s.b)
		stats.CellIDs += n
		sc.ids = searcher.AppendCellIDs(p, sc.runs, sc.ids[:0])
		record := math.Inf(-1)
		if recording {
			record = s.limit
		}
		r, ok := searcher.SolveCell(p, lb, sc.ids, record)
		if recording = recording && ok; recording && r.Rep != nil && kernel.Better(r, least) {
			least = r
		}
	}
	if !s.carry {
		return lb
	}
	if recording {
		stats.Recorded++
		if least.Rep == nil {
			stats.RecordedAbove++
			return max(lb, math.Nextafter(s.limit, math.Inf(1)))
		}
		s.add(candidate{owner, least})
		return max(lb, least.Dist)
	}
	after := searcher.Best()
	if kernel.Better(after, before) {
		s.add(candidate{owner, after})
	}
	key := after.Dist
	if s.opt.Delta > 0 {
		key /= 1 + s.opt.Delta
	}
	return max(lb, key)
}

// add holds a candidate; one under the record cap is offered to the
// picks (bound), which may lower it.
func (s *Session) add(c candidate) {
	s.cands = append(s.cands, c)
	if c.res.Dist < s.limit {
		s.sc.picks.offer(c.res)
		s.limit = s.bound()
	}
}

// bound is the record cap U: an upper bound on the distance the session's
// last announced round answers, when each round to come adds its
// answer's region to the exclusions, as a top-k's do. The outside region
// bounds it, as no exclusion forbids it. So does the need-th best of any
// candidates no two of which share an open 2a×2b box, need the rounds
// still to run: a region forbids the answer points in the open 2a×2b box
// around its own answer point (dssearch.ForbiddenBoxes), which holds at
// most one of them, so the need−1 regions the rounds before the last add
// leave one of them feasible. The session keeps such candidates as its
// picks, the best it is offered (pickSet.offer): a candidate as it comes
// in under U, and at the start of a round those the picks it forbade had
// kept out (repick). Past need of them the worst go. A conflict that
// rounding hides only lowers U, which a record needs nothing of.
func (s *Session) bound() float64 {
	need := max(s.rounds-s.done, 1)
	ps := &s.sc.picks
	for len(ps.picks) > need {
		ps.remove(ps.worst())
	}
	if len(ps.picks) < need {
		return s.outside
	}
	return ps.picks[ps.worst()].dist
}

// repick starts a resumed round's picks: those its added boxes forbid
// go, and the candidates that shared a box with one of them are offered
// again, best first.
func (s *Session) repick(added []geom.Rect) float64 {
	ps := &s.sc.picks
	gone := ps.gone[:0]
	for j := 0; j < len(ps.picks); {
		if p := ps.picks[j].p; !allowed(p, added) {
			gone = append(gone, p)
			ps.remove(j)
		} else {
			j++
		}
	}
	ps.gone = gone
	// The open box within 2a and 2b of a point holds at most four points
	// no two of which share a 2a×2b box, so while four per pick gone
	// cannot bring the picks to need, U stays the outside distance.
	if need := max(s.rounds-s.done, 1); len(ps.picks)+4*len(gone) < need {
		return s.outside
	}
	near := ps.near[:0]
	for _, g := range gone {
		for i := range s.cands {
			if c := &s.cands[i].res; math.Abs(c.Point.X-g.X) < ps.w && math.Abs(c.Point.Y-g.Y) < ps.h && c.Dist < s.outside {
				near = append(near, *c)
			}
		}
	}
	slices.SortFunc(near, func(x, y asp.Result) int {
		if kernel.Better(x, y) {
			return -1
		}
		if kernel.Better(y, x) {
			return 1
		}
		return 0
	})
	for _, r := range near {
		ps.offer(r)
	}
	clear(near)
	ps.near = near[:0]
	return s.bound()
}

// pickSet is a session's picks (bound), in x order, w×h the box two
// picks may not share.
type pickSet struct {
	w, h  float64
	picks []pick

	gone []geom.Point // repick's scratch
	near []asp.Result
}

// pick is a point picked, at its distance.
type pick struct {
	dist float64
	p    geom.Point
}

func (q *pick) res() asp.Result { return asp.Result{Dist: q.dist, Point: q.p} }

// reset empties the set.
func (ps *pickSet) reset(w, h float64) {
	ps.w, ps.h = w, h
	ps.picks = ps.picks[:0]
}

// offer picks r when it shares no box with a pick, or when it shares
// one with a single pick it is kernel.Better than, in that pick's place:
// the picks stay pairwise apart.
func (ps *pickSet) offer(r asp.Result) {
	j, n := ps.meet(r)
	switch {
	case n == 0:
	case n == 1 && kernel.Better(r, ps.picks[j].res()):
		ps.remove(j)
	default:
		return
	}
	ps.picks = slices.Insert(ps.picks, ps.at(r.Point.X), pick{r.Dist, r.Point})
}

// at is the index of the first pick whose x is at least x.
func (ps *pickSet) at(x float64) int {
	i, _ := slices.BinarySearchFunc(ps.picks, x, func(q pick, x float64) int { return cmp.Compare(q.p.X, x) })
	return i
}

// meet returns how many picks share an open w×h box with r, counted up
// to two, and the index of the last one counted.
func (ps *pickSet) meet(r asp.Result) (j, n int) {
	for i := ps.at(r.Point.X - ps.w); i < len(ps.picks) && ps.picks[i].p.X < r.Point.X+ps.w; i++ {
		if q := ps.picks[i].p; math.Abs(r.Point.X-q.X) < ps.w && math.Abs(r.Point.Y-q.Y) < ps.h {
			if j, n = i, n+1; n == 2 {
				break
			}
		}
	}
	return j, n
}

// remove drops the pick j.
func (ps *pickSet) remove(j int) { ps.picks = slices.Delete(ps.picks, j, j+1) }

// worst returns the index of the kernel.Better-last pick.
func (ps *pickSet) worst() int {
	w := 0
	for i := 1; i < len(ps.picks); i++ {
		if kernel.Better(ps.picks[w].res(), ps.picks[i].res()) {
			w = i
		}
	}
	return w
}

// allowed reports whether an answer point lies in none of the open
// forbidden boxes.
func allowed(p geom.Point, forbidden []geom.Rect) bool {
	for _, f := range forbidden {
		if f.ContainsOpen(p) {
			return false
		}
	}
	return true
}

// split bounds the quarters of a range of more than one cell — it is
// halved at its midpoint along each axis longer than one cell — pushes
// those below the threshold, or all of them when keep is set, and returns
// how many it bounded. A quarter takes the larger of its own bound and
// its parent's: both bound every candidate in it, and the bounds the loop
// pops then never decrease.
func (x *Index) split(h *kernel.Heap[cellRange], r cellRange, thresh float64, keep bool, q asp.Query, a, b float64, sc *lbScratch) int {
	im, jm := (r.i0+r.i1)/2, (r.j0+r.j1)/2
	n := 0
	for _, rows := range [2][2]int32{{r.j0, jm}, {jm, r.j1}} {
		for _, cols := range [2][2]int32{{r.i0, im}, {im, r.i1}} {
			if rows[0] == rows[1] || cols[0] == cols[1] {
				continue
			}
			c := cellRange{i0: cols[0], i1: cols[1], j0: rows[0], j1: rows[1]}
			c.lb = max(x.rangeLowerBound(q, a, b, c, sc), r.lb)
			n++
			if keep || c.lb < thresh {
				h.Push(c)
			}
		}
	}
	return n
}

// lbScratch bundles the per-query scratch of the cell lower bounds —
// limb and channel vectors, bound vectors, min/max slots and the
// integer-dim flags — carved from one slab allocation, the range heap,
// and the cells' id lists and the rectangle ids of the piece being
// searched. Scratches recycle through the index's pool, so steady-state
// GI-DS queries reallocate nothing here; a session's range heap is what
// it carries between rounds.
type lbScratch struct {
	fullL, partL []float64 // limbs
	full, part   []float64 // channels
	lo, hi       []float64
	mmMin, mmMax []float64
	isInt        []bool

	heap *kernel.Heap[cellRange]
	runs [][]int32
	ids  []int32

	picks pickSet // a carrying session's (Session.bound)

}

func (x *Index) getLBScratch() *lbScratch {
	if sc, ok := x.lbPool.Get().(*lbScratch); ok && sc != nil {
		return sc
	}
	dims := x.f.Dims()
	slab := make([]float64, 2*x.eff+2*x.chans+2*dims+2*x.mmSlots)
	carve := func(n int) []float64 {
		out := slab[:n:n]
		slab = slab[n:]
		return out
	}
	return &lbScratch{
		fullL: carve(x.eff),
		partL: carve(x.eff),
		full:  carve(x.chans),
		part:  carve(x.chans),
		lo:    carve(dims),
		hi:    carve(dims),
		mmMin: carve(x.mmSlots),
		mmMax: carve(x.mmSlots),
		isInt: x.f.IntegerDims(),
		heap:  kernel.NewHeap(rangeFirst),
	}
}

func (x *Index) putLBScratch(sc *lbScratch) { x.lbPool.Put(sc) }

// rangeLowerBound is the §5.3 bound of the candidate regions whose bl
// corner lies in any cell of r: bounded region ⊆ every such candidate
// region ⊆ bounding region, evaluated with Lemma 8 and Equation 1. For a
// single cell it is that cell's bound.
func (x *Index) rangeLowerBound(q asp.Query, a, b float64, r cellRange, sc *lbScratch) float64 {
	return x.spanLowerBound(q, x.colSpan(int(r.i0), int(r.i1), a), x.rowSpan(int(r.j0), int(r.j1), b), sc)
}

// span holds, along one axis, the §5.3 cell ranges of the candidate
// regions whose bl corner lies in a range of buckets of that axis:
// [il, ir) are covered by every such region, [ol, or) met by some.
type span struct{ il, ir, ol, or int }

// colSpan is the span of the candidates bl-corner-located in columns
// [i0, i1), and rowSpan that of rows [j0, j1) (axisSpan).
func (x *Index) colSpan(i0, i1 int, a float64) span {
	return axisSpan(x.bounds.MinX, x.cw, x.sx, i0, i1, a)
}

func (x *Index) rowSpan(j0, j1 int, b float64) span {
	return axisSpan(x.bounds.MinY, x.chh, x.sy, j0, j1, b)
}

// axisSpan computes a span along an axis of n buckets of width w from
// origin, with edges X_c = origin + c·w, for regions of extent ext whose
// corner lies in [X_{i0}, X_{i1}).
//
// Inside: the buckets c ≥ i1 with X_{c+1} ≤ X_{i0} + ext. Objects there
// satisfy p < o < p+ext strictly for every corner p in the range because
// binning is half-open too — except that boundary objects at the dataset
// maximum are clamped into the last bucket, so an inside range reaching
// it is shrunk by one (conservatively partial).
//
// Bounding: the buckets meeting [X_{i0}, X_{i1} + ext], from i0 to the
// first bucket at or past i1 whose lower edge reaches X_{i1} + ext.
//
// The formulas are arithmetic in the bucket index, so they hold for the
// virtual buckets before the origin too (marginBounds), and a range of
// one bucket, i1 = i0+1, is that bucket's span.
func axisSpan(origin, w float64, n, i0, i1 int, ext float64) span {
	hi := origin + float64(i0)*w + ext
	r := i1
	for r < n && origin+float64(r+1)*w <= hi {
		r++
	}
	if r == n && r > i1 {
		r--
	}
	hi = origin + float64(i1)*w + ext
	o := i1
	for o < n && origin+float64(o)*w < hi {
		o++
	}
	return span{il: i1, ir: r, ol: i0, or: o}
}

// spanLowerBound is the §5.3 bound of the candidate regions whose bl
// corner lies in the buckets with these column and row spans. Ranges may
// reach outside the grid: there is nothing there, and regionLimbs and
// RingMinMax clamp.
func (x *Index) spanLowerBound(q asp.Query, cols, rows span, sc *lbScratch) float64 {
	x.regionLimbs(cols.il, cols.ir, rows.il, rows.ir, sc.fullL)
	x.regionLimbs(cols.ol, cols.or, rows.ol, rows.or, sc.partL)
	// The partial set is the bounding region minus the bounded one, so
	// its limb totals are exactly big−full.
	for k, v := range sc.fullL {
		sc.partL[k] -= v
	}
	full := x.limbs.Fold(sc.full, sc.fullL)
	part := x.limbs.Fold(sc.part, sc.partL)
	if x.mmSlots > 0 {
		for s := 0; s < x.mmSlots; s++ {
			sc.mmMin[s] = math.Inf(1)
			sc.mmMax[s] = math.Inf(-1)
		}
		x.RingMinMax(cols.ol, cols.or, rows.ol, rows.or, cols.il, cols.ir, rows.il, rows.ir, sc.mmMin, sc.mmMax)
	}
	x.f.FinalizeBounds(full, part, sc.mmMin, sc.mmMax, sc.lo, sc.hi)
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
		rows := x.rowSpan(j, j+1, b)
		if j == -ny {
			rows.ir = rows.il
		}
		for i := -nx; i < 0; i++ {
			cols := x.colSpan(i, i+1, a)
			if i == -nx {
				cols.ir = cols.il
			}
			left = math.Min(left, x.spanLowerBound(q, cols, rows, sc))
		}
		if j < 0 {
			for i := 0; i < x.sx; i++ {
				bottom = math.Min(bottom, x.spanLowerBound(q, x.colSpan(i, i+1, a), rows, sc))
			}
		}
	}
	return left, bottom
}
