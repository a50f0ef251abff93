package dssearch

import (
	"fmt"
	"testing"
	"unsafe"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// SolveASRS answers one single-best request through the package front
// door — the request's plan compiled against opt.Pyramid (Compile), then
// whole space or extent, one round under the exclusions — for the tests
// that check what a round answers rather than how rounds chain. A round
// whose answer failed its self-check (Searcher.Settle) is an error here,
// so every test that solves through it fails on one.
func SolveASRS(ds *attr.Dataset, a, b float64, q asp.Query, within *geom.Rect, exclude []geom.Rect, opt Options) (geom.Rect, asp.Result, Stats, error) {
	pl, err := Compile(ds, q, opt.Pyramid)
	if err != nil {
		return geom.Rect{}, asp.Result{}, Stats{}, err
	}
	defer pl.Release()
	r, err := Open(pl, a, b, within, opt)
	if err != nil {
		return geom.Rect{}, asp.Result{}, Stats{}, err
	}
	defer r.Close()
	region, res, err := r.Best(exclude)
	st := r.Stats()
	if err == nil {
		err = selfChecked(st)
	}
	return region, res, st, err
}

// selfChecked is the error of a search whose answers failed their
// self-check.
func selfChecked(st Stats) error {
	if n := st.SelfCheckMisses; n != 0 {
		return fmt.Errorf("dssearch: %d answers re-evaluated to another distance at their point", n)
	}
	return nil
}

// NewShapeSearcher is the searcher of the w×h top-right reduction of ds
// for any finite w, h ≥ 0 — zero-extent rectangles included, which
// NewRegionSearcher refuses — on a plan of its own (Compile against
// opt.Pyramid). Every answer the searcher settles is self-checked: the
// test fails at its end if one re-evaluated to another distance.
func NewShapeSearcher(tb testing.TB, ds *attr.Dataset, w, h float64, q asp.Query, opt Options) (*Searcher, error) {
	pl, err := Compile(ds, q, opt.Pyramid)
	if err != nil {
		return nil, err
	}
	s, err := newSearcher(pl, w, h, opt)
	if err == nil {
		tb.Cleanup(func() {
			if err := selfChecked(s.Stats); err != nil {
				tb.Error(err)
			}
		})
	}
	return s, err
}

// NewSearcher is NewRegionSearcher on a plan of its own, compiled against
// opt.Pyramid: the searcher of one request.
func NewSearcher(ds *attr.Dataset, a, b float64, q asp.Query, opt Options) (*Searcher, error) {
	pl, err := Compile(ds, q, opt.Pyramid)
	if err != nil {
		return nil, err
	}
	return NewRegionSearcher(pl, a, b, opt)
}

// ResetScratch empties the free list, so that what a test releases next
// is all it holds.
func ResetScratch() {
	scratch.Lock()
	defer scratch.Unlock()
	clear(scratch.slabs)
	scratch.slabs = scratch.slabs[:0]
	clear(scratch.plans)
	scratch.plans = scratch.plans[:0]
}

// ReleasedBytes sums the capacities the released slabs retain, in bytes,
// over every slab the free list holds: the search scratch kept between
// searches.
func ReleasedBytes() int {
	scratch.Lock()
	defer scratch.Unlock()
	n := 0
	for _, t := range scratch.slabs {
		n += t.retainedBytes()
	}
	return n
}

// retainedBytes sums the capacities t holds, in bytes.
func (t *slab) retainedBytes() int {
	n := 8*(cap(t.scratchF)+cap(t.idBits)) +
		int(unsafe.Sizeof(cellInfo{}))*cap(t.scratchCells) +
		int(unsafe.Sizeof(asp.RectObject{}))*cap(t.scratchRects)
	for _, ids := range t.idFree {
		n += 4 * cap(ids)
	}
	return n
}

// DiscretizeHarness drives Function Discretize on one searcher from the
// external test package, which — unlike this one — may import
// internal/dataset for the benchmark corpora.
type DiscretizeHarness struct {
	s    *Searcher
	best asp.Result

	Space geom.Rect
	Ids   []int32
}

// NewDiscretizeHarness solves the a×b instance of ds once, so the
// incumbent every Run starts from is the one a search holds while it
// closes in on the optimum, and grows a space around the answer point
// until it holds wantIds rectangles. With cell set the space is
// discretized as a GI-DS cell's seed (SolveCell): at the grid sized to its
// ids (cellGrid) instead of NCol×NRow.
func NewDiscretizeHarness(tb testing.TB, ds *attr.Dataset, q asp.Query, a, b float64, wantIds int, cell bool) (*DiscretizeHarness, error) {
	s, err := NewShapeSearcher(tb, ds, a, b, q, Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	h := &DiscretizeHarness{s: s, best: s.Solve()}
	s.ensureScratch()
	p := h.best.Point
	for m := 0.01; len(h.Ids) < wantIds && m < 8; m += 0.01 {
		h.Space = geom.Rect{MinX: p.X - m*a, MinY: p.Y - m*b, MaxX: p.X + m*a, MaxY: p.Y + m*b}
		h.Ids = s.AppendWindowIDs(h.Space, h.Ids[:0])
	}
	if cell {
		s.grid.shape(cellGrid(len(h.Ids), s.opt.NCol), cellGrid(len(h.Ids), s.opt.NRow))
	}
	return h, nil
}

// Crossing counts the rectangles with an edge strictly inside the space.
func (h *DiscretizeHarness) Crossing() int {
	n := 0
	for _, id := range h.Ids {
		if !h.s.rect(id).ContainsRect(h.Space) {
			n++
		}
	}
	return n
}

// Grid returns the grid the space is discretized at.
func (h *DiscretizeHarness) Grid() (ncol, nrow int) { return h.s.grid.ncol, h.s.grid.nrow }

// Run discretizes the space once from the solved incumbent and returns
// the number of surviving dirty cells.
func (h *DiscretizeHarness) Run() int {
	h.s.beginItem(h.best)
	dirty := h.s.discretize(h.Space, h.Space, h.Ids)
	return len(dirty)
}

// CoreBytes is the memory the pyramid's core holds: its contribution and
// min/max tables, the part of a pyramid that belongs to its composite
// alone.
func (p *Pyramid) CoreBytes() int {
	c := p.core
	return 4*cap(c.cOff) + int(unsafe.Sizeof(agg.Contrib{}))*cap(c.contribs) +
		4*cap(c.mOff) + int(unsafe.Sizeof(agg.MMContrib{}))*cap(c.mms)
}

// boundTo reports whether the searcher reads p's anchors: whether the
// pyramid bound.
func (s *Searcher) boundTo(p *Pyramid) bool {
	return unsafe.SliceData(s.pts) == unsafe.SliceData(p.geo.pts)
}

// RuleTests makes the searcher count, per space, how many times the
// terminal rule is asked of it (sweepable), into the map it returns.
func (s *Searcher) RuleTests() map[geom.Rect]int {
	tests := map[geom.Rect]int{}
	s.ruleAsked = func(space geom.Rect) { tests[space]++ }
	return tests
}
