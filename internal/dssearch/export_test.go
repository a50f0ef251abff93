package dssearch

import (
	"unsafe"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// SolveASRS answers one single-best request through the package front
// door — whole space or extent, one round under the exclusions — for the
// tests that check what a round answers rather than how rounds chain.
func SolveASRS(ds *attr.Dataset, a, b float64, q asp.Query, within *geom.Rect, exclude []geom.Rect, opt Options) (geom.Rect, asp.Result, Stats, error) {
	r, err := Open(ds, a, b, q, within, opt)
	if err != nil {
		return geom.Rect{}, asp.Result{}, Stats{}, err
	}
	defer r.Close()
	region, res, err := r.Best(exclude)
	return region, res, r.Stats(), err
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

// NewDiscretizeHarness solves the instance once, so the incumbent every
// Run starts from is the one a search holds while it closes in on the
// optimum, and grows a space around the answer point until it holds
// wantIds rectangles. With cell set the space is discretized as a GI-DS
// cell's seed (SolveCell): at the grid sized to its ids (cellGrid)
// instead of NCol×NRow.
func NewDiscretizeHarness(rects []asp.RectObject, q asp.Query, a, b float64, wantIds int, cell bool) (*DiscretizeHarness, error) {
	s, err := NewSearcher(rects, q, Options{Workers: 1})
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
		if !h.s.rects[id].Rect.ContainsRect(h.Space) {
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
