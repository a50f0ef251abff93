package gridindex

import (
	"fmt"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
)

// Build is New over the pyramid BuildPyramid builds for ds and f: the
// index of a dataset, as asrs.NewIndex builds it.
func Build(ds *attr.Dataset, f *agg.Composite, sx, sy int) (*Index, error) {
	p, err := dssearch.BuildPyramid(ds, f)
	if err != nil {
		return nil, err
	}
	return New(p, sx, sy)
}

// CellLowerBounds returns the §5.3 bound of every index cell — a range of
// one cell — in row-major order (j*sx+i): the flat pass the search
// replaced with lazily split ranges, kept as the tests' oracle.
func (x *Index) CellLowerBounds(q asp.Query, a, b float64) []float64 {
	out := make([]float64, 0, x.sx*x.sy)
	for j := 0; j < x.sy; j++ {
		for i := 0; i < x.sx; i++ {
			out = append(out, x.RangeLowerBound(q, a, b, i, i+1, j, j+1))
		}
	}
	return out
}

// RangeLowerBound is the bound Solve gives the cells [i0,i1)×[j0,j1)
// before any parent's bound is folded in. Columns and rows below 0 are
// the virtual cells that tile the margin strips.
func (x *Index) RangeLowerBound(q asp.Query, a, b float64, i0, i1, j0, j1 int) float64 {
	sc := x.getLBScratch()
	defer x.putLBScratch(sc)
	return x.rangeLowerBound(a, b, cellRange{i0: int32(i0), i1: int32(i1), j0: int32(j0), j1: int32(j1)}, boundOf(q), sc)
}

// boundOf is q's Equation 1 bound, compiled.
func boundOf(q asp.Query) *agg.BoundPlan {
	var p agg.BoundPlan
	p.Compile(q.F, q.Norm, q.Target, q.W)
	return &p
}

// Compile is the plan of a request over ds, as the search driver compiles
// it: against opt.Pyramid when it was built for ds, else a one-shot one.
// It is released when the test ends.
func Compile(tb testing.TB, ds *attr.Dataset, q asp.Query, opt dssearch.Options) *dssearch.Plan {
	tb.Helper()
	pl, err := dssearch.Compile(ds, q, opt.Pyramid)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(pl.Release)
	return pl
}

// RegionChannels writes into out the channel totals of objects located in
// cells [l, r) × [b, t): the exact limb totals of regionLimbs, folded.
func (x *Index) RegionChannels(l, r, b, t int, out []float64) {
	limbs := make([]float64, x.eff)
	x.regionLimbs(l, r, b, t, limbs)
	copy(out, x.limbs.Fold(out, limbs))
}

// Solve is one round of a fresh Session: GI-DS from scratch, the oracle
// resumed rounds are held to.
func Solve(idx *Index, ds *attr.Dataset, q asp.Query, a, b float64, exclude []geom.Rect, opt dssearch.Options) (asp.Result, Stats, error) {
	return SolveVisiting(idx, ds, q, a, b, exclude, opt, nil)
}

// SolveVisiting is Solve, calling visit with every cell the best-first
// loop takes, in order. A round whose answer failed its self-check
// (dssearch.Searcher.Settle) is an error here, so every test that solves
// through it fails on one.
func SolveVisiting(idx *Index, ds *attr.Dataset, q asp.Query, a, b float64, exclude []geom.Rect, opt dssearch.Options, visit func(i, j int)) (asp.Result, Stats, error) {
	pl, err := dssearch.Compile(ds, q, opt.Pyramid)
	if err != nil {
		return asp.Result{}, Stats{}, err
	}
	defer pl.Release()
	s := Open(idx, pl, a, b, opt, 1)
	defer s.Close()
	if visit != nil {
		s.Visit(visit)
	}
	res, st, err := s.Solve(exclude)
	if err == nil {
		err = SelfChecked(st)
	}
	return res, st, err
}

// Visit sets the hook the session's best-first loop calls with every
// cell it takes, in order.
func (s *Session) Visit(visit func(i, j int)) {
	s.visit = func(i, j int, _ *dssearch.Searcher) { visit(i, j) }
}

// VisitSearcher sets the hook the session's best-first loop calls with
// the searcher of the round, at every cell it takes.
func (s *Session) VisitSearcher(visit func(*dssearch.Searcher)) {
	s.visit = func(_, _ int, searcher *dssearch.Searcher) { visit(searcher) }
}

// Record is a candidate a session holds: the cell (row-major, j*sx+i) or
// strip (−1 for the first, −2 for the second) and its answer.
type Record struct {
	Owner int
	Res   asp.Result
}

// Records returns the candidates the session holds.
func (s *Session) Records() []Record {
	out := make([]Record, len(s.cands))
	for i, c := range s.cands {
		out[i] = Record{c.owner, c.res}
	}
	return out
}

// SelfChecked is the error of a round whose answer failed its self-check.
func SelfChecked(st Stats) error {
	if n := st.DS.SelfCheckMisses; n != 0 {
		return fmt.Errorf("gridindex: %d answers re-evaluated to another distance", n)
	}
	return nil
}

// CellIDs returns what a session's search hands SolveCell for the piece p
// of an a×b query: the ids of the cells p's anchor box reaches
// (cellRuns), kept by the searcher where they meet p (AppendCellIDs) and
// appended to dst, and how many ids the cells held.
func (x *Index) CellIDs(s *dssearch.Searcher, p geom.Rect, a, b float64, dst []int32) ([]int32, int) {
	runs, n := x.cellRuns(nil, p, a, b)
	return s.AppendCellIDs(p, runs, dst), n
}

// Cell returns the column and row a location is binned in.
func (x *Index) Cell(p geom.Point) (int, int) { return x.col(p.X), x.row(p.Y) }

// Strips returns the margin strips a session of an a×b query over the
// space searches, the left one before the bottom one.
func (x *Index) Strips(q asp.Query, a, b float64, space geom.Rect) []geom.Rect {
	sc := x.getLBScratch()
	defer x.putLBScratch(sc)
	var out []geom.Rect
	for _, m := range x.strips(nil, space, a, b, boundOf(q), sc, &Stats{}) {
		out = append(out, m.rect)
	}
	return out
}
