package dssearch

import (
	"fmt"
	"sort"

	"asrs/internal/agg"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// Delta fold: producing the pyramid of a grown dataset by splicing the
// appended objects into copies of the base pyramid's arrays instead of
// re-deriving them (DESIGN.md §10).
//
// A pyramid is a handful of flat arrays indexed by master id (the
// position in anchor order). Appending d objects to a dataset of n
// places them in the master order, and their rows are inserted into the
// base's arrays (contributions, min/max contributions, the order
// permutation, the anchors) at their merge positions — bulk copies of
// the base's runs in between.
//
// The order and the anchors belong to the Geometry, which every composite
// of an epoch shares: FoldGeometry places the delta and splices the order
// and the anchors once per epoch; FoldPyramid then places the delta in
// the base's order again — a radix sort of the d appended anchors and d
// binary searches — and splices one composite's rows. So a fold costs
// O(d log n) comparisons and a few linear copies per epoch, plus one copy
// per composite's core, where the rebuild costs a sort, a flatten and a
// certificate pass over all n. The base is never written to: queries of
// the previous epoch keep reading it while the next epoch folds.
//
// Bit-identity with BuildPyramid(combined, f) holds by construction:
//
//   - order: the base's order is the (x, y, index) order of its objects,
//     and every appended object has a larger index than every base
//     object, so merging the delta, sorted the same way, after the base's
//     objects on location ties yields the rebuild's order exactly.
//     Validated locations are finite, so every anchor has its place.
//   - certificate: the base's running sums (Σ|v| per limb) are extended
//     by the delta's values in dataset order, which is how the rebuild
//     accumulates them, so the outcome the rebuild would reach is known
//     exactly (agg.Limbs.Extend). While it is the base's own, the base's
//     limbs are reused as they are. When it moves — a finer grid, a split
//     grid following the channel's grown mass, one more limb — the fold
//     builds the core again on the folded geometry (BuildPyramidOn):
//     still no sort.
//
// Only a base of no objects, which has no anchor order to merge into, is
// rebuilt instead.

// DeltaStats reports what a delta build did.
type DeltaStats struct {
	Folded   bool // the base's rows were spliced (vs full rebuild fallback)
	Appended int  // objects beyond the base pyramid
}

// BuildPyramidDelta builds the pyramid for combined — a dataset that
// extends the base pyramid's dataset with appended objects. The first
// base.Objects() objects of combined must be the base dataset's objects
// (locations are checked; values are trusted to be equal, the base's
// contributions are reused for them). Answers through the returned
// pyramid are bit-identical to BuildPyramid(combined, f).
func BuildPyramidDelta(base *Pyramid, combined *attr.Dataset) (*Pyramid, *DeltaStats, error) {
	if base == nil {
		return nil, nil, fmt.Errorf("dssearch: delta build requires a base pyramid")
	}
	if combined == nil {
		return nil, nil, fmt.Errorf("dssearch: delta build requires a dataset")
	}
	if err := combined.Validate(); err != nil {
		return nil, nil, err
	}
	b := base.geo
	if n := len(combined.Objects); n < b.n {
		return nil, nil, fmt.Errorf("dssearch: delta build: combined dataset has %d objects, base pyramid covers %d", n, b.n)
	}
	if combined.Schema != b.ds.Schema {
		return nil, nil, fmt.Errorf("dssearch: delta build: combined dataset has a different schema")
	}
	for i := 0; i < b.n; i++ {
		if combined.Objects[i].Loc != b.ds.Objects[i].Loc {
			return nil, nil, fmt.Errorf("dssearch: delta build: object %d moved (%v != %v); combined must extend the base dataset",
				i, combined.Objects[i].Loc, b.ds.Objects[i].Loc)
		}
	}
	return FoldPyramid(base, FoldGeometry(b, combined))
}

// FoldGeometry returns the geometry of combined — base's dataset
// followed by validated objects, which is not checked — by splicing the
// appended anchors into base's order (see the file comment). A base of
// no objects is not spliced into: combined's geometry is built instead.
func FoldGeometry(base *Geometry, combined *attr.Dataset) *Geometry {
	n0, n := base.n, len(combined.Objects)
	if n0 == 0 || n < n0 {
		return newGeometry(combined)
	}
	g := &Geometry{ds: combined, n: n, order: make([]int32, 0, n), pts: make([]geom.Point, 0, n),
		bounds: expandBounds(base.bounds, combined.Objects[n0:])}
	next := int32(0)
	for _, e := range base.place(combined.Objects[n0:]) {
		g.order = append(g.order, base.order[next:e.pos]...)
		g.pts = append(g.pts, base.pts[next:e.pos]...)
		next = e.pos
		g.order = append(g.order, int32(n0)+e.row)
		g.pts = append(g.pts, e.loc)
	}
	g.order = append(g.order, base.order[next:]...)
	g.pts = append(g.pts, base.pts[next:]...)
	return g
}

// FoldPyramid is the pyramid of one composite on g, the geometry of a
// dataset that extends base's (FoldGeometry, or BuildGeometry over the
// grown dataset), made by splicing the appended objects' rows into a copy
// of base's core. g's dataset is trusted to be base's followed by
// validated objects (the Engine's epoch views; BuildPyramidDelta checks).
// Where there is nothing to merge into — a base of no objects — or no
// certificate to extend — a joined base (JoinPyramids) — the core is
// built on g instead (BuildPyramidOn) and Folded is false.
func FoldPyramid(base *Pyramid, g *Geometry) (*Pyramid, *DeltaStats, error) {
	b := base.geo
	stats := &DeltaStats{Appended: g.n - b.n}
	if b.n == 0 || g.n < b.n || base.cert == nil {
		p, err := BuildPyramidOn(g, base.f)
		return p, stats, err
	}
	p, err := base.fold(g, b.place(g.ds.Objects[b.n:]))
	stats.Folded = err == nil
	return p, stats, err
}

// deltaRows are the appended objects' flattened rows in dataset order
// (row j belongs to combined.Objects[base.n+j]): raw as AppendContribs
// emits them, and — once certifyDelta has passed — split under the
// base's certificate.
type deltaRows struct {
	rawOff []int32
	raw    []agg.Contrib
	mOff   []int32
	mms    []agg.MMContrib

	cOff []int32
	con  []agg.Contrib
}

func (base *Pyramid) flattenDelta(objs []attr.Object) *deltaRows {
	f := base.f
	rows := &deltaRows{rawOff: make([]int32, 1, len(objs)+1)}
	for i := range objs {
		rows.raw = f.AppendContribs(&objs[i], rows.raw)
		rows.rawOff = append(rows.rawOff, int32(len(rows.raw)))
	}
	if base.mmSlots > 0 {
		rows.mOff = make([]int32, 1, len(objs)+1)
		for i := range objs {
			rows.mms = f.AppendMM(&objs[i], rows.mms)
			rows.mOff = append(rows.mOff, int32(len(rows.mms)))
		}
	}
	return rows
}

// certifyDelta extends the base's certificate sums by the appended rows
// and, when the certificate a rebuild would compute is the base's own,
// fills in the rows' limb form and returns the new sums.
func (base *Pyramid) certifyDelta(rows *deltaRows) (agg.LimbSums, bool) {
	l := &base.core.limbs
	sums, ok := l.Extend(base.cert, rows.raw)
	if !ok {
		return nil, false
	}
	// Split under the base's limbs, exactly as flattenContribs does.
	rows.cOff = make([]int32, 1, len(rows.rawOff))
	for j := 0; j+1 < len(rows.rawOff); j++ {
		start := len(rows.con)
		rows.con = l.Split(append(rows.con, rows.raw[rows.rawOff[j]:rows.rawOff[j+1]]...), start)
		rows.cOff = append(rows.cOff, int32(len(rows.con)))
	}
	return sums, true
}

// deltaEnt is one appended object placed in the folded master order.
type deltaEnt struct {
	row int32 // its row in deltaRows; dataset index base.n+row
	pos int32 // base master ids below pos precede it, pos and above follow
	loc geom.Point
}

// place sorts the appended objects by anchor (ties by dataset index) and
// finds their merge positions in g's master order, g's objects first on
// ties.
func (g *Geometry) place(objs []attr.Object) []deltaEnt {
	order := make([]int32, len(objs))
	anchorSort(objs, order)
	ents := make([]deltaEnt, len(objs))
	for t, j := range order {
		e := &ents[t]
		*e = deltaEnt{row: j, loc: objs[j].Loc}
		e.pos = int32(sort.Search(g.n, func(i int) bool { return anchorLess(e.loc, g.pts[i]) }))
	}
	return ents
}

// spliceOffs merges CSR offset arrays: the base's rows in order, with
// each appended object's row inserted at its merge position.
func spliceOffs(bOff, dOff []int32, ents []deltaEnt) []int32 {
	n0 := len(bOff) - 1
	off := make([]int32, 0, n0+len(ents)+1)
	var added int32 // appended values spliced in so far
	next := 0       // next base row
	for _, e := range ents {
		for ; next < int(e.pos); next++ {
			off = append(off, bOff[next]+added)
		}
		off = append(off, bOff[next]+added)
		added += dOff[e.row+1] - dOff[e.row]
	}
	for ; next <= n0; next++ {
		off = append(off, bOff[next]+added)
	}
	return off
}

// spliceVals merges the value arrays behind spliceOffs' offsets: bulk
// copies of the base's runs with the appended rows in between.
func spliceVals[T any](bOff []int32, b []T, dOff []int32, d []T, ents []deltaEnt) []T {
	out := make([]T, 0, len(b)+len(d))
	next := int32(0) // next base value
	for _, e := range ents {
		out = append(out, b[next:bOff[e.pos]]...)
		next = bOff[e.pos]
		out = append(out, d[dOff[e.row]:dOff[e.row+1]]...)
	}
	return append(out, b[next:]...)
}

// fold splices the rows of the objects g appends to base's dataset,
// placed by ents, into a copy of base's core (see the file comment). It
// fails only where a rebuild would: on values that do not certify.
func (base *Pyramid) fold(g *Geometry, ents []deltaEnt) (*Pyramid, error) {
	c := base.core
	rows := base.flattenDelta(g.ds.Objects[base.geo.n:])

	// The fast lane keeps the base's limbs (shared, read-only) over the
	// spliced contribution tables; the slow lane builds the core again.
	sums, sameCert := base.certifyDelta(rows)
	if !sameCert {
		return BuildPyramidOn(g, base.f)
	}
	folded := &core{
		f: c.f, chans: c.chans,
		limbs:    c.limbs.Layout(),
		cOff:     spliceOffs(c.cOff, rows.cOff, ents),
		contribs: spliceVals(c.cOff, c.contribs, rows.cOff, rows.con, ents),
	}
	if base.mmSlots > 0 {
		folded.mOff = spliceOffs(c.mOff, rows.mOff, ents)
		folded.mms = spliceVals(c.mOff, c.mms, rows.mOff, rows.mms, ents)
	}
	return &Pyramid{geo: g, f: base.f, mmSlots: base.mmSlots, core: folded, cert: sums}, nil
}
