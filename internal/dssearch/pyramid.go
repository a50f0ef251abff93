package dssearch

import (
	"fmt"
	"slices"
	"sort"

	"asrs/internal/agg"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// Pyramid is the per-composite aggregate pyramid of a dataset: the
// aggregation layer every search reads (sat.go). It is a pointer to the
// dataset's Geometry — the anchors in master order, shared by every
// composite of the epoch — plus the composite's core: the contribution
// and min/max tables in master order, their limbs and the certificate's
// running sums.
//
// Under the default top-right-corner reduction every rectangle is the
// object's location shifted by the constant (-a, -b): the master order
// is a function of the locations alone, and the flattened limb
// contributions and the certificate of (dataset, composite) alone.
// Nothing of a query's (a, b) is materialized — a search reads rectangle
// id from anchor id and the shape — but a few facts of O(1) size
// (width/height ranges, space) that the first query of a shape derives
// and the geometry remembers (shape.go). A search given a matching
// pyramid therefore reads shared immutable state, in O(1) once the
// shape's facts are known; a search given none builds a one-shot pyramid
// over its dataset, the radix sort and the flatten a cached one amortizes
// (DESIGN.md §6). Nothing of it is stored: every boot builds it from the
// objects, since with the radix sort (anchorSort) a BuildGeometry costs
// about what reading a stored order cost (DESIGN.md §6, "Why the order
// is not stored").
//
// A Pyramid is immutable and safe for any number of concurrent searches;
// the Engine caches one per composite and its grid index bins the core
// (gridindex.New, through EachRow), master ids included: the index's
// cells are the one binning of the anchors a GI-DS search reads.
type Pyramid struct {
	geo     *Geometry
	f       *agg.Composite
	mmSlots int

	core *core // frozen aggregation core (master order)

	// Delta-fold state (delta.go): the certificate's running sums over
	// the dataset, which a fold extends by the appended objects.
	cert agg.LimbSums
}

// BuildPyramid constructs the pyramid for one composite over a dataset:
// its geometry (BuildGeometry) and the composite's core on it
// (BuildPyramidOn). The dataset must not be mutated afterwards while the
// pyramid serves it (the same contract as Engine and Index).
func BuildPyramid(ds *attr.Dataset, f *agg.Composite) (*Pyramid, error) {
	if f == nil {
		return nil, fmt.Errorf("dssearch: pyramid requires a composite aggregator")
	}
	g, err := BuildGeometry(ds)
	if err != nil {
		return nil, err
	}
	return BuildPyramidOn(g, f)
}

// BuildPyramidOn builds the core of one composite on a dataset's
// geometry: the objects are flattened once, in dataset order, which is
// the order the certificate is decided in, and the rows are laid out in
// the geometry's master order from that one flatten. No sort.
func BuildPyramidOn(g *Geometry, f *agg.Composite) (*Pyramid, error) {
	if g == nil {
		return nil, fmt.Errorf("dssearch: pyramid requires a geometry")
	}
	if f == nil {
		return nil, fmt.Errorf("dssearch: pyramid requires a composite aggregator")
	}
	c := &core{f: f, chans: f.Channels()}
	if err := c.flatten(g.ds.Objects, g.order); err != nil {
		return nil, err
	}
	c.freeze()
	return &Pyramid{geo: g, f: f, mmSlots: f.MinMaxSlots(), core: c, cert: c.limbs.Sums()}, nil
}

// freeze trims a pyramid's core to what searches read for the pyramid's
// life: the tables at their exact lengths, without the slack their
// appends left.
func (t *core) freeze() {
	t.cOff, t.contribs = trim(t.cOff), trim(t.contribs)
	t.mOff, t.mms = trim(t.mOff), trim(t.mms)
}

// trim returns s at its exact length, copying only when it has slack.
func trim[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return slices.Clone(s)
}

// Geometry returns the geometry the pyramid's core is laid out on.
func (p *Pyramid) Geometry() *Geometry { return p.geo }

// OnGeometry returns the pyramid with its core on g, when g describes the
// pyramid's dataset in the same order — what a pyramid built apart from
// an engine (Engine.SetPyramid) does to share the epoch's geometry with
// the engine's other composites. Otherwise it returns p and false.
func (p *Pyramid) OnGeometry(g *Geometry) (*Pyramid, bool) {
	if g == p.geo {
		return p, true
	}
	if !p.geo.sameAs(g) {
		return p, false
	}
	q := *p
	q.geo = g
	return &q, true
}

// Matches reports whether the pyramid was built for exactly this
// dataset and composite (pointer identity, the same contract as the
// Engine's index cache).
func (p *Pyramid) Matches(ds *attr.Dataset, f *agg.Composite) bool {
	return p != nil && p.geo.ds == ds && p.f == f
}

// Composite returns the composite the pyramid serves.
func (p *Pyramid) Composite() *agg.Composite { return p.f }

// Objects returns the master cardinality.
func (p *Pyramid) Objects() int { return p.geo.n }

// AppendObjectsInX appends to dst the objects of the pyramid's dataset
// whose x lies strictly inside (lo, hi), in master order. The master is
// sorted by location (x, then y), so they are one contiguous run of it,
// found by binary search; the appended objects are sorted the same way.
func (p *Pyramid) AppendObjectsInX(dst []attr.Object, lo, hi float64) []attr.Object {
	g := p.geo
	i := sort.Search(g.n, func(i int) bool { return g.pts[i].X > lo })
	j := sort.Search(g.n, func(j int) bool { return g.pts[j].X >= hi })
	for ; i < j; i++ {
		dst = append(dst, g.ds.Objects[g.order[i]])
	}
	return dst
}

// Limbs returns the limb layout the core's contributions are split in:
// the certificate of the pyramid's dataset, which a rebuild would decide.
func (p *Pyramid) Limbs() agg.Limbs { return p.core.limbs.Layout() }

// EachRow calls fn with every object's anchor, its channel contributions
// split in the pyramid's limbs and its min/max contributions, in master
// order. The slices alias the pyramid: fn must not write to or keep them.
func (p *Pyramid) EachRow(fn func(loc geom.Point, contribs []agg.Contrib, mms []agg.MMContrib)) {
	c := p.core
	for id, loc := range p.geo.pts {
		var mms []agg.MMContrib
		if p.mmSlots > 0 {
			mms = c.rectMM(int32(id))
		}
		fn(loc, c.rectContribs(int32(id)), mms)
	}
}
