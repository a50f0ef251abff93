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
// Nothing of a query's (a, b) is materialized or remembered: a search
// reads rectangle id from anchor id and the shape, seeks its windows on
// the anchors' x and reads the reduction's space off the geometry's
// bounds (shape.go). A search given a matching pyramid therefore binds
// shared immutable state in O(1); a search given none builds a one-shot
// pyramid over its dataset, the radix sort and the flatten a cached one
// amortizes (DESIGN.md §6). Nothing of it is stored: every boot builds it from the
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

// JoinPyramids returns the dataset of the objects of ps's datasets whose
// x lies strictly inside (lo, hi) — a router band's corpus — and its
// pyramid. ps are one composite's pyramids over neighbouring x-slabs:
// their anchors are x-disjoint and they come in x order. Each one's run
// of anchors inside (lo, hi), found by binary search, is copied in master
// order, so the joined master order is the identity and nothing is
// sorted; the bounds are expanded in that order, as newGeometry does.
//
// The core is the runs' rows, copied (copied is true), when the runs
// share one limb layout of at most two limbs a channel
// (agg.Limbs.RoundsOnce) whose headroom the copied rows keep
// (agg.Limbs.Holds). A channel's value over any set is then the correctly
// rounded exact sum of its contributions, which is what the joined
// dataset's own certificate gives it, so the pyramid answers what
// BuildPyramid over the dataset answers, bit for bit. Otherwise — longer
// chains, layouts that differ, rows past the headroom — the core is built
// on the joined geometry (BuildPyramidOn: one flatten, no sort), as
// FoldPyramid builds it when a certificate moves.
//
// Copied rows carry no certificate sums: a fold over a joined pyramid
// (FoldPyramid) builds its core.
func JoinPyramids(ps []*Pyramid, lo, hi float64) (ds *attr.Dataset, p *Pyramid, copied bool, err error) {
	if len(ps) == 0 {
		return nil, nil, false, fmt.Errorf("dssearch: a join requires a pyramid")
	}
	// The layout is the first run's (a pyramid without anchors in the
	// window adds no rows), and same says every run's is that one.
	f, layout, same := ps[0].f, &ps[0].core.limbs, true
	type run struct {
		p    *Pyramid
		i, j int // master ids [i, j) of p
	}
	runs := make([]run, 0, len(ps))
	n, nc, nm := 0, 0, 0
	for _, q := range ps {
		if q.f != f {
			return nil, nil, false, fmt.Errorf("dssearch: joined pyramids serve different composites")
		}
		g, c := q.geo, q.core
		i := sort.Search(g.n, func(i int) bool { return g.pts[i].X > lo })
		j := max(i, sort.Search(g.n, func(j int) bool { return g.pts[j].X >= hi }))
		if i == j {
			continue
		}
		if k := len(runs); k > 0 {
			if last := runs[k-1]; !(last.p.geo.pts[last.j-1].X < g.pts[i].X) {
				return nil, nil, false, fmt.Errorf("dssearch: joined pyramids are not x-disjoint in x order")
			}
		} else {
			layout = &c.limbs
		}
		same = same && c.limbs.SameLayout(layout)
		runs = append(runs, run{q, i, j})
		n += j - i
		nc += int(c.cOff[j] - c.cOff[i])
		if q.mmSlots > 0 {
			nm += int(c.mOff[j] - c.mOff[i])
		}
	}

	objs := make([]attr.Object, 0, n)
	g := &Geometry{n: n, order: make([]int32, n), pts: make([]geom.Point, 0, n)}
	for _, r := range runs {
		rg := r.p.geo
		for _, oi := range rg.order[r.i:r.j] {
			objs = append(objs, rg.ds.Objects[oi])
		}
		g.pts = append(g.pts, rg.pts[r.i:r.j]...)
	}
	for id := range g.order {
		g.order[id] = int32(id)
	}
	ds = &attr.Dataset{Schema: ps[0].geo.ds.Schema, Objects: objs}
	g.ds, g.bounds = ds, expandBounds(geom.EmptyRect(), objs)

	if same && layout.RoundsOnce() {
		mmSlots := f.MinMaxSlots()
		c := &core{f: f, chans: f.Channels(), limbs: layout.Layout(),
			cOff: make([]int32, 1, n+1), contribs: make([]agg.Contrib, 0, nc)}
		if mmSlots > 0 {
			c.mOff, c.mms = make([]int32, 1, n+1), make([]agg.MMContrib, 0, nm)
		}
		for _, r := range runs {
			rc := r.p.core
			c.cOff, c.contribs = appendRows(c.cOff, c.contribs, rc.cOff[r.i:r.j+1], rc.contribs)
			if mmSlots > 0 {
				c.mOff, c.mms = appendRows(c.mOff, c.mms, rc.mOff[r.i:r.j+1], rc.mms)
			}
		}
		if c.limbs.Holds(c.contribs) {
			return ds, &Pyramid{geo: g, f: f, mmSlots: mmSlots, core: c}, true, nil
		}
	}
	p, err = BuildPyramidOn(g, f)
	return ds, p, false, err
}

// appendRows appends the rows of a CSR table (vals, offsets off — one run
// of the table's rows and the offset that ends it) to dst and its offsets
// dstOff, moving the offsets to where the rows land.
func appendRows[T any](dstOff []int32, dst []T, off []int32, vals []T) ([]int32, []T) {
	shift := int32(len(dst)) - off[0]
	for _, o := range off[1:] {
		dstOff = append(dstOff, o+shift)
	}
	return dstOff, append(dst, vals[off[0]:off[len(off)-1]]...)
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
