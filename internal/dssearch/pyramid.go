package dssearch

import (
	"fmt"
	"slices"
	"sort"

	"asrs/internal/agg"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// Pyramid is the persistent per-composite aggregate pyramid: the whole
// per-query aggregation layer of sat.go, hoisted to the dataset level.
// It is a pointer to the dataset's Geometry — the anchors in master
// order and the anchor-bin level, shared by every composite of the
// epoch — plus the composite's core: the contribution and min/max tables
// in master order, their limbs and the certificate's running sums.
//
// The hoist is possible because, under the default top-right-corner
// reduction, every rectangle is the object's location shifted by the
// constant (-a, -b): the master order and the anchor-bin partition are
// functions of the locations alone, and the flattened limb contributions
// and the certificate of (dataset, composite) alone. Nothing of a query's
// (a, b) is materialized — a search reads rectangle id from anchor id
// and the shape — but a few facts of O(1) size (width/height ranges,
// space) that the first query of a shape derives and the geometry
// remembers (shape.go). Binding a pyramid to a Searcher therefore
// replaces the per-query O(R log R) sort, the O(contribs)
// flatten/certify passes and the O(R + g²) level build with aliased
// reads of shared immutable state, in O(1) once the shape's facts are
// known (DESIGN.md §6). What the pyramid derives from the dataset and
// the order — the anchors, the level over them and the contribution and
// min/max tables — is not persisted: a loaded pyramid derives it again
// from the objects under the stored order and limbs
// (PyramidFromSnapshot). The order is stored because sorting costs more
// than reading it.
//
// Bit-identity with the unassisted path holds by construction: a
// one-shot search lays out the same (x, y, index) order in its slab
// (tables.layOut) and reads rectangles the same way, and the level's
// id-anchored threshold arrays bound the translated per-query anchors
// through actual rectangle coordinates rather than bin geometry, so what
// its readers collect is set-exact.
//
// A Pyramid is immutable and safe for any number of concurrent binds; the
// Engine caches one per composite, and internal/persist gives it a
// durable on-disk form.
type Pyramid struct {
	geo     *Geometry
	f       *agg.Composite
	mmSlots int

	core *tables // frozen canonical aggregation core (master order)

	// Delta-fold state (delta.go): the certificate's running sums over
	// the dataset, which a fold extends by the appended objects; nil on a
	// loaded pyramid until a fold needs them (derived from the dataset
	// then).
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
// the geometry's master order from that one flatten. No sort, no level.
func BuildPyramidOn(g *Geometry, f *agg.Composite) (*Pyramid, error) {
	if g == nil {
		return nil, fmt.Errorf("dssearch: pyramid requires a geometry")
	}
	if f == nil {
		return nil, fmt.Errorf("dssearch: pyramid requires a composite aggregator")
	}
	core := &tables{f: f, chans: f.Channels()}
	objs := g.ds.Objects
	if err := core.flatten(len(objs), func(i int) *attr.Object { return &objs[i] }, g.order); err != nil {
		return nil, err
	}
	core.freeze()
	return &Pyramid{geo: g, f: f, mmSlots: f.MinMaxSlots(), core: core, cert: core.limbs.Sums()}, nil
}

// freeze trims a pyramid's core to what binds alias for the pyramid's
// life: the tables at their exact lengths, without the slack their
// appends left or the build's scratch.
func (t *tables) freeze() {
	t.cOff, t.contribs = trim(t.cOff), trim(t.contribs)
	t.mOff, t.mms = trim(t.mOff), trim(t.mms)
	t.rawOff, t.raw = nil, nil
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
// pyramid's dataset in the same order — what a
// pyramid loaded from a file does to share the epoch's geometry with the
// engine's other composites. Otherwise it returns p and false.
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

// bindCore aliases the pyramid's frozen aggregation core into a
// recycled tables value and marks it shared so reset() drops (never
// truncates) the aliased slices.
func (p *Pyramid) bindCore(t *tables) {
	c := p.core
	t.f, t.chans = c.f, c.chans
	t.limbs = c.limbs.Layout()
	t.cOff, t.contribs = c.cOff, c.contribs
	t.mOff, t.mms = c.mOff, c.mms
	t.shared = true
}

// ---- Serialization snapshot ----

// PyramidSnapshot is the exported, codec-friendly image of a Pyramid:
// what the dataset does not hold and is dear to derive. internal/persist
// encodes and decodes it; PyramidFromSnapshot validates it and re-derives
// the rest — the limb inverses and owners from the scales
// (agg.NewLimbs), the anchors and the contribution and min/max tables
// from the objects, the level from the anchors.
type PyramidSnapshot struct {
	N       int
	Chans   int
	MMSlots int

	// Scale is every limb's power of two (agg.Limbs.Scale) and Lo every
	// channel's first extra limb or -1.
	Scale []float64
	Lo    []int32

	Order []int32
}

// Snapshot exports the pyramid's serializable image. The returned
// slices alias the pyramid — treat as read-only.
func (p *Pyramid) Snapshot() *PyramidSnapshot {
	c := p.core
	return &PyramidSnapshot{
		N: p.geo.n, Chans: c.chans, MMSlots: p.mmSlots,
		Scale: c.limbs.Scale, Lo: c.limbs.Lo,
		Order: p.geo.order,
	}
}

// PyramidFromSnapshot reconstructs a pyramid over (ds, f) from a
// decoded snapshot, validating structural consistency (a corrupt or
// mismatched file must produce an error, never a panic) and re-deriving
// what it does not carry: the anchors are read and the contribution
// tables flattened from ds.Objects[Order[i]], split under the
// snapshot's limbs, and the level is raised over the anchors. Those limbs
// are trusted to certify ds: the dataset identity is part of the file's
// contract. An order that is a permutation but not the (x, y, index)
// order — a file written while location ties were left to an unstable
// sort — is refused like any other inconsistency, so the caller rebuilds
// the file rather than folding onto it.
func PyramidFromSnapshot(ds *attr.Dataset, f *agg.Composite, s *PyramidSnapshot) (*Pyramid, error) {
	if ds == nil || f == nil || s == nil {
		return nil, fmt.Errorf("dssearch: pyramid snapshot requires dataset, composite and data")
	}
	n := s.N
	if n != len(ds.Objects) {
		return nil, fmt.Errorf("dssearch: pyramid snapshot covers %d objects, dataset has %d", n, len(ds.Objects))
	}
	if s.Chans != f.Channels() {
		return nil, fmt.Errorf("dssearch: pyramid snapshot has %d channels, composite has %d", s.Chans, f.Channels())
	}
	if s.MMSlots != f.MinMaxSlots() {
		return nil, fmt.Errorf("dssearch: pyramid snapshot has %d min/max slots, composite has %d", s.MMSlots, f.MinMaxSlots())
	}
	if len(s.Lo) != s.Chans {
		return nil, fmt.Errorf("dssearch: pyramid snapshot has %d lo slots for %d channels", len(s.Lo), s.Chans)
	}
	limbs, err := agg.NewLimbs(s.Scale, s.Lo)
	if err != nil {
		return nil, fmt.Errorf("dssearch: pyramid snapshot: %w", err)
	}
	if err := checkPermutation(s.Order, n); err != nil {
		return nil, fmt.Errorf("dssearch: pyramid snapshot order: %w", err)
	}
	pts := make([]geom.Point, n)
	for i, oi := range s.Order {
		pts[i] = ds.Objects[oi].Loc
	}
	if !inCanonicalOrder(pts, s.Order) {
		return nil, fmt.Errorf("dssearch: pyramid snapshot order is not the (x, y, index) order")
	}
	geo := &Geometry{ds: ds, n: n, order: s.Order, pts: pts}
	geo.raiseLevel()

	core := &tables{f: f, chans: s.Chans, limbs: limbs}
	core.flattenSplit(n, func(id int) *attr.Object { return &ds.Objects[s.Order[id]] })
	core.freeze()
	return &Pyramid{geo: geo, f: f, mmSlots: s.MMSlots, core: core}, nil
}

// checkPermutation verifies ids is a permutation of [0, n).
func checkPermutation(ids []int32, n int) error {
	if len(ids) != n {
		return fmt.Errorf("length %d, want %d", len(ids), n)
	}
	seen := make([]bool, n)
	for _, id := range ids {
		if id < 0 || int(id) >= n || seen[id] {
			return fmt.Errorf("not a permutation of [0,%d)", n)
		}
		seen[id] = true
	}
	return nil
}
