package dssearch

import (
	"fmt"
	"slices"
	"sort"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
)

// Pyramid is the persistent per-composite aggregate pyramid: the whole
// per-query aggregation layer of sat.go, hoisted to the dataset level.
// It is a pointer to the dataset's Geometry — the master order and the
// anchor-bin level, shared by every composite of the epoch — plus the
// composite's core: the contribution and min/max tables in master order,
// their limbs and the certificate's running sums.
//
// The hoist is possible because, under the default top-right-corner
// reduction, every rectangle's anchor (MinX, MinY) is the object's
// location translated by the constant (-a, -b): the master order and the
// anchor-bin partition are functions of the locations alone, and the
// flattened limb contributions and the certificate of (dataset,
// composite) alone — only the rectangle materialization depends on the
// query's (a, b), one O(n) pass, and with it a few facts of O(1) size
// (width/height ranges, space, whether the order survived the
// translation) that the first query of a shape derives and the geometry
// remembers (shape.go). Binding a pyramid to a Searcher therefore
// replaces the per-query O(R log R) sort, the O(contribs)
// flatten/certify passes and the O(R + g²) level build with aliased
// reads of shared immutable state (DESIGN.md §6). What the pyramid holds
// that the dataset holds too — the contribution and min/max tables — is
// not persisted: a loaded pyramid flattens them again from the objects
// under the stored limbs (PyramidFromSnapshot).
//
// Bit-identity with the unassisted path is preserved by construction:
// the master order is the total (x, y, index) order, which the per-query
// sort of (MinX, MinY, input index) reproduces (translation is monotone,
// so every comparison comes out the same), and the level's id-anchored
// threshold arrays bound the translated per-query anchors through actual
// rectangle coordinates rather than bin geometry. The single case
// translation can break — two distinct anchor coordinates collapsing onto
// one float — is detected when a shape is first bound, remembered with
// its facts, and falls back to the classic per-query build, so answers
// never depend on the pyramid being bindable.
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
	t.minXs, t.minXsBuf = nil, nil
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
// pyramid's dataset in the same order with the same level — what a
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
	x := func(i int) float64 { return g.anchor(int32(i)).X }
	i := sort.Search(g.n, func(i int) bool { return x(i) > lo })
	j := sort.Search(g.n, func(j int) bool { return x(j) >= hi })
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
	t.lvl = p.geo.lvl
	t.shared = true
	t.pyr = p
}

// masterSortedNoCollapse verifies that the translated master realizes
// the pyramid's canonical order: (MinX, MinY) must be non-decreasing,
// and anchors may coincide only for rectangles that are bitwise equal
// (equal-location objects). Translation is monotone, so a violation can
// only come from distinct coordinates collapsing onto one float — the
// sub-ulp event where the per-query sort could have arranged ties
// differently than the pyramid did.
func masterSortedNoCollapse(master []asp.RectObject) bool {
	for i := 1; i < len(master); i++ {
		a, b := &master[i-1].Rect, &master[i].Rect
		if a.MinX > b.MinX || (a.MinX == b.MinX && a.MinY > b.MinY) {
			return false
		}
		if a.MinX == b.MinX && a.MinY == b.MinY && (a.MaxX != b.MaxX || a.MaxY != b.MaxY) {
			return false
		}
	}
	return true
}

// ---- Serialization snapshot ----

// PyramidSnapshot is the exported, codec-friendly image of a Pyramid:
// what the dataset does not hold. internal/persist encodes and decodes
// it; PyramidFromSnapshot validates it and re-derives the rest — the
// limb inverses and owners from the scales (agg.NewLimbs), the
// contribution and min/max tables from the objects, the level's count
// plane from its bins.
type PyramidSnapshot struct {
	N       int
	Chans   int
	MMSlots int

	// Scale is every limb's power of two (agg.Limbs.Scale) and Lo every
	// channel's first extra limb or -1.
	Scale []float64
	Lo    []int32

	Order []int32

	Level PyramidLevelSnapshot
}

// PyramidLevelSnapshot is the anchor-bin level: its g×g bins of BW×BH
// from the origin (X0, Y0), stored as a fold left them (delta.go).
type PyramidLevelSnapshot struct {
	G                  int
	BW, BH, X0, Y0     float64
	BinStart, BinIds   []int32
	XMaxUpTo, XMinFrom []int32
	YMaxUpTo, YMinFrom []int32
}

// Snapshot exports the pyramid's serializable image. The returned
// slices alias the pyramid — treat as read-only.
func (p *Pyramid) Snapshot() *PyramidSnapshot {
	c, l := p.core, p.geo.lvl
	return &PyramidSnapshot{
		N: p.geo.n, Chans: c.chans, MMSlots: p.mmSlots,
		Scale: c.limbs.Scale, Lo: c.limbs.Lo,
		Order: p.geo.order,
		Level: PyramidLevelSnapshot{
			G: l.gx, BW: l.bw, BH: l.bh, X0: l.bx0, Y0: l.by0,
			BinStart: l.binStart, BinIds: l.binIds,
			XMaxUpTo: l.xMaxUpTo, XMinFrom: l.xMinFrom,
			YMaxUpTo: l.yMaxUpTo, YMinFrom: l.yMinFrom,
		},
	}
}

// PyramidFromSnapshot reconstructs a pyramid over (ds, f) from a
// decoded snapshot, validating structural consistency (a corrupt or
// mismatched file must produce an error, never a panic) and re-deriving
// what it does not carry: the contribution tables are flattened from
// ds.Objects[Order[i]] and split under the snapshot's limbs. Those limbs
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
	if !inCanonicalOrder(ds, s.Order) {
		return nil, fmt.Errorf("dssearch: pyramid snapshot order is not the (x, y, index) order")
	}

	ls := &s.Level
	g := ls.G
	if g < 1 || g > 1<<14 {
		return nil, fmt.Errorf("dssearch: pyramid snapshot level granularity %d out of range", g)
	}
	if len(ls.BinStart) != g*g+1 || len(ls.BinIds) != n ||
		len(ls.XMaxUpTo) != g || len(ls.XMinFrom) != g ||
		len(ls.YMaxUpTo) != g || len(ls.YMinFrom) != g {
		return nil, fmt.Errorf("dssearch: pyramid snapshot level arrays inconsistent")
	}
	if err := checkOffsets(ls.BinStart, g*g, n); err != nil {
		return nil, fmt.Errorf("dssearch: pyramid snapshot level bins: %w", err)
	}
	for _, id := range ls.BinIds {
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("dssearch: pyramid snapshot level bin id %d out of range", id)
		}
	}
	for _, arr := range [][]int32{ls.XMaxUpTo, ls.XMinFrom, ls.YMaxUpTo, ls.YMinFrom} {
		for _, id := range arr {
			if int(id) >= n {
				return nil, fmt.Errorf("dssearch: pyramid snapshot level threshold id %d out of range", id)
			}
		}
	}
	geo := &Geometry{
		ds: ds, n: n, order: s.Order,
		lvl: &satLevel{
			gx: g, gy: g, bw: ls.BW, bh: ls.BH, bx0: ls.X0, by0: ls.Y0,
			binStart: ls.BinStart, binIds: ls.BinIds,
			xMaxUpTo: ls.XMaxUpTo, xMinFrom: ls.XMinFrom,
			yMaxUpTo: ls.YMaxUpTo, yMinFrom: ls.YMinFrom,
		},
	}
	geo.lvl.sumCounts()

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

// checkOffsets verifies off is a monotone CSR offset array of n ranges
// covering [0, total].
func checkOffsets(off []int32, n, total int) error {
	if len(off) != n+1 {
		return fmt.Errorf("offset array length %d, want %d", len(off), n+1)
	}
	if n >= 0 && len(off) > 0 {
		if off[0] != 0 || int(off[n]) != total {
			return fmt.Errorf("offset bounds [%d,%d], want [0,%d]", off[0], off[n], total)
		}
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			return fmt.Errorf("offsets not monotone at %d", i)
		}
	}
	return nil
}
