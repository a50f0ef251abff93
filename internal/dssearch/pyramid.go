package dssearch

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// Pyramid is the persistent per-composite aggregate pyramid: the whole
// per-query aggregation layer of sat.go, hoisted to the dataset level
// and built exactly once per (dataset, composite) pair.
//
// The hoist is possible because, under the default top-right-corner
// reduction, every rectangle's anchor (MinX, MinY) is the object's
// location translated by the constant (-a, -b): the master sort order,
// the flattened limb contributions, the limbs' certificate and the
// anchor-bin partition are all functions of
// (dataset, composite) alone — only the rectangle materialization
// depends on the query's (a, b), one O(n) pass, and with it a few facts
// of O(1) size (width/height ranges, space, whether the order survived
// the translation) that the first query of a shape derives and
// the pyramid remembers (shape.go). Binding a pyramid to a Searcher
// therefore replaces the per-query O(R log R) sort, the O(contribs)
// flatten/certify passes and the O(R + g²) level build with aliased
// reads of shared immutable state (DESIGN.md §6). What the pyramid holds
// that the dataset holds too — the contribution and min/max tables — is
// not persisted: a loaded pyramid flattens them again from the objects
// under the stored limbs (PyramidFromSnapshot).
//
// Bit-identity with the unassisted path is preserved by construction:
// the pyramid's master order is produced by the *same* sort over the
// *same* initial order (translation is monotone, so the comparator
// outcomes — and with them the unstable sort's permutation — are
// identical), and the level's id-anchored threshold arrays bound the
// translated per-query anchors through actual rectangle coordinates
// rather than bin geometry. The single case translation can break — two
// distinct anchor x coordinates collapsing onto one float (a sub-ulp
// event that changes the tie structure the sort saw) — is detected when
// a shape is first bound, remembered with its facts, and falls back to
// the classic per-query build, so answers never depend on the pyramid
// being bindable.
//
// A Pyramid is immutable after construction, but for the memo of shape
// facts below, and safe for any number of concurrent binds; the Engine
// caches one per composite, and internal/persist gives it a durable
// on-disk form.
type Pyramid struct {
	ds      *attr.Dataset
	f       *agg.Composite
	n       int
	mmSlots int

	core  *tables   // frozen canonical aggregation core (master order)
	order []int32   // master position -> dataset object index
	lvl   *satLevel // the anchor-bin level (levelGrid)

	// Delta-fold state (delta.go): the certificate's running sums over
	// the dataset, which a fold extends by the appended objects; nil on a
	// loaded pyramid until a fold needs them (derived from the dataset
	// then).
	cert agg.LimbSums

	// Shape facts remembered per (a, b) (shape.go): like Index.lbPool the
	// memo is the pyramid's only mutable state. An epoch's fold is a new
	// pyramid with an empty memo.
	factsMu      sync.Mutex
	facts        map[shapeKey]shapeFacts
	factsDerived int // derivations so far (tests)
}

// BuildPyramid constructs the pyramid for one composite over a dataset.
// The dataset must not be mutated afterwards while the pyramid serves
// it (the same contract as Engine and Index).
func BuildPyramid(ds *attr.Dataset, f *agg.Composite) (*Pyramid, error) {
	if ds == nil {
		return nil, fmt.Errorf("dssearch: pyramid requires a dataset")
	}
	if f == nil {
		return nil, fmt.Errorf("dssearch: pyramid requires a composite aggregator")
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	n := len(ds.Objects)

	// Degenerate location-anchored rectangles stand in for the reduced
	// master: their (MinX, MinY) are the object locations, i.e. the
	// anchors of every real reduction up to translation, so buildTables
	// runs the exact per-query code path — flatten, certify, sort — and
	// its outputs ARE the shared core.
	synth := make([]asp.RectObject, n)
	for i := range ds.Objects {
		o := &ds.Objects[i]
		synth[i] = asp.RectObject{
			Rect: geom.Rect{MinX: o.Loc.X, MinY: o.Loc.Y, MaxX: o.Loc.X, MaxY: o.Loc.Y},
			Obj:  o,
		}
	}
	core := &tables{}
	master, err := buildTables(core, synth, f, true)
	if err != nil {
		return nil, err
	}
	core.freeze()

	// Recover the sort permutation via object identity.
	idxOf := make(map[*attr.Object]int32, n)
	for i := range ds.Objects {
		idxOf[&ds.Objects[i]] = int32(i)
	}
	order := make([]int32, n)
	for i := range master {
		order[i] = idxOf[master[i].Obj]
	}

	p := &Pyramid{ds: ds, f: f, n: n, mmSlots: f.MinMaxSlots(), core: core, order: order, cert: core.limbs.Sums()}

	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range master {
		xs[i] = master[i].Rect.MinX
		ys[i] = master[i].Rect.MinY
	}
	p.raiseLevel(xs, ys)
	return p, nil
}

// levelGrid returns the bin granularity of the level a fresh build raises
// over n anchors. The pyramid affords a finer grid than the per-query
// one: ring-scan work shrinks linearly with the bin width.
func levelGrid(n int) int {
	g := satGrid(n)
	for 2*g <= 256 && g*g < n {
		g *= 2
	}
	return g
}

// raiseLevel builds the level from scratch over the stored anchors xs/ys
// (master order).
func (p *Pyramid) raiseLevel(xs, ys []float64) {
	p.lvl = &satLevel{}
	buildSATLevel(p.lvl, levelGrid(p.n), xs, ys)
}

// freeze trims a pyramid's core to what binds alias for the pyramid's
// life: the tables at their exact lengths, without the slack their
// appends left or the build's MinX scratch.
func (t *tables) freeze() {
	t.cOff, t.contribs = slices.Clone(t.cOff), slices.Clone(t.contribs)
	t.mOff, t.mms = slices.Clone(t.mOff), slices.Clone(t.mms)
	t.minXs, t.minXsBuf = nil, nil
}

// anchor returns the stored anchor (the object location) of master id.
func (p *Pyramid) anchor(id int32) geom.Point { return p.ds.Objects[p.order[id]].Loc }

// anchorLess is the master comparator over stored anchors.
func anchorLess(a, b geom.Point) bool {
	return a.X < b.X || (a.X == b.X && a.Y < b.Y)
}

// Matches reports whether the pyramid was built for exactly this
// dataset and composite (pointer identity, the same contract as the
// Engine's index cache).
func (p *Pyramid) Matches(ds *attr.Dataset, f *agg.Composite) bool {
	return p != nil && p.ds == ds && p.f == f
}

// Composite returns the composite the pyramid serves.
func (p *Pyramid) Composite() *agg.Composite { return p.f }

// Objects returns the master cardinality.
func (p *Pyramid) Objects() int { return p.n }

// AppendObjectsInX appends to dst the objects of the pyramid's dataset
// whose x lies strictly inside (lo, hi), in master order. The master is
// sorted by location (x, then y), so they are one contiguous run of it,
// found by binary search; the appended objects are sorted the same way.
func (p *Pyramid) AppendObjectsInX(dst []attr.Object, lo, hi float64) []attr.Object {
	x := func(i int) float64 { return p.ds.Objects[p.order[i]].Loc.X }
	i := sort.Search(p.n, func(i int) bool { return x(i) > lo })
	j := sort.Search(p.n, func(j int) bool { return x(j) >= hi })
	for ; i < j; i++ {
		dst = append(dst, p.ds.Objects[p.order[i]])
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
	t.lvl = p.lvl
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
	c, l := p.core, p.lvl
	return &PyramidSnapshot{
		N: p.n, Chans: c.chans, MMSlots: p.mmSlots,
		Scale: c.limbs.Scale, Lo: c.limbs.Lo,
		Order: p.order,
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
// contract.
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

	core := &tables{f: f, chans: s.Chans, limbs: limbs}
	core.flattenObjects(n, func(id int) *attr.Object { return &ds.Objects[s.Order[id]] }, &core.limbs)
	core.freeze()

	p := &Pyramid{
		ds: ds, f: f, n: n, mmSlots: s.MMSlots,
		core: core, order: s.Order,
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
	p.lvl = &satLevel{
		gx: g, gy: g, bw: ls.BW, bh: ls.BH, bx0: ls.X0, by0: ls.Y0,
		binStart: ls.BinStart, binIds: ls.BinIds,
		xMaxUpTo: ls.XMaxUpTo, xMinFrom: ls.XMinFrom,
		yMaxUpTo: ls.YMaxUpTo, yMinFrom: ls.YMinFrom,
	}
	p.lvl.sumCounts()
	return p, nil
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
