package gridindex

import (
	"fmt"
	"math"

	"asrs/internal/agg"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// ReferenceIndex is the index New built before it binned a pyramid's
// core, kept as the tests' oracle: it flattens every object of ds in
// dataset order, certifies the limbs over those contributions, splits
// each object's row and bins it at its location, over ds.Bounds().
func ReferenceIndex(ds *attr.Dataset, f *agg.Composite, sx, sy int) (*Index, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	if len(ds.Objects) > 0 {
		bounds = ds.Bounds()
		if bounds.MaxX == bounds.MinX {
			bounds.MaxX += unitAt(bounds.MinX)
		}
		if bounds.MaxY == bounds.MinY {
			bounds.MaxY += unitAt(bounds.MinY)
		}
	}
	idx := &Index{
		f: f, bounds: bounds, sx: sx, sy: sy,
		cw: bounds.Width() / float64(sx), chh: bounds.Height() / float64(sy),
		chans: f.Channels(), mmSlots: f.MinMaxSlots(), objects: len(ds.Objects),
	}
	var raw []agg.Contrib
	off := []int32{0}
	for oi := range ds.Objects {
		raw = f.AppendContribs(&ds.Objects[oi], raw)
		off = append(off, int32(len(raw)))
	}
	if err := idx.limbs.Certify(idx.chans, raw); err != nil {
		return nil, err
	}
	idx.eff = idx.limbs.Eff()
	idx.suffix = make([]float64, (sx+1)*(sy+1)*idx.eff)
	idx.cellMin = make([]float64, sx*sy*idx.mmSlots)
	idx.cellMax = make([]float64, sx*sy*idx.mmSlots)
	for i := range idx.cellMin {
		idx.cellMin[i], idx.cellMax[i] = math.Inf(1), math.Inf(-1)
	}
	for oi := range ds.Objects {
		o := &ds.Objects[oi]
		ci, cj := idx.cellOf(o.Loc)
		at := (cj*(sx+1) + ci) * idx.eff
		for _, cb := range idx.limbs.Split(append([]agg.Contrib(nil), raw[off[oi]:off[oi+1]]...), 0) {
			idx.suffix[at+cb.Ch] += cb.V
		}
		mat := (cj*sx + ci) * idx.mmSlots
		for _, m := range f.AppendMM(o, nil) {
			if m.V < idx.cellMin[mat+m.Slot] {
				idx.cellMin[mat+m.Slot] = m.V
			}
			if m.V > idx.cellMax[mat+m.Slot] {
				idx.cellMax[mat+m.Slot] = m.V
			}
		}
	}
	// S(i,j) = cell(i,j) + S(i+1,j) + S(i,j+1) − S(i+1,j+1).
	for j := sy - 1; j >= 0; j-- {
		for i := sx - 1; i >= 0; i-- {
			for k := 0; k < idx.eff; k++ {
				at := func(i, j int) *float64 { return &idx.suffix[(j*(sx+1)+i)*idx.eff+k] }
				*at(i, j) += *at(i+1, j) + *at(i, j+1) - *at(i+1, j+1)
			}
		}
	}
	return idx, nil
}

// SameTables returns an error naming the first of the bounds, the suffix
// tables and the per-cell minima and maxima in which x and y differ, bit
// for bit (Float64bits), or nil.
func SameTables(x, y *Index) error {
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for _, c := range [][2]float64{
		{x.bounds.MinX, y.bounds.MinX}, {x.bounds.MinY, y.bounds.MinY},
		{x.bounds.MaxX, y.bounds.MaxX}, {x.bounds.MaxY, y.bounds.MaxY},
	} {
		if bits(c[0]) != bits(c[1]) {
			return fmt.Errorf("bounds %v, want %v", x.bounds, y.bounds)
		}
	}
	if x.objects != y.objects || x.eff != y.eff {
		return fmt.Errorf("%d objects in %d limbs, want %d in %d", x.objects, x.eff, y.objects, y.eff)
	}
	for _, t := range []struct {
		name string
		x, y []float64
	}{{"suffix", x.suffix, y.suffix}, {"cellMin", x.cellMin, y.cellMin}, {"cellMax", x.cellMax, y.cellMax}} {
		if len(t.x) != len(t.y) {
			return fmt.Errorf("%s has %d entries, want %d", t.name, len(t.x), len(t.y))
		}
		for i := range t.x {
			if bits(t.x[i]) != bits(t.y[i]) {
				return fmt.Errorf("%s[%d] = %v, want %v", t.name, i, t.x[i], t.y[i])
			}
		}
	}
	return nil
}
