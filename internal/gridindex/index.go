// Package gridindex implements the grid index of paper §5 — per-cell
// attribute summary tables addressable in O(1) per region through
// suffix-sum inclusion–exclusion (Lemma 8) — and the GI-DS algorithm
// (Algorithm 2) that uses the index to prune whole index cells before
// handing the survivors to DS-Search.
//
// The paper stores, for each cell g(i,j), a hash table per attribute
// mapping each domain value to the count of objects in G[i..∞][j..∞]. We
// compile the same information into the composite aggregator's channel
// vectors (per-value counts for fD; count/sum/positive/negative sums for
// fA and fS), which additionally supports selection functions γ because
// channels apply γ at build time, and sum them in the exact limbs the
// dataset certifies (agg.Limbs), so that every table and every
// inclusion–exclusion difference is exact. Per-cell minima and maxima of
// fA attributes are kept separately (min/max do not telescope through
// inclusion–exclusion, so the ring of boundary cells is scanned directly).
package gridindex

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"asrs/internal/agg"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
)

// The index has no file format: it is a few O(grid) passes over a
// pyramid's core, rebuilt wherever the pyramid is.

// Index is an immutable grid index over a dataset for one composite
// aggregator. Build once with New; safe for concurrent readers.
type Index struct {
	f       *agg.Composite
	bounds  geom.Rect
	sx, sy  int
	cw, chh float64
	chans   int
	mmSlots int

	// limbs is the dataset's certificate, the pyramid's (the one a
	// BuildPyramid of the dataset decides); eff is its limb count.
	limbs agg.Limbs
	eff   int
	// suffix[(j*(sx+1)+i)*eff+k] = Σ limb k of objects located in cells
	// (i', j') with i' ≥ i and j' ≥ j. This is the paper's attribute
	// summary table for cell g(i,j) (§5.2, Fig 6).
	suffix []float64
	// cellMin/cellMax[(j*sx+i)*mmSlots+s]: per-single-cell min/max of the
	// s-th fA component's attribute among selected objects in the cell.
	cellMin []float64
	cellMax []float64
	// cellIds[cellStart[c]:cellStart[c+1]] are the master ids (positions
	// in the pyramid's anchor order) of the objects located in cell
	// c = j*sx+i, ascending: the rectangle ids a GI-DS piece collects
	// (cellRuns).
	cellStart []int32
	cellIds   []int32

	objects int
}

// New builds the index with granularity sx×sy over the bounds of the
// pyramid's dataset (§7.3 evaluates 64×64, 128×128 and 256×256) for the
// pyramid's composite. It bins the pyramid's core: each object's anchor,
// its contributions already split in the pyramid's limbs and its min/max
// contributions, so the index flattens and certifies nothing of its own,
// and its master id, which the cell's id list takes.
//
// Every entry of a limb's tables is an integer multiple of its grid below
// 2^52 in magnitude, and so is every sum of entries the suffix recurrence
// and Lemma 8 form, their partial sums staying below 2^53: exact in
// float64, whatever the binning order. Min and max are the same values
// in any order — only which of a −0 and a +0 in one cell is kept can
// differ — so the tables equal those of binning the objects in dataset
// order.
func New(p *dssearch.Pyramid, sx, sy int) (*Index, error) {
	if sx < 1 || sy < 1 {
		return nil, fmt.Errorf("gridindex: granularity must be positive, got %dx%d", sx, sy)
	}
	if p == nil {
		return nil, fmt.Errorf("gridindex: nil pyramid")
	}
	f := p.Composite()
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1} // no objects: any finite cell geometry will do
	if p.Objects() > 0 {
		// GI-DS covers the candidate space with the cells and the two
		// margin strips left of and below bounds.Min: the minimum must be
		// the corpus's own. An axis the corpus does not extend along (one
		// object, objects on a line) gets a positive extent anchored there,
		// so that cell geometry stays finite; every cell past the first
		// column or row is empty.
		bounds = p.Geometry().Bounds()
		if bounds.MaxX == bounds.MinX {
			bounds.MaxX += unitAt(bounds.MinX)
		}
		if bounds.MaxY == bounds.MinY {
			bounds.MaxY += unitAt(bounds.MinY)
		}
	}
	idx := &Index{
		f:       f,
		bounds:  bounds,
		sx:      sx,
		sy:      sy,
		cw:      bounds.Width() / float64(sx),
		chh:     bounds.Height() / float64(sy),
		chans:   f.Channels(),
		mmSlots: f.MinMaxSlots(),
		limbs:   p.Limbs(),
		objects: p.Objects(),
	}
	idx.eff = idx.limbs.Eff()
	idx.suffix = make([]float64, (sx+1)*(sy+1)*idx.eff)
	if idx.mmSlots > 0 {
		idx.cellMin = make([]float64, sx*sy*idx.mmSlots)
		idx.cellMax = make([]float64, sx*sy*idx.mmSlots)
		for i := range idx.cellMin {
			idx.cellMin[i] = math.Inf(1)
			idx.cellMax[i] = math.Inf(-1)
		}
	}

	// Bin the core's rows into cells. The per-cell totals are staged into
	// the suffix array at (i, j) and then telescoped; each row's cell is
	// kept for the id lists, and each cell's size counted.
	cells := make([]int32, 0, p.Objects())
	idx.cellStart = make([]int32, sx*sy+1)
	p.EachRow(func(loc geom.Point, contribs []agg.Contrib, mms []agg.MMContrib) {
		ci, cj := idx.col(loc.X), idx.row(loc.Y)
		cells = append(cells, int32(cj*sx+ci))
		idx.cellStart[cj*sx+ci]++
		at := (cj*(sx+1) + ci) * idx.eff
		for _, cb := range contribs {
			idx.suffix[at+cb.Ch] += cb.V
		}
		mat := (cj*sx + ci) * idx.mmSlots
		for _, m := range mms {
			if m.V < idx.cellMin[mat+m.Slot] {
				idx.cellMin[mat+m.Slot] = m.V
			}
			if m.V > idx.cellMax[mat+m.Slot] {
				idx.cellMax[mat+m.Slot] = m.V
			}
		}
	})
	// The id lists by counting sort: the running sum of the cell sizes as
	// each cell's end, then the ids placed last to first, each moving its
	// cell's end back a slot — so the ids ascend within a cell, and every
	// end comes to rest at its cell's start.
	end := int32(0)
	for c, k := range idx.cellStart[:sx*sy] {
		end += k
		idx.cellStart[c] = end
	}
	idx.cellStart[sx*sy] = end
	idx.cellIds = make([]int32, len(cells))
	for id := len(cells) - 1; id >= 0; id-- {
		c := cells[id]
		idx.cellStart[c]--
		idx.cellIds[idx.cellStart[c]] = int32(id)
	}
	// Suffix accumulation: S(i,j) = cell(i,j) + S(i+1,j) + S(i,j+1) −
	// S(i+1,j+1).
	for j := sy - 1; j >= 0; j-- {
		for i := sx - 1; i >= 0; i-- {
			at := (j*(sx+1) + i) * idx.eff
			right := (j*(sx+1) + i + 1) * idx.eff
			up := ((j+1)*(sx+1) + i) * idx.eff
			diag := ((j+1)*(sx+1) + i + 1) * idx.eff
			for k := 0; k < idx.eff; k++ {
				idx.suffix[at+k] += idx.suffix[right+k] + idx.suffix[up+k] - idx.suffix[diag+k]
			}
		}
	}
	return idx, nil
}

// unitAt returns an extent for a degenerate axis at coordinate v: 1, or
// where v is large enough to absorb that, a 2⁻⁴⁰ share of |v| — wide
// enough that the cell edges along the axis stay distinct floats.
func unitAt(v float64) float64 { return math.Max(1, math.Abs(v)*0x1p-40) }

// col and row map a coordinate to its column and row, clamping boundary
// points inward. Both are non-decreasing in the coordinate — a rounded
// difference, a quotient by a positive width and the clamp each are.
func (x *Index) col(v float64) int { return bucket((v-x.bounds.MinX)/x.cw, x.sx) }

func (x *Index) row(v float64) int { return bucket((v-x.bounds.MinY)/x.chh, x.sy) }

// bucket truncates a quotient into [0, n): clamped as a float first, so
// that a quotient past the int range or NaN clamps instead of converting.
func bucket(q float64, n int) int {
	if !(q > 0) {
		return 0
	}
	if q >= float64(n) {
		return n - 1
	}
	return int(q)
}

// cellRuns appends to runs, one per row, the id lists of the cells whose
// objects' a×b rectangles can meet the closed piece p, and returns runs
// and the number of ids they hold. Such an anchor has p.MinX < x and
// x − a < p.MaxX in float, which gives x ≤ fl(p.MaxX + a) but not
// x < fl(p.MaxX + a): the far edge is padded one cell, to the column of
// fl(p.MaxX + a) itself, where an anchor on the column's lower edge can
// meet p. Rows likewise. col and row keep the order of coordinates, so
// those columns and rows hold every anchor that can meet p.
func (x *Index) cellRuns(runs [][]int32, p geom.Rect, a, b float64) ([][]int32, int) {
	i0, i1 := x.col(p.MinX), x.col(p.MaxX+a)
	j0, j1 := x.row(p.MinY), x.row(p.MaxY+b)
	n := 0
	for j := j0; j <= j1; j++ {
		if run := x.cellIds[x.cellStart[j*x.sx+i0]:x.cellStart[j*x.sx+i1+1]]; len(run) > 0 {
			runs = append(runs, run)
			n += len(run)
		}
	}
	return runs, n
}

// Bounds returns the indexed extent.
func (x *Index) Bounds() geom.Rect { return x.bounds }

// Composite returns the aggregator the index was built for.
func (x *Index) Composite() *agg.Composite { return x.f }

// CellRect returns the extent of cell (i, j).
func (x *Index) CellRect(i, j int) geom.Rect {
	return geom.Rect{
		MinX: x.bounds.MinX + float64(i)*x.cw,
		MinY: x.bounds.MinY + float64(j)*x.chh,
		MaxX: x.bounds.MinX + float64(i+1)*x.cw,
		MaxY: x.bounds.MinY + float64(j+1)*x.chh,
	}
}

// suffixAt returns the summary table's limb vector at suffix position
// (i, j), clamping out-of-range positions to the zero table at the far
// edge.
func (x *Index) suffixAt(i, j int) []float64 {
	if i < 0 {
		i = 0
	}
	if j < 0 {
		j = 0
	}
	if i > x.sx {
		i = x.sx
	}
	if j > x.sy {
		j = x.sy
	}
	at := (j*(x.sx+1) + i) * x.eff
	return x.suffix[at : at+x.eff]
}

// regionLimbs writes into out the limb totals of objects located in cells
// [l, r) × [b, t) via Lemma 8 inclusion–exclusion, exactly (see New).
// Empty ranges yield zeros.
func (x *Index) regionLimbs(l, r, b, t int, out []float64) {
	if l < 0 {
		l = 0
	}
	if b < 0 {
		b = 0
	}
	if r > x.sx {
		r = x.sx
	}
	if t > x.sy {
		t = x.sy
	}
	if l >= r || b >= t {
		for i := range out {
			out[i] = 0
		}
		return
	}
	lb := x.suffixAt(l, b)
	rb := x.suffixAt(r, b)
	lt := x.suffixAt(l, t)
	rt := x.suffixAt(r, t)
	for k := range out {
		out[k] = lb[k] - rb[k] - lt[k] + rt[k]
	}
}

// RingMinMax folds the per-cell minima/maxima of cells in
// [l,r)×[b,t) \ [il,ir)×[ib,it) into mmMin/mmMax. The outer box is
// clamped to the grid; the hole need not lie inside it, and an empty one
// takes nothing out. Each slot is folded over the rows bottom up, each
// row left to right as a run of cells — two runs, split around the hole's
// columns, in a row the hole covers — so a slot sees the cells in the
// order of a cell-by-cell scan, and a strict comparison keeps the first
// of equal values (−0 or +0) that scan would keep: the slots come out the
// same bits.
func (x *Index) RingMinMax(l, r, b, t, il, ir, ib, it int, mmMin, mmMax []float64) {
	m := x.mmSlots
	l, r = min(max(l, 0), x.sx), min(max(r, 0), x.sx)
	b, t = min(max(b, 0), x.sy), min(max(t, 0), x.sy)
	if m == 0 || l >= r {
		return
	}
	// The hole's columns inside [l, r): a row the hole covers is the runs
	// [l, hl) and [hr, r), any other row the run [l, r).
	hl, hr := max(il, l), min(ir, r)
	for s := range m {
		lo, hi := mmMin[s], mmMax[s]
		for j := b; j < t; j++ {
			c0, c1 := (j*x.sx+l)*m+s, (j*x.sx+r)*m
			if j >= ib && j < it && hl < hr {
				lo, hi = x.foldRun(lo, hi, c0, (j*x.sx+hl)*m, m)
				c0 = (j*x.sx+hr)*m + s
			}
			lo, hi = x.foldRun(lo, hi, c0, c1, m)
		}
		mmMin[s], mmMax[s] = lo, hi
	}
}

// foldRun folds the cell minima and maxima at offsets from, from+step, …
// below to into lo and hi, in that order.
func (x *Index) foldRun(lo, hi float64, from, to, step int) (float64, float64) {
	for at := from; at < to; at += step {
		if v := x.cellMin[at]; v < lo {
			lo = v
		}
		if v := x.cellMax[at]; v > hi {
			hi = v
		}
	}
	return lo, hi
}

// SizeBytes models the storage footprint of the index the way the paper
// accounts for it (Table 1): one pointer per cell into a pool of
// hash-consed attribute summary tables (identical tables are stored once,
// Fig 6), where each stored table costs 16 bytes per non-zero channel
// entry. The per-cell min/max slots are charged at 16 bytes per fA slot.
func (x *Index) SizeBytes() int {
	unique := make(map[uint64]int)
	var tableBytes int
	buf := make([]byte, 8)
	fold := make([]float64, x.chans)
	for j := 0; j <= x.sy; j++ {
		for i := 0; i <= x.sx; i++ {
			vec := x.limbs.Fold(fold, x.suffixAt(i, j))
			h := fnv.New64a()
			nonzero := 0
			for _, v := range vec {
				binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
				h.Write(buf)
				if v != 0 {
					nonzero++
				}
			}
			key := h.Sum64()
			if _, seen := unique[key]; !seen {
				unique[key] = nonzero
				tableBytes += 16 * nonzero
			}
		}
	}
	pointerBytes := 8 * (x.sx + 1) * (x.sy + 1)
	mmBytes := 16 * x.mmSlots * x.sx * x.sy
	return tableBytes + pointerBytes + mmBytes
}

// Objects returns the number of indexed objects.
func (x *Index) Objects() int { return x.objects }
