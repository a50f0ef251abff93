// Package maxrs implements the Maximizing Range Sum problem (§7.5): place
// an a×b rectangle to maximize the total weight of the enclosed points.
//
// Two solvers are provided. OE is the Optimal Enclosure sweep (Nandy &
// Bhattacharya 1995), the O(n log n) state of the art the paper compares
// against: sweep the plane bottom-to-top, range-adding each point's
// rectangle x-interval into a segment tree and querying the stabbing
// maximum. DS solves the same problem through DS-Search, exploiting that
// MaxRS is the special case of ASRS with a single fS aggregator and a
// target larger than any achievable sum (maximizing the sum minimizes the
// distance to such a target) — this is the paper's "slight modification"
// claim made literal.
package maxrs

import (
	"fmt"
	"sort"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
	"asrs/internal/segtree"
)

// Point is a weighted spatial point.
type Point struct {
	Loc    geom.Point
	Weight float64
}

// Result is a MaxRS answer: the region's bottom-left corner and the total
// enclosed weight.
type Result struct {
	Corner geom.Point // bottom-left corner of the best a×b region
	Weight float64
	Region geom.Rect
}

// UnitPoints wraps bare locations with weight 1 (the MER special case).
func UnitPoints(locs []geom.Point) []Point {
	pts := make([]Point, len(locs))
	for i, l := range locs {
		pts[i] = Point{Loc: l, Weight: 1}
	}
	return pts
}

// OE runs the Optimal Enclosure sweep. Points exactly on a candidate
// region's boundary are not counted (open semantics, consistent with the
// rest of the library).
func OE(points []Point, a, b float64) (Result, error) {
	if a <= 0 || b <= 0 {
		return Result{}, fmt.Errorf("maxrs: region size must be positive, got %g x %g", a, b)
	}
	if len(points) == 0 {
		return Result{}, fmt.Errorf("maxrs: empty point set")
	}

	// Reduce each point to the rectangle of bottom-left corners whose
	// region strictly contains it: the open rect (x−a, x) × (y−b, y).
	// Compress x coordinates; slot s spans (xs[s], xs[s+1]).
	xs := make([]float64, 0, 2*len(points))
	for _, p := range points {
		xs = append(xs, p.Loc.X-a, p.Loc.X)
	}
	sort.Float64s(xs)
	xs = dedupF(xs)
	if len(xs) < 2 {
		// All rectangles share identical x extent; any interior x works.
		xs = append(xs, xs[0]+a)
	}
	slotOf := func(v float64) int { return sort.SearchFloat64s(xs, v) }

	type event struct {
		y      float64
		l, r   int // slot range [l, r] inclusive
		weight float64
	}
	events := make([]event, 0, 2*len(points))
	for _, p := range points {
		l := slotOf(p.Loc.X - a) // first slot right of the left edge
		r := slotOf(p.Loc.X) - 1 // last slot left of the right edge
		if l > r {
			continue // degenerate (a == 0 handled above; coincident coords)
		}
		events = append(events,
			event{y: p.Loc.Y - b, l: l, r: r, weight: p.Weight},
			event{y: p.Loc.Y, l: l, r: r, weight: -p.Weight},
		)
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].y != events[j].y {
			return events[i].y < events[j].y
		}
		// Removals before additions at equal y: strips are open intervals.
		return events[i].weight < events[j].weight
	})

	tree := segtree.New(len(xs) - 1)
	var best Result
	bestSet := false
	for i := 0; i < len(events); {
		y := events[i].y
		for i < len(events) && events[i].y == y {
			tree.Add(events[i].l, events[i].r, events[i].weight)
			i++
		}
		if i >= len(events) {
			break
		}
		nextY := events[i].y
		if nextY <= y {
			continue
		}
		w, slot := tree.Max()
		if !bestSet || w > best.Weight {
			best.Weight = w
			best.Corner = geom.Point{
				X: (xs[slot] + xs[slot+1]) / 2,
				Y: (y + nextY) / 2,
			}
			bestSet = true
		}
	}
	if !bestSet {
		// Every strip was degenerate (all points on one horizontal line);
		// sample just below the line.
		best.Corner = geom.Point{X: points[0].Loc.X - a/2, Y: points[0].Loc.Y - b/2}
		best.Weight = weightAt(points, best.Corner, a, b)
	}
	best.Region = geom.RectFromBL(best.Corner, a, b)
	return best, nil
}

// weightAt evaluates the total weight strictly enclosed by the region with
// bottom-left corner p. Exported for verification in tests via WeightAt.
func weightAt(points []Point, p geom.Point, a, b float64) float64 {
	var w float64
	for _, pt := range points {
		if p.X < pt.Loc.X && pt.Loc.X < p.X+a && p.Y < pt.Loc.Y && pt.Loc.Y < p.Y+b {
			w += pt.Weight
		}
	}
	return w
}

// WeightAt evaluates the weight enclosed by the a×b region with
// bottom-left corner p (O(n); for verification and small workloads).
func WeightAt(points []Point, p geom.Point, a, b float64) float64 {
	return weightAt(points, p, a, b)
}

// weightSchema is the single-attribute schema used by the ASRS reduction.
var weightSchema = attr.MustSchema(attr.Attribute{Name: "weight", Kind: attr.Numeric})

// Dataset converts weighted points into an attr.Dataset over the weight
// schema, which lets MaxRS ride the full ASRS machinery.
func Dataset(points []Point) *attr.Dataset {
	objs := make([]attr.Object, len(points))
	for i, p := range points {
		objs[i] = attr.Object{Loc: p.Loc, Values: []attr.Value{attr.NumValue(p.Weight)}}
	}
	return &attr.Dataset{Schema: weightSchema, Objects: objs}
}

// DS solves MaxRS with DS-Search: ASRS with F = ((fS, weight, γ_all)) and
// a target exceeding every achievable sum, so minimizing the distance
// maximizes the enclosed weight. Equation 1's lower bound then equals
// target − (upper bound of the sum) — precisely the "estimate an upper
// bound and process the maximum first" adaptation of §7.5.
func DS(points []Point, a, b float64, opt dssearch.Options) (Result, dssearch.Stats, error) {
	if a <= 0 || b <= 0 {
		return Result{}, dssearch.Stats{}, fmt.Errorf("maxrs: region size must be positive, got %g x %g", a, b)
	}
	ds := Dataset(points)
	f, err := agg.New(ds.Schema, agg.Spec{Kind: agg.Sum, Attr: "weight"})
	if err != nil {
		return Result{}, dssearch.Stats{}, err
	}
	var posSum float64
	for _, p := range points {
		if p.Weight > 0 {
			posSum += p.Weight
		}
	}
	q := asp.Query{F: f, Target: []float64{posSum + 1}}
	req, err := dssearch.Open(ds, a, b, q, nil, opt)
	if err != nil {
		return Result{}, dssearch.Stats{}, err
	}
	defer req.Close()
	region, res, err := req.Best(nil)
	if err != nil {
		return Result{}, req.Stats(), err
	}
	return Result{Corner: region.BL(), Weight: res.Rep[0], Region: region}, req.Stats(), nil
}

// BruteForce enumerates every disjoint region; the test oracle.
func BruteForce(points []Point, a, b float64) Result {
	ds := Dataset(points)
	rects, err := asp.Reduce(ds, a, b, asp.AnchorTR)
	if err != nil {
		return Result{}
	}
	p, w := asp.MaxCoverPoint(rects, func(i int) float64 { return points[i].Weight })
	return Result{Corner: p, Weight: w, Region: geom.RectFromBL(p, a, b)}
}

func dedupF(vs []float64) []float64 {
	if len(vs) == 0 {
		return vs
	}
	out := vs[:1]
	for _, v := range vs[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
