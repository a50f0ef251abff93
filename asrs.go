// Package asrs is a Go implementation of attribute-aware similar region
// search, reproducing "Finding Attribute-aware Similar Regions for Data
// Analysis" (Feng, Cong, Jensen, Guo; PVLDB 12(11), 2019).
//
// Given a set of spatial objects with attributes, a composite aggregator
// describing the aspects of interest, and an a×b query region (or a
// hand-crafted target representation), the library finds the a×b region
// whose aggregate representation is closest to the query's under a
// weighted L1 (or L2) distance.
//
// The package exposes:
//
//   - the attribute model (Schema, Object, Dataset) and composite
//     aggregators (fD, fA, fS over selections),
//   - QueryRequest and Answer: the one description of a search — query,
//     a×b size, top-k, exclusions, extent — and the one driver that
//     answers it, with DS-Search (the paper's contribution; Options.Delta
//     selects the (1+δ)-approximate variant) or, given a grid index from
//     NewIndex, with GI-DS,
//   - Search / SearchWithin / SearchWithIndex: argument-list conveniences
//     over Answer for the plain, windowed and indexed request,
//   - SearchBaseline: the O(n²) sweep-line baseline, answering the same
//     requests,
//   - MaxRS / MaxRSBaseline: the MaxRS adaptation and the OE sweep,
//   - Engine: the serving-layer facade — one dataset, lazily built cached
//     per-composite indexes, safe concurrent Query/QueryBatch.
//
// # Search kernel
//
// Every search (Answer, MaxRS, an Engine query) runs the shared
// best-first kernel of internal/kernel, the paper's serial loop, on the
// goroutine that asked for it: pop the candidate space of least lower
// bound, stop if it cannot beat the incumbent, discretize, bound and
// split it, and offer what it found to the pruning bound. Candidates are
// ordered totally (distance, then point), and nothing depends on a
// schedule, so the answer — region, point and distance — is deterministic
// by construction and the paper's exactness theorems and the (1+δ)
// guarantee carry over unchanged. Parallelism lives between searches: an
// Engine runs one per request under a slot budget (BatchParallelism);
// Options.Workers is inert. Rectangle subsets travel the heap as compact
// id slices recycled through the searcher's free list, the
// discretization grid and mini-sweep solver are recycled across queries,
// and every space is discretized by one difference-array pass over its
// own rectangles, so steady-state searches allocate almost nothing per
// space. See DESIGN.md §2 and §4.
//
// Quick start:
//
//	schema := asrs.MustSchema(
//		asrs.Attribute{Name: "category", Kind: asrs.Categorical, Domain: []string{"cafe", "gym"}},
//	)
//	ds := &asrs.Dataset{Schema: schema, Objects: objects}
//	f, _ := asrs.NewComposite(schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"})
//	q, _ := asrs.QueryFromRegion(ds, f, nil, queryRegion)
//	region, res, _, _ := asrs.Search(ds, 0.01, 0.01, q, asrs.Options{})
package asrs

import (
	"io"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
	"asrs/internal/gridindex"
	"asrs/internal/maxrs"
	"asrs/internal/persist"
)

// Geometry.
type (
	// Point is a planar location.
	Point = geom.Point
	// Rect is an axis-parallel rectangle.
	Rect = geom.Rect
)

// Attribute model.
type (
	// Schema is an ordered set of attributes.
	Schema = attr.Schema
	// Attribute describes one attribute (categorical or numeric).
	Attribute = attr.Attribute
	// Value is one attribute value of an object.
	Value = attr.Value
	// Object is a spatial object: location plus attribute values.
	Object = attr.Object
	// Dataset couples a schema with its objects.
	Dataset = attr.Dataset
	// Selector is the selection function γ that filters objects before
	// aggregation.
	Selector = attr.Selector
)

// AttrKind distinguishes categorical from numeric attributes.
type AttrKind = attr.Kind

// Attribute kinds.
const (
	Categorical = attr.Categorical
	Numeric     = attr.Numeric
)

// Aggregation.
type (
	// Composite is a compiled composite aggregator F.
	Composite = agg.Composite
	// AggSpec is one (f, A, γ) component of a composite aggregator.
	AggSpec = agg.Spec
	// Norm selects L1 or L2 distance.
	Norm = agg.Norm
)

// Aggregator kinds (Definition 1).
const (
	// Distribution is fD: per-value counts of a categorical attribute.
	Distribution = agg.Distribution
	// Average is fA: mean of a numeric attribute (0 on empty selections).
	Average = agg.Average
	// Sum is fS: sum of a numeric attribute.
	Sum = agg.Sum
	// Count is fC: the number of selected objects (extension; Attr may be
	// empty).
	Count = agg.Count
)

// Distance norms.
const (
	L1 = agg.L1
	L2 = agg.L2
)

// Query and search.
type (
	// Query is a fully specified similarity query: composite aggregator,
	// target representation F(r_q), per-dimension weights, and norm.
	Query = asp.Query
	// Result is an answer: the best point (region bottom-left under the
	// default reduction), its distance, and its representation.
	Result = asp.Result
	// Options configures DS-Search (grid granularity, approximation δ,
	// cancellation, an aggregate pyramid to bind).
	Options = dssearch.Options
	// SearchStats reports the work DS-Search performed.
	SearchStats = dssearch.Stats
	// Index is a grid index over a dataset for one composite aggregator.
	Index = gridindex.Index
	// Pyramid is the per-composite aggregate pyramid: the
	// dataset-level aggregation layer (canonical master order, channel
	// contributions, exactness certificates) built
	// once per (dataset, composite) and bound by every query instead of
	// rebuilt (DESIGN.md §6). Engines build and cache one per composite
	// automatically.
	Pyramid = dssearch.Pyramid
	// IndexStats reports the work of one GI-DS run.
	IndexStats = gridindex.Stats
)

// MaxRS types.
type (
	// MaxRSPoint is a weighted point for the MaxRS problem.
	MaxRSPoint = maxrs.Point
	// MaxRSResult is a MaxRS answer.
	MaxRSResult = maxrs.Result
)

// NewSchema builds a schema; see attr.NewSchema.
func NewSchema(attrs ...Attribute) (*Schema, error) { return attr.NewSchema(attrs...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(attrs ...Attribute) *Schema { return attr.MustSchema(attrs...) }

// NewComposite compiles a composite aggregator against a schema,
// validating that fD components reference categorical attributes and
// fA/fS components numeric ones.
func NewComposite(schema *Schema, specs ...AggSpec) (*Composite, error) {
	return agg.New(schema, specs...)
}

// SelectAll is the γ_all selection function.
func SelectAll(o *Object) bool { return attr.SelectAll(o) }

// SelectCategory returns a selector keeping objects whose categorical
// attribute (by schema position) equals the given domain index.
func SelectCategory(attrIdx, valueIdx int) Selector { return attr.SelectCategory(attrIdx, valueIdx) }

// SelectNumRange returns a selector keeping objects whose numeric
// attribute lies in [lo, hi].
func SelectNumRange(attrIdx int, lo, hi float64) Selector {
	return attr.SelectNumRange(attrIdx, lo, hi)
}

// Represent computes the aggregate representation F(r) of the objects
// strictly inside region r.
func Represent(ds *Dataset, f *Composite, r Rect) []float64 {
	return f.Representation(ds, agg.OpenRect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY})
}

// QueryFromRegion builds a query-by-example: the target representation is
// computed from the example region rq (which also fixes the query size
// a×b = rq.Width()×rq.Height()). A nil weight vector means unit weights.
func QueryFromRegion(ds *Dataset, f *Composite, w []float64, rq Rect) (Query, error) {
	q := Query{F: f, Target: Represent(ds, f, rq), W: w}
	return q, q.Validate()
}

// QueryFromTarget builds a query from a hand-crafted target representation
// (the "virtual region" usage of §3.3).
func QueryFromTarget(f *Composite, target, w []float64) (Query, error) {
	q := Query{F: f, Target: target, W: w}
	return q, q.Validate()
}

// Search solves the ASRS problem exactly with DS-Search (the paper's
// Algorithm 1): it returns the a×b region minimizing the distance to the
// query target, the answer details, and search statistics. Options.Delta
// > 0 switches to the (1+δ)-approximate algorithm. A convenience over
// Answer for the plain request.
func Search(ds *Dataset, a, b float64, q Query, opt Options) (Rect, Result, SearchStats, error) {
	resp, stats := Answer(ds, nil, QueryRequest{Query: q, A: a, B: b, Options: &opt})
	region, res := resp.Best()
	return region, res, stats.DS, resp.Err
}

// SearchWithin is Search restricted to answer regions contained in the
// closed extent `within`, additionally avoiding the exclude rectangles.
// The search trajectory depends only on the extent and the objects
// whose anchor rectangles can reach it — never on the rest of the
// corpus — which is what lets the shard router answer extent-contained
// queries from a single shard bit-identically to a merged-corpus run
// (DESIGN.md §11). A convenience over Answer for the windowed request.
func SearchWithin(ds *Dataset, a, b float64, q Query, within Rect, exclude []Rect, opt Options) (Rect, Result, SearchStats, error) {
	resp, stats := Answer(ds, nil, QueryRequest{Query: q, A: a, B: b, Exclude: exclude, Within: &within, Options: &opt})
	region, res := resp.Best()
	return region, res, stats.DS, resp.Err
}

// NewIndex builds a grid index with granularity sx×sy over the dataset for
// the composite aggregator f (§5). The index is reusable across queries
// that share f. It bins the core of the dataset's pyramid for f, which it
// builds (BuildPyramid) and drops; an Engine bins the pyramid it caches.
func NewIndex(ds *Dataset, f *Composite, sx, sy int) (*Index, error) {
	p, err := dssearch.BuildPyramid(ds, f)
	if err != nil {
		return nil, err
	}
	return gridindex.New(p, sx, sy)
}

// BuildPyramid constructs the aggregate pyramid for one composite over a
// dataset (DESIGN.md §6), to bind through Options.Pyramid or install with
// Engine.SetPyramid. Engines build their own, at Warm or on first use.
func BuildPyramid(ds *Dataset, f *Composite) (*Pyramid, error) {
	return dssearch.BuildPyramid(ds, f)
}

// SearchWithIndex solves the ASRS problem with GI-DS (the paper's
// Algorithm 2): index cells are lower-bounded and searched best-first by
// DS-Search. Options.Delta > 0 selects app-GIDS. A convenience over
// Answer for the plain request with an index.
func SearchWithIndex(idx *Index, ds *Dataset, a, b float64, q Query, opt Options) (Rect, Result, IndexStats, error) {
	resp, stats := Answer(ds, idx, QueryRequest{Query: q, A: a, B: b, Options: &opt})
	region, res := resp.Best()
	return region, res, stats, resp.Err
}

// MaxRS solves the maximizing-range-sum problem with the DS-Search
// adaptation of §7.5: place an a×b region to maximize the enclosed weight.
func MaxRS(points []MaxRSPoint, a, b float64, opt Options) (MaxRSResult, SearchStats, error) {
	return maxrs.DS(points, a, b, opt)
}

// MaxRSBaseline solves MaxRS with the Optimal Enclosure sweep
// (O(n log n)), the state-of-the-art baseline the paper compares against.
func MaxRSBaseline(points []MaxRSPoint, a, b float64) (MaxRSResult, error) {
	return maxrs.OE(points, a, b)
}

// WriteDatasetCSV serializes a dataset in the library's self-describing
// CSV dialect (schema directives in comments, then standard CSV rows).
func WriteDatasetCSV(w io.Writer, ds *Dataset) error { return persist.WriteCSV(w, ds) }

// ReadDatasetCSV parses a dataset written by WriteDatasetCSV or
// hand-authored in the same dialect.
func ReadDatasetCSV(r io.Reader) (*Dataset, error) { return persist.ReadCSV(r) }

// ErrInvalidObject is wrapped by every error Dataset.Validate returns — an
// object without one value per attribute, a categorical value outside its
// domain, a location coordinate not of magnitude below 2^1022, a numeric
// value that is neither 0 nor of magnitude in [2^-970, 2^960) — and so by
// the refusals of NewEngine, InsertBatch and ReadDatasetCSV.
var ErrInvalidObject = attr.ErrInvalid

// UnitWeights returns a weight vector of n ones.
func UnitWeights(n int) []float64 { return agg.UnitWeights(n) }

// Distance returns the weighted distance between two representations.
func Distance(norm Norm, u, v, w []float64) float64 { return agg.Distance(norm, u, v, w) }
