package query

import (
	"cmp"
	"slices"
	"sort"

	"asrs"
	"asrs/internal/dssearch"
	"asrs/internal/wire"
)

// targetPart is one similar clause's contribution to the request
// target: either a literal vector or an example region represented
// under the clause's own composite at bind time. Per-clause
// representation concatenates bit-identically to representing the
// combined composite, because each (f, A, γ) component aggregates
// independently.
type targetPart struct {
	lit    []float64
	region *asrs.Rect
	comp   *asrs.Composite
	dims   int
	place  Place // its source, rendered by EXPLAIN
}

// Filter is one streamed post-filter: a dissimilarity predicate the
// executor applies per candidate round (dissimilar clauses), evaluated
// outside the kernel so the inner search stays a pure exact primitive.
type Filter struct {
	Comp    *asrs.Composite
	Weights []float64
	By      float64

	place targetPart
	canon string
}

// Plan is a compiled, executable query: the type-checked composite
// (interned singleton), the request skeleton, and the streaming
// strategy. Build with Planner.Plan; turn into the hand-wired engine
// request with Request; run with Exec.
type Plan struct {
	// Canonical is the canonical text rendering (EXPLAIN's identity
	// line; two semantically identical queries share it).
	Canonical string
	// Explain marks an EXPLAIN request: report the plan, don't run it.
	Explain bool

	// Find form.
	Comp      *asrs.Composite
	CompKey   string
	Weights   []float64
	Norm      asrs.Norm
	A, B      float64
	TopK      int // as requested: 0 and 1 both mean single-best
	Exclude   []asrs.Rect
	Within    *asrs.Rect
	Delta     float64
	Filters   []Filter
	DiverseBy float64
	// ScanCap bounds total candidate rounds for filtered streams
	// (0 = unfiltered: exactly k rounds, mirroring one-shot top-k).
	ScanCap   int
	TimeoutMS int64

	targets         []targetPart
	exampleExcludes []asrs.Rect // from "excluding example", appended after Exclude
	channels        []ExplainChannel

	// Maximize form (nil for find).
	Max *MaxPlan
}

// MaxPlan is the compiled MaxRS form.
type MaxPlan struct {
	Fn      string // "count" or "sum"
	Attr    string
	AttrIdx int // -1 for count
	A, B    float64
}

// K returns the number of answer regions the plan streams.
func (pl *Plan) K() int {
	if pl.TopK > 1 {
		return pl.TopK
	}
	return 1
}

// rounds returns the candidate-round budget: exactly K for unfiltered
// plans (bit-identity with one-shot top-k demands it), ScanCap for
// filtered ones.
func (pl *Plan) rounds() int {
	if len(pl.Filters) == 0 && pl.DiverseBy == 0 {
		return pl.K()
	}
	return pl.ScanCap
}

// Plan type-checks and compiles a parsed query against the planner's
// schema. The returned plan is immutable and safe for concurrent
// execution.
func (p *Planner) Plan(ast *AST) (*Plan, error) {
	pl := &Plan{Canonical: ast.Canonical(), Explain: ast.Explain}
	if ast.Maximize != nil {
		return p.planMaximize(ast, pl)
	}
	return p.planFind(ast, pl)
}

// ParseAndPlan is the one-call front door: text in, plan out.
func (p *Planner) ParseAndPlan(src string) (*Plan, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return p.Plan(ast)
}

func (p *Planner) planMaximize(ast *AST, pl *Plan) (*Plan, error) {
	m := ast.Maximize
	mp := &MaxPlan{Fn: m.Fn, Attr: m.Attr, AttrIdx: -1, A: m.A, B: m.B}
	if err := dssearch.CheckExtent(m.A, m.B); err != nil {
		return nil, planErrf("maximize size: %v", err)
	}
	if m.Fn == "sum" {
		idx := p.schema.Index(m.Attr)
		if idx < 0 {
			return nil, planErrf("unknown attribute %q in sum(%s)", m.Attr, m.Attr)
		}
		if p.schema.At(idx).Kind != asrs.Numeric {
			return nil, planErrf("sum(%s) requires a numeric attribute, %q is categorical", m.Attr, m.Attr)
		}
		mp.AttrIdx = idx
	}
	pl.Max = mp
	pl.TimeoutMS = ast.TimeoutMS
	return pl, nil
}

func (p *Planner) planFind(ast *AST, pl *Plan) (*Plan, error) {
	if len(ast.Similar) == 0 {
		return nil, planErrf("find requires at least one similar clause")
	}
	norm, err := asrs.Norm(0), error(nil)
	switch ast.Norm {
	case "", "l1":
		norm = asrs.L1
	case "l2":
		norm = asrs.L2
	default:
		return nil, planErrf("unknown norm %q", ast.Norm)
	}
	pl.Norm = norm

	// Similar clauses compile in canonical order so the combined channel
	// layout (and with it the weight and target concatenation) matches
	// the canonical text regardless of how the query was written.
	sims := append([]SimilarClause(nil), ast.Similar...)
	sort.SliceStable(sims, func(i, j int) bool { return sims[i].canon() < sims[j].canon() })

	exprs := make([]compiledExpr, len(sims))
	for i, c := range sims {
		if exprs[i], err = p.compileExpr(c.Expr); err != nil {
			return nil, err
		}
	}
	if len(sims) == 1 {
		ce := exprs[0]
		pl.Comp, pl.CompKey, pl.Weights, pl.channels = ce.comp, ce.key, ce.weights, ce.channels
	} else {
		// Multi-clause conjunction: concatenate the clauses' channels
		// into one combined composite (interned under the concatenated
		// key). @name clauses cannot join — their spec lists are opaque.
		var specs []asrs.AggSpec
		var weights []float64
		allOne := true
		key := ""
		for i, ce := range exprs {
			if ce.specs == nil {
				return nil, planErrf("@%s cannot be combined with other similar clauses (a registered composite's channels are opaque)", ce.key[1:])
			}
			if i > 0 {
				key += "||"
			}
			key += ce.key
			specs = append(specs, ce.specs...)
			dims := 0
			for _, ch := range ce.channels {
				dims += ch.Dims
			}
			if ce.weights == nil {
				for j := 0; j < dims; j++ {
					weights = append(weights, 1)
				}
			} else {
				weights = append(weights, ce.weights...)
				allOne = false
			}
			pl.channels = append(pl.channels, ce.channels...)
		}
		comp, err := p.intern(key, specs)
		if err != nil {
			return nil, err
		}
		pl.Comp, pl.CompKey = comp, key
		if !allOne {
			pl.Weights = weights
		}
	}

	// Target assembly: one part per clause, in the same canonical order.
	for i, c := range sims {
		pl.targets = append(pl.targets, newPart(exprs[i].comp, c.Place))
	}

	// Answer size: explicit, or derived from the single example region
	// (the query-by-example default).
	pl.A, pl.B = ast.A, ast.B
	if pl.A == 0 && pl.B == 0 {
		if len(sims) != 1 || sims[0].Place.Region == nil {
			return nil, planErrf("size is required unless the query has exactly one example region")
		}
		pl.A, pl.B = pl.targets[0].region.Width(), pl.targets[0].region.Height()
	}
	pl.TopK, pl.Delta, pl.TimeoutMS = ast.TopK, ast.Delta, ast.TimeoutMS
	if ast.DiverseBy < 0 {
		return nil, planErrf("diverse by must be non-negative, got %g", ast.DiverseBy)
	}
	pl.DiverseBy = ast.DiverseBy

	// Exclusions: explicit rects in canonical order, then (under
	// "excluding example") every example region in clause order — the
	// same construction a hand-wired client writes, so the compiled
	// Exclude slice is byte-identical to the struct form.
	excl := append([]Rect4(nil), ast.Exclude...)
	sort.Slice(excl, func(i, j int) bool { return lessRect4(excl[i], excl[j]) })
	for _, r := range excl {
		pl.Exclude = append(pl.Exclude, rectLib(r))
	}
	if ast.ExcludeExample {
		for _, part := range pl.targets {
			if part.region != nil {
				pl.exampleExcludes = append(pl.exampleExcludes, *part.region)
			}
		}
		if len(pl.exampleExcludes) == 0 {
			return nil, planErrf("excluding example requires at least one example region")
		}
	}
	if ast.Within != nil {
		w := rectLib(*ast.Within)
		pl.Within = &w
	}

	// Dissimilarity post-filters.
	for _, c := range ast.Dissimilar {
		if c.By < 0 {
			return nil, planErrf("dissimilar … by must be non-negative, got %g", c.By)
		}
		ce, err := p.compileExpr(c.Expr)
		if err != nil {
			return nil, err
		}
		f := Filter{Comp: ce.comp, Weights: ce.weights, By: c.By, place: newPart(ce.comp, c.Place), canon: c.canon()}
		pl.Filters = append(pl.Filters, f)
	}

	// Round budget for filtered streams: the explicit scan cap, or
	// enough headroom that moderate rejection rates still fill k.
	if ast.Scan > 0 {
		pl.ScanCap = ast.Scan
	} else if len(pl.Filters) > 0 || pl.DiverseBy > 0 {
		k := pl.K()
		pl.ScanCap = 4 * k
		if pl.ScanCap < k+8 {
			pl.ScanCap = k + 8
		}
	}
	if pl.ScanCap > 0 && pl.ScanCap < pl.K() {
		return nil, planErrf("scan %d is below top %d", pl.ScanCap, pl.K())
	}
	if err := pl.check(); err != nil {
		return nil, err
	}
	return pl, nil
}

// PlanWire compiles a wire body — /v1/query's, a /v1/batch member's — to
// the plan its query text would compile to: the registered composite, the
// norm, a literal target or an example region (represented, as every
// region target is, on the snapshot the request searches), a and b each
// defaulting to the region's side, the exclusions in body order and then
// the region under exclude_region, the extent, top_k, δ and the timeout,
// held to the rules every plan is held to (check).
func (p *Planner) PlanWire(wq wire.Query) (*Plan, error) {
	comp, ok := p.named[wq.Composite]
	if !ok {
		return nil, planErrf("unknown composite %q", wq.Composite)
	}
	norm, err := wire.ParseNorm(wq.Norm)
	if err != nil {
		return nil, planErrf("%v", err)
	}
	pl := &Plan{Comp: comp, CompKey: "@" + wq.Composite, Weights: wq.Weights, Norm: norm,
		A: wq.A, B: wq.B, TopK: wq.TopK, Delta: wq.Delta, TimeoutMS: wq.TimeoutMS}
	part := newPart(comp, Place{Region: (*Rect4)(wq.Region), Target: wq.Target})
	switch {
	case wq.Region != nil && wq.Target != nil:
		return nil, planErrf("set either target or region, not both")
	case wq.Region != nil:
		pl.A = cmp.Or(pl.A, part.region.Width())
		pl.B = cmp.Or(pl.B, part.region.Height())
		if wq.ExcludeRegion {
			pl.exampleExcludes = []asrs.Rect{*part.region}
		}
	case wq.Target == nil:
		return nil, planErrf("query requires a target or an example region")
	}
	pl.targets = []targetPart{part}
	for _, r := range wq.Exclude {
		pl.Exclude = append(pl.Exclude, wire.RectLib(r))
	}
	if wq.Extent != nil {
		w := wire.RectLib(*wq.Extent)
		pl.Within = &w
	}
	if err := pl.check(); err != nil {
		return nil, err
	}
	return pl, nil
}

// newPart is one place's part under comp: its literal vector, or its
// example region.
func newPart(comp *asrs.Composite, place Place) targetPart {
	part := targetPart{comp: comp, dims: comp.Dims(), place: place, lit: place.Target}
	if place.Region != nil {
		r := rectLib(*place.Region)
		part.region = &r
	}
	return part
}

// check holds a find plan, compiled from query text or from a wire body,
// to the rules both share: an admissible answer size, top_k within its
// bound, δ and the timeout non-negative, well-formed rectangles, and
// literal vectors and weights of their composite's dims.
func (pl *Plan) check() error {
	if err := dssearch.CheckExtent(pl.A, pl.B); err != nil {
		return planErrf("answer size: %v", err)
	}
	if pl.TopK < 0 || pl.TopK > maxTopK {
		return planErrf("top %d is outside [0, %d]", pl.TopK, maxTopK)
	}
	if pl.Delta < 0 {
		return planErrf("delta must be non-negative, got %g", pl.Delta)
	}
	if pl.TimeoutMS < 0 {
		return planErrf("timeout must be non-negative, got %d ms", pl.TimeoutMS)
	}
	parts := slices.Clone(pl.targets)
	for _, f := range pl.Filters {
		parts = append(parts, f.place)
	}
	for _, part := range parts {
		if part.region != nil && !part.region.IsValid() {
			return planErrf("invalid example region %s: min must not exceed max", part.place.canon())
		}
		if part.region == nil && len(part.lit) != part.dims {
			return planErrf("target vector has %d dims, its composite produces %d", len(part.lit), part.dims)
		}
	}
	for _, r := range pl.Exclude {
		if !r.IsValid() {
			return planErrf("invalid exclusion %v: min must not exceed max", r)
		}
	}
	if pl.Within != nil && !pl.Within.IsValid() {
		return planErrf("invalid within extent: min must not exceed max")
	}
	if pl.Weights != nil && len(pl.Weights) != pl.Comp.Dims() {
		return planErrf("%d weights, the composite produces %d dims", len(pl.Weights), pl.Comp.Dims())
	}
	return nil
}

// corpus is the corpus of the snapshot r captured when the plan represents
// a region on it — an example-region target, a post-filter (which
// represents every candidate), the maximize form (which reads every
// object) — and nil otherwise: on a router the read pins and loads every
// shard, which a request that represents no region must not pay.
func (pl *Plan) corpus(r Rounds) *asrs.Dataset {
	if pl.Max != nil || len(pl.Filters) > 0 || slices.ContainsFunc(pl.targets, func(p targetPart) bool { return p.region != nil }) {
		return r.Dataset()
	}
	return nil
}

// Request compiles the plan against a dataset snapshot into the
// hand-wired engine request it denotes. This is the bit-identity
// obligation's left-hand side: the returned request must be
// Float64bits-identical to what a client building asrs.QueryRequest by
// hand (same composite singleton, same construction order) would
// write. Region targets are represented against ds here, so callers
// must pass the same epoch view the request will run against.
func (pl *Plan) Request(ds *asrs.Dataset) (asrs.QueryRequest, error) {
	if pl.Max != nil {
		return asrs.QueryRequest{}, planErrf("maximize plans have no engine request form")
	}
	q, err := asrs.QueryFromTarget(pl.Comp, pl.target(ds), pl.Weights)
	if err != nil {
		return asrs.QueryRequest{}, planErrf("%v", err)
	}
	q.Norm = pl.Norm
	req := asrs.QueryRequest{Query: q, A: pl.A, B: pl.B, TopK: pl.TopK}
	if n := len(pl.Exclude) + len(pl.exampleExcludes); n > 0 {
		req.Exclude = make([]asrs.Rect, 0, n)
		req.Exclude = append(req.Exclude, pl.Exclude...)
		req.Exclude = append(req.Exclude, pl.exampleExcludes...)
	}
	if pl.Within != nil {
		w := *pl.Within
		req.Within = &w
	}
	return req, nil
}

// target assembles the request target from the plan's parts.
func (pl *Plan) target(ds *asrs.Dataset) []float64 {
	if len(pl.targets) == 1 {
		return pl.targets[0].vector(ds)
	}
	var out []float64
	for _, part := range pl.targets {
		out = append(out, part.vector(ds)...)
	}
	return out
}

// vector is the part's target: its literal vector, or its example region
// represented on ds.
func (part targetPart) vector(ds *asrs.Dataset) []float64 {
	if part.region == nil {
		return part.lit
	}
	return asrs.Represent(ds, part.comp, *part.region)
}

// ApplyOptions pins per-request options onto req exactly as the wire
// layer does: a δ-approximate plan copies the serving defaults and sets
// only Delta (opting the request out of joining searches in flight
// without losing the operator's worker bound).
func (pl *Plan) ApplyOptions(req *asrs.QueryRequest, base asrs.Options) {
	if pl.Delta > 0 {
		opt := base
		opt.Delta = pl.Delta
		req.Options = &opt
	}
}

func rectLib(r Rect4) asrs.Rect {
	return asrs.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

func lessRect4(a, b Rect4) bool {
	if a.MinX != b.MinX {
		return a.MinX < b.MinX
	}
	if a.MinY != b.MinY {
		return a.MinY < b.MinY
	}
	if a.MaxX != b.MaxX {
		return a.MaxX < b.MaxX
	}
	return a.MaxY < b.MaxY
}
