package query

import (
	"sort"

	"asrs"
	"asrs/internal/dssearch"
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
	canon  string // the place's canonical rendering, for EXPLAIN
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
		part := targetPart{comp: exprs[i].comp, canon: c.Place.canon()}
		dims := exprs[i].comp.Dims()
		part.dims = dims
		switch {
		case c.Place.Region != nil:
			r := rectLib(*c.Place.Region)
			if !r.IsValid() {
				return nil, planErrf("invalid example region %s: min must not exceed max", c.Place.canon())
			}
			part.region = &r
		default:
			if len(c.Place.Target) != dims {
				return nil, planErrf("target vector has %d dims, %s produces %d", len(c.Place.Target), exprs[i].key, dims)
			}
			part.lit = c.Place.Target
		}
		pl.targets = append(pl.targets, part)
	}

	// Answer size: explicit, or derived from the single example region
	// (the query-by-example default, matching the wire schema).
	a, b := ast.A, ast.B
	if a == 0 && b == 0 {
		if len(sims) == 1 && sims[0].Place.Region != nil {
			r := sims[0].Place.Region
			a, b = r.MaxX-r.MinX, r.MaxY-r.MinY
		} else {
			return nil, planErrf("size is required unless the query has exactly one example region")
		}
	}
	if err := dssearch.CheckExtent(a, b); err != nil {
		return nil, planErrf("answer size: %v", err)
	}
	pl.A, pl.B = a, b

	if ast.TopK > maxTopK {
		return nil, planErrf("top %d exceeds the bound %d", ast.TopK, maxTopK)
	}
	pl.TopK = ast.TopK
	if ast.Delta < 0 {
		return nil, planErrf("delta must be non-negative, got %g", ast.Delta)
	}
	pl.Delta = ast.Delta
	if ast.DiverseBy < 0 {
		return nil, planErrf("diverse by must be non-negative, got %g", ast.DiverseBy)
	}
	pl.DiverseBy = ast.DiverseBy
	pl.TimeoutMS = ast.TimeoutMS

	// Exclusions: explicit rects in canonical order, then (under
	// "excluding example") every example region in clause order — the
	// same construction a hand-wired client writes, so the compiled
	// Exclude slice is byte-identical to the struct form.
	excl := append([]Rect4(nil), ast.Exclude...)
	sort.Slice(excl, func(i, j int) bool { return lessRect4(excl[i], excl[j]) })
	for _, r := range excl {
		lr := rectLib(r)
		if !lr.IsValid() {
			return nil, planErrf("invalid exclusion %s: min must not exceed max", r.canon())
		}
		pl.Exclude = append(pl.Exclude, lr)
	}
	if ast.ExcludeExample {
		n := 0
		for _, part := range pl.targets {
			if part.region != nil {
				pl.exampleExcludes = append(pl.exampleExcludes, *part.region)
				n++
			}
		}
		if n == 0 {
			return nil, planErrf("excluding example requires at least one example region")
		}
	}
	if ast.Within != nil {
		w := rectLib(*ast.Within)
		if !w.IsValid() {
			return nil, planErrf("invalid within extent: min must not exceed max")
		}
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
		f := Filter{Comp: ce.comp, Weights: ce.weights, By: c.By, canon: c.canon()}
		f.place = targetPart{comp: ce.comp, dims: ce.comp.Dims(), canon: c.Place.canon()}
		switch {
		case c.Place.Region != nil:
			r := rectLib(*c.Place.Region)
			if !r.IsValid() {
				return nil, planErrf("invalid example region %s: min must not exceed max", c.Place.canon())
			}
			f.place.region = &r
		default:
			if len(c.Place.Target) != ce.comp.Dims() {
				return nil, planErrf("target vector has %d dims, %s produces %d", len(c.Place.Target), ce.key, ce.comp.Dims())
			}
			f.place.lit = c.Place.Target
		}
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
	return pl, nil
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
	target, err := pl.target(ds)
	if err != nil {
		return asrs.QueryRequest{}, err
	}
	q, err := asrs.QueryFromTarget(pl.Comp, target, pl.Weights)
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
func (pl *Plan) target(ds *asrs.Dataset) ([]float64, error) {
	if len(pl.targets) == 1 && pl.targets[0].lit != nil {
		return pl.targets[0].lit, nil
	}
	var out []float64
	for _, part := range pl.targets {
		if part.lit != nil {
			out = append(out, part.lit...)
			continue
		}
		out = append(out, asrs.Represent(ds, part.comp, *part.region)...)
	}
	return out, nil
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
