package query

import (
	"fmt"
	"sort"
	"sync"

	"asrs"
)

// PlanError is the typed planning failure: the query parsed but does
// not type-check against the serving schema or violates a semantic
// rule.
type PlanError struct {
	Msg string
}

func (e *PlanError) Error() string { return "query: plan error: " + e.Msg }

func planErrf(format string, args ...any) error {
	return &PlanError{Msg: fmt.Sprintf(format, args...)}
}

// Planner compiles ASTs against one serving schema. It owns the
// composite interner: the engine's index and pyramid caches are keyed
// by composite POINTER identity, so semantically identical expressions
// must compile to the same long-lived *Composite — the
// interner guarantees one singleton per canonical spec list, and the
// Named registry maps @name references to the daemon's registered
// (pre-warmed) singletons. Safe for concurrent use.
type Planner struct {
	schema *asrs.Schema
	named  map[string]*asrs.Composite

	mu       sync.Mutex
	interned map[string]*asrs.Composite
}

// NewPlanner builds a planner over the given schema. named maps @name
// references to registered composite singletons (may be nil).
func NewPlanner(schema *asrs.Schema, named map[string]*asrs.Composite) *Planner {
	return &Planner{schema: schema, named: named, interned: map[string]*asrs.Composite{}}
}

// compiledExpr is one expression resolved against the schema: its
// interned composite, per-dimension weights (nil = all ones), and the
// channel breakdown for EXPLAIN.
type compiledExpr struct {
	comp     *asrs.Composite
	weights  []float64 // nil when every weight is 1
	key      string    // interner key ("@name" for named references)
	channels []ExplainChannel
	specs    []asrs.AggSpec // inline atoms only (nil for @name)
}

// sortTerms returns the expression's terms in canonical order — the
// same order Canonical renders, so the compiled channel layout matches
// the canonical text and two spellings of one expression produce
// byte-identical weight vectors.
func sortTerms(e Expr) []Term {
	terms := append([]Term(nil), e.Terms...)
	sort.SliceStable(terms, func(i, j int) bool {
		ai, aj := terms[i].Atom.canon(), terms[j].Atom.canon()
		if ai != aj {
			return ai < aj
		}
		return terms[i].Coef < terms[j].Coef
	})
	return terms
}

// compileExpr type-checks one expression and resolves its composite.
func (p *Planner) compileExpr(e Expr) (compiledExpr, error) {
	if len(e.Terms) == 0 {
		return compiledExpr{}, planErrf("empty expression")
	}
	terms := sortTerms(e)

	// A @name reference stands for a whole registered composite whose
	// spec list is opaque; it cannot be concatenated with inline atoms.
	for _, t := range terms {
		if t.Atom.Fn == "@" && len(terms) > 1 {
			return compiledExpr{}, planErrf("@%s cannot be combined with other atoms (a registered composite's channels are opaque)", t.Atom.Attr)
		}
	}
	if terms[0].Atom.Fn == "@" {
		name, coef := terms[0].Atom.Attr, terms[0].Coef
		comp, ok := p.named[name]
		if !ok {
			return compiledExpr{}, planErrf("unknown composite @%s", name)
		}
		if coef < 0 {
			return compiledExpr{}, planErrf("negative weight %g on @%s (weights must be non-negative)", coef, name)
		}
		ce := compiledExpr{comp: comp, key: "@" + name}
		ce.channels = []ExplainChannel{{Atom: terms[0].Atom.canon(), Kind: "composite", Dims: comp.Dims(), Weight: coef}}
		if coef != 1 {
			w := make([]float64, comp.Dims())
			for i := range w {
				w[i] = coef
			}
			ce.weights = w
		}
		return ce, nil
	}

	var (
		specs    []asrs.AggSpec
		weights  []float64
		allOne   = true
		keys     []string
		channels []ExplainChannel
	)
	for _, t := range terms {
		if t.Coef < 0 {
			return compiledExpr{}, planErrf("negative weight %g on %s (weights must be non-negative)", t.Coef, t.Atom.canon())
		}
		spec, dims, err := p.compileAtom(t.Atom)
		if err != nil {
			return compiledExpr{}, err
		}
		specs = append(specs, spec)
		keys = append(keys, t.Atom.canon())
		channels = append(channels, ExplainChannel{
			Atom: t.Atom.canon(), Kind: t.Atom.Fn, Attr: t.Atom.Attr, Dims: dims, Weight: t.Coef,
		})
		for i := 0; i < dims; i++ {
			weights = append(weights, t.Coef)
		}
		if t.Coef != 1 {
			allOne = false
		}
	}
	key := ""
	for i, k := range keys {
		if i > 0 {
			key += "|"
		}
		key += k
	}
	comp, err := p.intern(key, specs)
	if err != nil {
		return compiledExpr{}, err
	}
	ce := compiledExpr{comp: comp, key: key, specs: specs, channels: channels}
	if !allOne {
		ce.weights = weights
	}
	return ce, nil
}

// compileAtom type-checks one atom into its aggregation spec and the
// representation dims it contributes.
func (p *Planner) compileAtom(a Atom) (asrs.AggSpec, int, error) {
	var spec asrs.AggSpec
	dims := 1
	switch a.Fn {
	case "dist":
		attr, ok := p.schema.Lookup(a.Attr)
		if !ok {
			return spec, 0, planErrf("unknown attribute %q in %s", a.Attr, a.canon())
		}
		if attr.Kind != asrs.Categorical {
			return spec, 0, planErrf("dist(%s) requires a categorical attribute, %q is numeric", a.Attr, a.Attr)
		}
		spec = asrs.AggSpec{Kind: asrs.Distribution, Attr: a.Attr}
		dims = attr.DomainSize()
	case "sum", "avg":
		attr, ok := p.schema.Lookup(a.Attr)
		if !ok {
			return spec, 0, planErrf("unknown attribute %q in %s", a.Attr, a.canon())
		}
		if attr.Kind != asrs.Numeric {
			return spec, 0, planErrf("%s(%s) requires a numeric attribute, %q is categorical", a.Fn, a.Attr, a.Attr)
		}
		kind := asrs.Sum
		if a.Fn == "avg" {
			kind = asrs.Average
		}
		spec = asrs.AggSpec{Kind: kind, Attr: a.Attr}
	case "count":
		spec = asrs.AggSpec{Kind: asrs.Count, Attr: a.Attr}
	default:
		return spec, 0, planErrf("unknown aggregate %q", a.Fn)
	}
	if a.Where != nil {
		sel, err := p.compileWhere(a)
		if err != nil {
			return spec, 0, err
		}
		spec.Select = sel
	}
	return spec, dims, nil
}

// compileWhere resolves an atom's selection predicate to a selector.
func (p *Planner) compileWhere(a Atom) (asrs.Selector, error) {
	w := a.Where
	idx := p.schema.Index(w.Attr)
	if idx < 0 {
		return nil, planErrf("unknown attribute %q in %s", w.Attr, a.canon())
	}
	attr := p.schema.At(idx)
	if w.IsRange {
		if attr.Kind != asrs.Numeric {
			return nil, planErrf("where %s in […] requires a numeric attribute, %q is categorical", w.Attr, w.Attr)
		}
		if !(w.Lo <= w.Hi) {
			return nil, planErrf("where %s in [%g,%g]: empty range", w.Attr, w.Lo, w.Hi)
		}
		return asrs.SelectNumRange(idx, w.Lo, w.Hi), nil
	}
	if attr.Kind != asrs.Categorical {
		return nil, planErrf("where %s = … requires a categorical attribute, %q is numeric", w.Attr, w.Attr)
	}
	vi := p.schema.ValueIndex(w.Attr, w.Eq)
	if vi < 0 {
		return nil, planErrf("attribute %q has no value %q", w.Attr, w.Eq)
	}
	return asrs.SelectCategory(idx, vi), nil
}

// intern returns the singleton composite for a canonical spec list,
// compiling it on first use.
func (p *Planner) intern(key string, specs []asrs.AggSpec) (*asrs.Composite, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.interned[key]; ok {
		return c, nil
	}
	c, err := asrs.NewComposite(p.schema, specs...)
	if err != nil {
		return nil, planErrf("%v", err)
	}
	p.interned[key] = c
	return c, nil
}
