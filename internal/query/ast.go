// Package query is the declarative frontend over the exact search
// primitives: a compact text language (DESIGN.md §12) parsed into an
// AST, type-checked and canonicalized by a planner into an executable
// plan over interned composites, and run by a lazy round-at-a-time
// executor that streams results over both asrs.Engine and the shard
// router. The standing obligation: every compiled plan is
// Float64bits-identical to the hand-wired struct request it denotes.
package query

import (
	"sort"
	"strconv"
	"strings"
)

// AST is the parsed form of one query. Field order mirrors the
// canonical rendering (see Canonical); zero values mean "clause
// absent".
type AST struct {
	// Explain asks for the plan instead of the answer.
	Explain bool
	// Maximize is the MaxRS aggregate form; nil selects the find form.
	Maximize *MaximizeClause
	// TopK is the number of answer regions (0 = 1).
	TopK int
	// A, B are the explicit answer size (0 = derive from the single
	// similar clause's example region).
	A, B float64
	// Similar are the similarity predicates; at least one is required
	// for the find form.
	Similar []SimilarClause
	// Dissimilar are the streamed dissimilarity post-filters.
	Dissimilar []DissimilarClause
	// DiverseBy is the representation-space diversity radius (0 = off).
	DiverseBy float64
	// ExcludeExample excludes every similar clause's example region.
	ExcludeExample bool
	// Exclude lists explicit exclusion rectangles.
	Exclude []Rect4
	// Within restricts answers to the closed extent.
	Within *Rect4
	// Norm is "", "l1" or "l2".
	Norm string
	// Delta selects the (1+δ)-approximate search (0 = exact).
	Delta float64
	// Scan caps the candidate rounds a filtered stream may spend
	// (0 = planner default).
	Scan int
	// TimeoutMS bounds the whole query (0 = server default).
	TimeoutMS int64
}

// MaximizeClause is the MaxRS form: maximize count()|sum(attr) size a x b.
type MaximizeClause struct {
	Fn   string // "count" or "sum"
	Attr string // sum only
	A, B float64
}

// SimilarClause is one "similar to <place> under <expr>" predicate.
type SimilarClause struct {
	Place Place
	Expr  Expr
}

// DissimilarClause is one "dissimilar to <place> under <expr> by <d>"
// post-filter: answers must sit at weighted distance ≥ By from the
// place's representation under the clause's composite.
type DissimilarClause struct {
	Place Place
	Expr  Expr
	By    float64
}

// Place is a query anchor: an example region or a literal target vector.
// Exactly one is set.
type Place struct {
	Region *Rect4
	Target []float64
}

// Rect4 is a parsed rectangle literal.
type Rect4 struct {
	MinX, MinY, MaxX, MaxY float64
}

// Expr is a weighted sum of channel atoms.
type Expr struct {
	Terms []Term
}

// Term is one coefficient·atom summand.
type Term struct {
	Coef float64 // 1 when unwritten
	Atom Atom
}

// Atom is one channel generator: dist(attr), sum(attr), avg(attr),
// count(), or a reference to a registered composite (@name).
type Atom struct {
	Fn    string // "dist", "sum", "avg", "count", "@"
	Attr  string // attribute name; composite name for "@"
	Where *Where
}

// Where is an atom's selection predicate.
type Where struct {
	Attr    string
	Eq      string // categorical equality value (IsRange false)
	IsRange bool
	Lo, Hi  float64
}

// num renders a float in the canonical shortest round-trip form.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (r Rect4) canon() string {
	return "region(" + num(r.MinX) + "," + num(r.MinY) + "," + num(r.MaxX) + "," + num(r.MaxY) + ")"
}

func (p Place) canon() string {
	if p.Region != nil {
		return p.Region.canon()
	}
	parts := make([]string, len(p.Target))
	for i, v := range p.Target {
		parts[i] = num(v)
	}
	return "target(" + strings.Join(parts, ",") + ")"
}

func (w *Where) canon() string {
	if w == nil {
		return ""
	}
	if w.IsRange {
		return "where " + w.Attr + " in [" + num(w.Lo) + "," + num(w.Hi) + "]"
	}
	return "where " + w.Attr + " = " + quoteValue(w.Eq)
}

// quoteValue renders a categorical value with the lexer's own escape
// scheme (backslash before backslash or quote, everything else raw), so
// canonical text re-lexes to the identical value.
func quoteValue(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' || s[i] == '"' {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	b.WriteByte('"')
	return b.String()
}

func (a Atom) canon() string {
	if a.Fn == "@" {
		return "@" + a.Attr
	}
	var inner string
	switch a.Fn {
	case "count":
		inner = ""
		if a.Where != nil {
			inner = a.Where.canon()
		}
	default:
		inner = a.Attr
		if a.Where != nil {
			inner += " " + a.Where.canon()
		}
	}
	return a.Fn + "(" + inner + ")"
}

func (t Term) canon() string {
	if t.Coef == 1 {
		return t.Atom.canon()
	}
	return num(t.Coef) + "*" + t.Atom.canon()
}

// canon renders the expression with its terms in canonical order. It
// does NOT merge duplicate atoms by summing coefficients: per-dimension
// weights apply before the norm, so w=[1,1] over a doubled channel and
// w=[2] over a single one disagree under L2.
func (e Expr) canon() string {
	terms := append([]Term(nil), e.Terms...)
	sort.SliceStable(terms, func(i, j int) bool {
		ai, aj := terms[i].Atom.canon(), terms[j].Atom.canon()
		if ai != aj {
			return ai < aj
		}
		return terms[i].Coef < terms[j].Coef
	})
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = t.canon()
	}
	return strings.Join(parts, " + ")
}

func (c SimilarClause) canon() string {
	return "similar to " + c.Place.canon() + " under " + c.Expr.canon()
}

func (c DissimilarClause) canon() string {
	return "dissimilar to " + c.Place.canon() + " under " + c.Expr.canon() + " by " + num(c.By)
}

// Canonical renders the AST in the canonical text form: clause lists
// sorted, numbers in shortest round-trip notation, defaulted clauses
// omitted. Parsing the canonical text yields an AST whose Canonical is
// byte-identical (the fixed-point property the tests assert), and
// semantically identical queries written in different orders render
// identically — which is what lets them compile to byte-identical
// engine requests and join one another's searches in flight.
func (q *AST) Canonical() string {
	var b strings.Builder
	if q.Explain {
		b.WriteString("explain ")
	}
	if q.Maximize != nil {
		m := q.Maximize
		b.WriteString("maximize ")
		if m.Fn == "sum" {
			b.WriteString("sum(" + m.Attr + ")")
		} else {
			b.WriteString("count()")
		}
		b.WriteString(" size " + num(m.A) + " x " + num(m.B))
		if q.TimeoutMS > 0 {
			b.WriteString(" timeout " + strconv.FormatInt(q.TimeoutMS, 10))
		}
		return b.String()
	}
	b.WriteString("find")
	if q.TopK > 1 {
		b.WriteString(" top " + strconv.Itoa(q.TopK))
	}
	if q.A != 0 || q.B != 0 {
		b.WriteString(" size " + num(q.A) + " x " + num(q.B))
	}
	sims := make([]string, len(q.Similar))
	for i, c := range q.Similar {
		sims[i] = c.canon()
	}
	sort.Strings(sims)
	for _, s := range sims {
		b.WriteString(" " + s)
	}
	diss := make([]string, len(q.Dissimilar))
	for i, c := range q.Dissimilar {
		diss[i] = c.canon()
	}
	sort.Strings(diss)
	for _, s := range diss {
		b.WriteString(" and " + s)
	}
	if q.DiverseBy > 0 {
		b.WriteString(" diverse by " + num(q.DiverseBy))
	}
	if q.ExcludeExample {
		b.WriteString(" excluding example")
	}
	excl := append([]Rect4(nil), q.Exclude...)
	sort.Slice(excl, func(i, j int) bool {
		a, c := excl[i], excl[j]
		if a.MinX != c.MinX {
			return a.MinX < c.MinX
		}
		if a.MinY != c.MinY {
			return a.MinY < c.MinY
		}
		if a.MaxX != c.MaxX {
			return a.MaxX < c.MaxX
		}
		return a.MaxY < c.MaxY
	})
	for _, r := range excl {
		b.WriteString(" excluding " + r.canon())
	}
	if q.Within != nil {
		b.WriteString(" within " + q.Within.canon())
	}
	if q.Norm == "l2" {
		b.WriteString(" norm l2")
	}
	if q.Delta > 0 {
		b.WriteString(" delta " + num(q.Delta))
	}
	if q.Scan > 0 {
		b.WriteString(" scan " + strconv.Itoa(q.Scan))
	}
	if q.TimeoutMS > 0 {
		b.WriteString(" timeout " + strconv.FormatInt(q.TimeoutMS, 10))
	}
	return b.String()
}
