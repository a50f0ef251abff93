package query

import (
	"fmt"
	"strconv"
	"strings"

	"asrs"
)

// Parser bounds: a query is typed by a human or templated by a client,
// never corpus-sized. The caps keep arbitrary input (fuzzing, abuse)
// from allocating unbounded ASTs before the planner ever sees them.
const (
	maxTopK       = asrs.MaxTopK // the bound the daemon's top_k field shares
	maxScan       = 1 << 20
	maxTargetDims = 4096
	maxTerms      = 256
	maxClauses    = 256
	maxExcludes   = 4096
)

// Parse parses one query in the language of DESIGN.md §12. It returns
// the AST or a *ParseError; it never panics on any input.
func Parse(src string) (*AST, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	ast, err := p.query()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected %s after the query", p.describe())
	}
	return ast, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token { return p.toks[p.i] }

func (p *parser) describe() string {
	t := p.cur()
	switch t.kind {
	case tokEOF:
		return "end of query"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{p.cur().pos, fmt.Sprintf(format, args...)}
}

// isKw reports whether the current token is the given keyword
// (case-insensitive identifier match).
func (p *parser) isKw(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKw(kw string) bool {
	if p.isKw(kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %q, got %s", kw, p.describe())
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	t := p.cur()
	if t.kind == tokPunct && t.text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q, got %s", s, p.describe())
	}
	return nil
}

func (p *parser) identName(what string) (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected %s, got %s", what, p.describe())
	}
	p.i++
	return t.text, nil
}

// number parses a (possibly negative) finite float literal.
func (p *parser) number() (float64, error) {
	neg := false
	if p.cur().kind == tokPunct && p.cur().text == "-" {
		neg = true
		p.i++
	}
	t := p.cur()
	if t.kind != tokNumber {
		return 0, p.errf("expected a number, got %s", p.describe())
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, &ParseError{t.pos, fmt.Sprintf("invalid number %q", t.text)}
	}
	p.i++
	if neg {
		v = -v
	}
	return v, nil
}

// natural parses a non-negative integer literal bounded by max.
func (p *parser) natural(what string, max int) (int, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, p.errf("expected %s, got %s", what, p.describe())
	}
	v, err := strconv.Atoi(t.text)
	if err != nil || v < 0 {
		return 0, &ParseError{t.pos, fmt.Sprintf("invalid %s %q", what, t.text)}
	}
	if v > max {
		return 0, &ParseError{t.pos, fmt.Sprintf("%s %d exceeds the bound %d", what, v, max)}
	}
	p.i++
	return v, nil
}

func (p *parser) query() (*AST, error) {
	ast := &AST{}
	if p.acceptKw("explain") {
		ast.Explain = true
	}
	switch {
	case p.acceptKw("find"):
		if err := p.find(ast); err != nil {
			return nil, err
		}
	case p.acceptKw("maximize"):
		if err := p.maximize(ast); err != nil {
			return nil, err
		}
	default:
		return nil, p.errf("expected \"find\" or \"maximize\", got %s", p.describe())
	}
	return ast, nil
}

func (p *parser) maximize(ast *AST) error {
	m := &MaximizeClause{}
	switch {
	case p.acceptKw("count"):
		if err := p.expectPunct("("); err != nil {
			return err
		}
		if err := p.expectPunct(")"); err != nil {
			return err
		}
		m.Fn = "count"
	case p.acceptKw("sum"):
		if err := p.expectPunct("("); err != nil {
			return err
		}
		name, err := p.identName("an attribute name")
		if err != nil {
			return err
		}
		if err := p.expectPunct(")"); err != nil {
			return err
		}
		m.Fn, m.Attr = "sum", name
	default:
		return p.errf("maximize supports count() or sum(attr), got %s", p.describe())
	}
	if err := p.expectKw("size"); err != nil {
		return err
	}
	var err error
	if m.A, m.B, err = p.sizePair(); err != nil {
		return err
	}
	if p.acceptKw("timeout") {
		ms, err := p.natural("timeout", 1<<30)
		if err != nil {
			return err
		}
		ast.TimeoutMS = int64(ms)
	}
	ast.Maximize = m
	return nil
}

func (p *parser) sizePair() (a, b float64, err error) {
	if a, err = p.number(); err != nil {
		return 0, 0, err
	}
	if err = p.expectKw("x"); err != nil {
		return 0, 0, err
	}
	if b, err = p.number(); err != nil {
		return 0, 0, err
	}
	return a, b, nil
}

// find parses the find form: a freeform bag of clauses, each introduced
// by its keyword, with "and" as an optional separator. Scalar clauses
// (top, size, norm, …) may appear once.
func (p *parser) find(ast *AST) error {
	seen := map[string]bool{}
	once := func(what string) error {
		if seen[what] {
			return p.errf("duplicate %q clause", what)
		}
		seen[what] = true
		return nil
	}
	for p.cur().kind != tokEOF {
		hadAnd := p.acceptKw("and")
		switch {
		case p.acceptKw("top"):
			if err := once("top"); err != nil {
				return err
			}
			k, err := p.natural("top-k", maxTopK)
			if err != nil {
				return err
			}
			ast.TopK = k
		case p.acceptKw("size"):
			if err := once("size"); err != nil {
				return err
			}
			var err error
			if ast.A, ast.B, err = p.sizePair(); err != nil {
				return err
			}
		case p.acceptKw("similar"):
			if len(ast.Similar)+len(ast.Dissimilar) >= maxClauses {
				return p.errf("too many predicate clauses (max %d)", maxClauses)
			}
			c, err := p.similarBody()
			if err != nil {
				return err
			}
			ast.Similar = append(ast.Similar, c)
		case p.acceptKw("dissimilar"):
			if len(ast.Similar)+len(ast.Dissimilar) >= maxClauses {
				return p.errf("too many predicate clauses (max %d)", maxClauses)
			}
			c, err := p.similarBody()
			if err != nil {
				return err
			}
			if err := p.expectKw("by"); err != nil {
				return err
			}
			by, err := p.number()
			if err != nil {
				return err
			}
			ast.Dissimilar = append(ast.Dissimilar, DissimilarClause{Place: c.Place, Expr: c.Expr, By: by})
		case p.acceptKw("diverse"):
			if err := once("diverse"); err != nil {
				return err
			}
			if err := p.expectKw("by"); err != nil {
				return err
			}
			d, err := p.number()
			if err != nil {
				return err
			}
			ast.DiverseBy = d
		case p.acceptKw("excluding"):
			if p.acceptKw("example") {
				ast.ExcludeExample = true
				break
			}
			if len(ast.Exclude) >= maxExcludes {
				return p.errf("too many exclusions (max %d)", maxExcludes)
			}
			r, err := p.rect()
			if err != nil {
				return err
			}
			ast.Exclude = append(ast.Exclude, r)
		case p.acceptKw("within"):
			if err := once("within"); err != nil {
				return err
			}
			r, err := p.rect()
			if err != nil {
				return err
			}
			ast.Within = &r
		case p.acceptKw("norm"):
			if err := once("norm"); err != nil {
				return err
			}
			switch {
			case p.acceptKw("l1"):
				ast.Norm = "l1"
			case p.acceptKw("l2"):
				ast.Norm = "l2"
			default:
				return p.errf("norm must be l1 or l2, got %s", p.describe())
			}
		case p.acceptKw("delta"):
			if err := once("delta"); err != nil {
				return err
			}
			d, err := p.number()
			if err != nil {
				return err
			}
			ast.Delta = d
		case p.acceptKw("scan"):
			if err := once("scan"); err != nil {
				return err
			}
			n, err := p.natural("scan cap", maxScan)
			if err != nil {
				return err
			}
			ast.Scan = n
		case p.acceptKw("timeout"):
			if err := once("timeout"); err != nil {
				return err
			}
			ms, err := p.natural("timeout", 1<<30)
			if err != nil {
				return err
			}
			ast.TimeoutMS = int64(ms)
		default:
			if hadAnd {
				return p.errf("expected a clause after \"and\", got %s", p.describe())
			}
			return p.errf("expected a clause, got %s", p.describe())
		}
	}
	if len(ast.Similar) == 0 {
		return p.errf("find requires at least one \"similar to\" clause")
	}
	return nil
}

// similarBody parses "to <place> under <expr>" (shared by similar and
// dissimilar clauses).
func (p *parser) similarBody() (SimilarClause, error) {
	if err := p.expectKw("to"); err != nil {
		return SimilarClause{}, err
	}
	place, err := p.place()
	if err != nil {
		return SimilarClause{}, err
	}
	if err := p.expectKw("under"); err != nil {
		return SimilarClause{}, err
	}
	expr, err := p.expr()
	if err != nil {
		return SimilarClause{}, err
	}
	return SimilarClause{Place: place, Expr: expr}, nil
}

func (p *parser) place() (Place, error) {
	if p.isKw("region") {
		r, err := p.rect()
		if err != nil {
			return Place{}, err
		}
		return Place{Region: &r}, nil
	}
	if p.acceptKw("target") {
		if err := p.expectPunct("("); err != nil {
			return Place{}, err
		}
		var vec []float64
		for {
			v, err := p.number()
			if err != nil {
				return Place{}, err
			}
			vec = append(vec, v)
			if len(vec) > maxTargetDims {
				return Place{}, p.errf("target vector exceeds %d dims", maxTargetDims)
			}
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return Place{}, err
		}
		return Place{Target: vec}, nil
	}
	return Place{}, p.errf("expected region(…) or target(…), got %s", p.describe())
}

func (p *parser) rect() (Rect4, error) {
	if err := p.expectKw("region"); err != nil {
		return Rect4{}, err
	}
	if err := p.expectPunct("("); err != nil {
		return Rect4{}, err
	}
	var vals [4]float64
	for i := 0; i < 4; i++ {
		if i > 0 {
			if err := p.expectPunct(","); err != nil {
				return Rect4{}, err
			}
		}
		v, err := p.number()
		if err != nil {
			return Rect4{}, err
		}
		vals[i] = v
	}
	if err := p.expectPunct(")"); err != nil {
		return Rect4{}, err
	}
	return Rect4{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}, nil
}

func (p *parser) expr() (Expr, error) {
	var e Expr
	for {
		t, err := p.term()
		if err != nil {
			return Expr{}, err
		}
		e.Terms = append(e.Terms, t)
		if len(e.Terms) > maxTerms {
			return Expr{}, p.errf("expression exceeds %d terms", maxTerms)
		}
		if !p.acceptPunct("+") {
			return e, nil
		}
	}
}

func (p *parser) term() (Term, error) {
	t := Term{Coef: 1}
	cur := p.cur()
	if cur.kind == tokNumber || (cur.kind == tokPunct && cur.text == "-") {
		v, err := p.number()
		if err != nil {
			return Term{}, err
		}
		if err := p.expectPunct("*"); err != nil {
			return Term{}, err
		}
		t.Coef = v
	}
	a, err := p.atom()
	if err != nil {
		return Term{}, err
	}
	t.Atom = a
	return t, nil
}

func (p *parser) atom() (Atom, error) {
	if p.acceptPunct("@") {
		name, err := p.identName("a composite name")
		if err != nil {
			return Atom{}, err
		}
		return Atom{Fn: "@", Attr: name}, nil
	}
	var fn string
	switch {
	case p.acceptKw("dist"):
		fn = "dist"
	case p.acceptKw("sum"):
		fn = "sum"
	case p.acceptKw("avg"):
		fn = "avg"
	case p.acceptKw("count"):
		fn = "count"
	default:
		return Atom{}, p.errf("expected dist(…), sum(…), avg(…), count(…) or @name, got %s", p.describe())
	}
	if err := p.expectPunct("("); err != nil {
		return Atom{}, err
	}
	a := Atom{Fn: fn}
	if fn != "count" {
		name, err := p.identName("an attribute name")
		if err != nil {
			return Atom{}, err
		}
		a.Attr = name
	}
	if p.isKw("where") {
		w, err := p.where()
		if err != nil {
			return Atom{}, err
		}
		a.Where = &w
	}
	if err := p.expectPunct(")"); err != nil {
		return Atom{}, err
	}
	return a, nil
}

func (p *parser) where() (Where, error) {
	if err := p.expectKw("where"); err != nil {
		return Where{}, err
	}
	name, err := p.identName("an attribute name")
	if err != nil {
		return Where{}, err
	}
	w := Where{Attr: name}
	switch {
	case p.acceptPunct("="):
		t := p.cur()
		switch t.kind {
		case tokString, tokIdent:
			w.Eq = t.text
			p.i++
		default:
			return Where{}, p.errf("expected a categorical value, got %s", p.describe())
		}
	case p.acceptKw("in"):
		if err := p.expectPunct("["); err != nil {
			return Where{}, err
		}
		if w.Lo, err = p.number(); err != nil {
			return Where{}, err
		}
		if err := p.expectPunct(","); err != nil {
			return Where{}, err
		}
		if w.Hi, err = p.number(); err != nil {
			return Where{}, err
		}
		if err := p.expectPunct("]"); err != nil {
			return Where{}, err
		}
		w.IsRange = true
	default:
		return Where{}, p.errf("expected \"=\" or \"in\" after the where attribute, got %s", p.describe())
	}
	return w, nil
}
