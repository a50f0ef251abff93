package agg

import (
	"math"
	"slices"
)

// Plan is one query compiled against its composite and the limbs a
// search sums channels in: its Equation 1 bound (Bound), which bounds
// every partial cover a search meets — a grid's dirty cell, a sweep's
// strip, an index's range of cells — and its score (Score), which scores
// every candidate. A search compiles its request's query into one plan
// and hands it to every evaluator, each of which only reads it.
type Plan struct {
	Bound BoundPlan
	Score ScorePlan
}

// Compile compiles the query (norm, target q, weights w; nil w means
// unit weights) over the composite summed in the limbs l into p, reusing
// p's storage (BoundPlan.Compile, ScorePlan.Compile).
func (p *Plan) Compile(c *Composite, l *Limbs, norm Norm, q, w []float64) {
	p.Bound.Compile(c, norm, q, w)
	p.Score.Compile(c, l, norm, q, w)
}

// BoundPlan is one query's Equation 1 bound compiled against its
// composite: for every representation dimension, in order, the channel
// (and min/max slot) its [lo, hi] is formed from, the query's target there
// with the target's floor and ceil, and the dimension's weight. Under
// evaluates the bound of a full/partial split straight from the two
// channel vectors, each dimension's interval and term in one loop, so a
// search compiles the query once rather than re-deriving the target's
// integer neighbours at every cell it bounds.
//
// Under returns, bit for bit, what FinalizeBounds followed by
// LowerBoundIntUnder returns for the same inputs: each dimension's lo and
// hi are FinalizeBounds' operations on the same operands, the gap is
// LowerBoundInt's (intGap on the integer dims of fD and fC, gap on the
// rest), with q − ⌊q⌋ and ⌈q⌉ − q computed once here instead of per call,
// and the terms are summed in the same order under the same early stop. A
// nil weight vector compiles to weights of 1, and g·1 = g exactly. The
// oracle test (TestBoundPlanMatchesOracle) holds it to that pair.
//
// A plan is reused across queries by compiling into it again; Compile
// keeps its storage, so a recycled plan allocates nothing.
type BoundPlan struct {
	terms   []boundTerm
	l2      bool // L2: terms are squared, the sum's square root returned
	neg     bool // some weight is negative: under L1 the sum never stops early
	mmSlots int  // the composite's min/max slots, the length of Under's mmMin and mmMax
}

// boundTerm is one representation dimension of a plan.
type boundTerm struct {
	kind Kind
	ch   int32 // fD, fC: the count channel; fS, fA: the component's first channel
	slot int32 // fA: the min/max slot
	q    float64
	// fD, fC: the target's floor and ceil and its distances to them.
	qf, qc, df, dc float64
	w              float64
}

// Compile compiles the bound of the query (norm, target q, weights w; nil
// w means unit weights) over the composite into p, reusing p's storage.
// len(q) and a non-nil w's length must be c.Dims().
func (p *BoundPlan) Compile(c *Composite, norm Norm, q, w []float64) {
	p.terms = slices.Grow(p.terms[:0], c.dims)
	p.l2 = norm == L2
	p.neg = hasNegative(w)
	p.mmSlots = c.MinMaxSlots()
	for i := range c.specs {
		s := &c.specs[i]
		for d := 0; d < s.dims; d++ {
			dim := s.dimOff + d
			t := boundTerm{kind: s.kind, ch: int32(s.chOff + d), slot: int32(s.mmSlot), q: q[dim], w: 1}
			if w != nil {
				t.w = w[dim]
			}
			if s.kind == Distribution || s.kind == Count {
				t.qf, t.qc = math.Floor(t.q), math.Ceil(t.q)
				t.df, t.dc = t.q-t.qf, t.qc-t.q
			}
			p.terms = append(p.terms, t)
		}
	}
}

// MinMaxSlots returns the number of min/max slots Under reads.
func (p *BoundPlan) MinMaxSlots() int { return p.mmSlots }

// Bound is Under with no threshold: the whole Equation 1 bound.
func (p *BoundPlan) Bound(full, partial, mmMin, mmMax []float64) float64 {
	lb, _ := p.Under(full, partial, mmMin, mmMax, math.Inf(1))
	return lb
}

// Under reports whether the Equation 1 bound of a point whose covering
// set S satisfies full ⊆ S ⊆ full ∪ partial is below bound, and returns
// that bound when it is — FinalizeBounds(full, partial, mmMin, mmMax)
// then LowerBoundIntUnder(…, bound), to the bit. full and partial are
// channel vectors; mmMin and mmMax hold each fA slot's partial minimum
// and maximum (+Inf and −Inf for a slot no partial object reached). As
// with LowerBoundIntUnder, a false ok returns only a lower bound on the
// whole bound.
func (p *BoundPlan) Under(full, partial, mmMin, mmMax []float64, bound float64) (float64, bool) {
	stop := math.Inf(1)
	switch {
	case p.l2:
		stop = squaredStop(bound)
	case !p.neg:
		stop = bound
	}
	var acc float64
	for i := range p.terms {
		t := &p.terms[i]
		var g float64
		switch t.kind {
		case Distribution, Count:
			f := full[t.ch]
			g = t.intGap(f, f+partial[t.ch])
		case Sum:
			f := full[t.ch+sumChSum]
			g = gap(t.q, f+partial[t.ch+sumChNeg], f+partial[t.ch+sumChPos])
		case Average:
			base := average(full[t.ch+avgChSum], full[t.ch+avgChCount])
			// FinalizeBounds' comparisons, not min and max: those order
			// −0 below +0, which these do not.
			lo, hi := base, base
			if partial[t.ch+avgChCount] > 0 {
				if m := mmMin[t.slot]; m < lo {
					lo = m
				}
				if m := mmMax[t.slot]; m > hi {
					hi = m
				}
			}
			g = gap(t.q, lo, hi)
		}
		g *= t.w
		if p.l2 {
			g *= g
		}
		acc += g
		if acc >= stop {
			break
		}
	}
	if p.l2 {
		acc = math.Sqrt(acc)
	}
	return acc, acc < bound
}

// intGap is intGap(t.q, lo, hi) with the target's floor and ceil and its
// distances to them precomputed.
func (t *boundTerm) intGap(lo, hi float64) float64 {
	switch {
	case t.q > hi:
		return t.q - hi
	case t.q < lo:
		return lo - t.q
	}
	best := math.Inf(1)
	if t.qf >= lo {
		best = t.df
	}
	if t.qc <= hi && t.dc < best {
		best = t.dc
	}
	return best
}

// ScorePlan is one query's Equation 1 score compiled against its
// composite and the limbs a search sums channels in: for every
// representation dimension, in order, the limb columns it reads — its
// value channel's limbs, first limb then extra limbs, coarse to fine, and
// an Average's count channel's after them — with the target and the
// weight there. A limb no dimension reads (the negative and positive
// parts of a Sum, which only bound a partial cover) gets no column.
//
// A plan scores a candidate dimension by dimension: the dimension's
// channels are folded as Limbs.Fold adds them, finalized as FinalizeExact
// finalizes them (sum/count, or 0 for an empty Average), written to rep,
// and its term is added — until the sum stops under DistanceUnder's rule
// (squaredStop under L2; none under L1 with a negative weight). So the
// distance and ok bit are, bit for bit, those of the three passes it
// replaces — fold every channel, FinalizeExact, DistanceUnder — and rep
// is the whole representation whenever ok is true. A nil weight vector
// compiles to weights of 1, and x·1 = x exactly. The oracle test
// (TestScorePlanMatchesOracle) holds it to those passes.
//
// A plan is reused across queries and layouts by compiling into it
// again; Compile keeps its storage, so a recycled plan allocates nothing.
type ScorePlan struct {
	terms []scoreTerm
	cols  []scoreCol // column c reads limb cols[c].limb
	colOf []int32    // colOf[k]: the column limb k is read as, -1 for none
	ident bool       // column c is limb c, for every limb
	l2    bool
	neg   bool // some weight is negative: under L1 the sum never stops early
}

// scoreTerm is one representation dimension of a score plan.
type scoreTerm struct {
	avg bool // Average: the value channel over the count channel
	// The value channel's columns are [v, c), an Average's count
	// channel's [c, e); e == c for every other kind.
	v, c, e int32
	q, w    float64
}

// scoreCol is one column of a score plan: the limb it reads and that
// limb's grid 2^-s.
type scoreCol struct {
	limb int32
	inv  float64
}

// Compile compiles the score of the query (norm, target q, weights w; nil
// w means unit weights) over the composite summed in the limbs l into p,
// reusing p's storage. len(q) and a non-nil w's length must be c.Dims(),
// and l must lay out c's channels.
func (p *ScorePlan) Compile(c *Composite, l *Limbs, norm Norm, q, w []float64) {
	eff := l.Eff()
	p.terms, p.cols = slices.Grow(p.terms[:0], c.dims), slices.Grow(p.cols[:0], eff)
	p.l2 = norm == L2
	p.neg = hasNegative(w)
	for i := range c.specs {
		s := &c.specs[i]
		for d := 0; d < s.dims; d++ {
			dim := s.dimOff + d
			t := scoreTerm{avg: s.kind == Average, q: q[dim], w: 1}
			if w != nil {
				t.w = w[dim]
			}
			// Each kind's value channel: fD's per-value counts, fC's count,
			// fS's sum and fA's sum all sit at the component's offset d.
			t.v = int32(len(p.cols))
			p.appendChain(l, s.chOff+d)
			t.c = int32(len(p.cols))
			if t.avg {
				p.appendChain(l, s.chOff+avgChCount)
			}
			t.e = int32(len(p.cols))
			p.terms = append(p.terms, t)
		}
	}
	if cap(p.colOf) < eff {
		p.colOf = make([]int32, eff)
	}
	p.colOf = p.colOf[:eff]
	for k := range p.colOf {
		p.colOf[k] = -1
	}
	p.ident = len(p.cols) == eff
	for col, sc := range p.cols {
		p.colOf[sc.limb] = int32(col)
		p.ident = p.ident && int(sc.limb) == col
	}
}

// appendChain appends a column for each limb of channel ch, coarse to
// fine: the order Fold adds them in.
func (p *ScorePlan) appendChain(l *Limbs, ch int) {
	for k := ch; k >= 0; k = l.next(ch, k) {
		p.cols = append(p.cols, scoreCol{limb: int32(k), inv: l.Inv[k]})
	}
}

// Dims returns the length of the representation the plan writes.
func (p *ScorePlan) Dims() int { return len(p.terms) }

// Columns returns the number of columns the plan reads.
func (p *ScorePlan) Columns() int { return len(p.cols) }

// ColumnOf returns, for every limb, the column the plan reads it as, or
// -1 for a limb no dimension reads. The slice is the plan's, valid until
// it is compiled again.
func (p *ScorePlan) ColumnOf() []int32 { return p.colOf }

// Identity reports whether the columns are the limbs, in limb order —
// as when every channel is one limb and every channel is read.
func (p *ScorePlan) Identity() bool { return p.ident }

// UnderCounts reports whether the distance of a candidate whose column
// totals are tot is below bound, and returns that distance when it is.
// tot[c] is column c's total as an int64 count of its limb's grid — the
// incremental sweep's form: each count times its power of two is the
// exact limb value. rep receives the representation, complete whenever
// ok is true. As with DistanceUnder, a false ok returns only a lower
// bound on the distance.
func (p *ScorePlan) UnderCounts(tot []int64, rep []float64, bound float64) (float64, bool) {
	stop := p.stopAt(bound)
	var acc float64
	for i := range p.terms {
		t := &p.terms[i]
		x := p.foldCounts(tot, t.v, t.c)
		if t.avg {
			x = average(x, p.foldCounts(tot, t.c, t.e))
		}
		rep[i] = x
		if acc += p.term(t, x); acc >= stop {
			return p.distance(acc), false
		}
	}
	d := p.distance(acc)
	return d, d < bound
}

// Under is UnderCounts for a candidate given as a float limb vector v,
// indexed by limb (the classic sweep's accumulator, a grid cell's sums).
func (p *ScorePlan) Under(v, rep []float64, bound float64) (float64, bool) {
	return p.score(v, rep, bound, p.stopAt(bound))
}

// Distance is the whole distance of the candidate whose limb vector is v,
// never stopped early: rep always receives the whole representation.
func (p *ScorePlan) Distance(v, rep []float64) float64 {
	// A NaN stop compares false: the sum runs to its end.
	d, _ := p.score(v, rep, math.Inf(1), math.NaN())
	return d
}

// score is Under with the stop the sum is abandoned at.
func (p *ScorePlan) score(v, rep []float64, bound, stop float64) (float64, bool) {
	var acc float64
	for i := range p.terms {
		t := &p.terms[i]
		x := p.fold(v, t.v, t.c)
		if t.avg {
			x = average(x, p.fold(v, t.c, t.e))
		}
		rep[i] = x
		if acc += p.term(t, x); acc >= stop {
			return p.distance(acc), false
		}
	}
	d := p.distance(acc)
	return d, d < bound
}

// stopAt is the value the running sum may stop at under bound —
// DistanceUnder's rule: bound² (squaredStop) under L2, bound under L1,
// and never (NaN compares false) under L1 with a negative weight, where a
// later term can lower the sum again.
func (p *ScorePlan) stopAt(bound float64) float64 {
	switch {
	case p.l2:
		return squaredStop(bound)
	case p.neg:
		return math.NaN()
	}
	return bound
}

// foldCounts folds columns [a, b) of count totals into one channel value,
// coarse to fine.
func (p *ScorePlan) foldCounts(tot []int64, a, b int32) float64 {
	x := float64(tot[a]) * p.cols[a].inv
	for c := a + 1; c < b; c++ {
		x += float64(tot[c]) * p.cols[c].inv
	}
	return x
}

// fold folds the limbs of columns [a, b) of a limb vector into one
// channel value, coarse to fine.
func (p *ScorePlan) fold(v []float64, a, b int32) float64 {
	x := v[p.cols[a].limb]
	for c := a + 1; c < b; c++ {
		x += v[p.cols[c].limb]
	}
	return x
}

// term is dimension t's term of the distance at representation value x:
// |x − q|·w under L1, ((x − q)·w)² under L2.
func (p *ScorePlan) term(t *scoreTerm, x float64) float64 {
	if p.l2 {
		d := (x - t.q) * t.w
		return d * d
	}
	return math.Abs(x-t.q) * t.w
}

// distance is the distance of a completed (or abandoned) sum of terms.
func (p *ScorePlan) distance(acc float64) float64 {
	if p.l2 {
		return math.Sqrt(acc)
	}
	return acc
}

// average is an Average's value: the mean, 0 for an empty selection.
func average(sum, cnt float64) float64 {
	if cnt > 0 {
		return sum / cnt
	}
	return 0
}
