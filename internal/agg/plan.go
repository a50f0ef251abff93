package agg

import "math"

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
	terms []boundTerm
	l2    bool // L2: terms are squared, the sum's square root returned
	neg   bool // some weight is negative: under L1 the sum never stops early
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
	p.terms = p.terms[:0]
	p.l2 = norm == L2
	p.neg = hasNegative(w)
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
			var base float64
			if cnt := full[t.ch+avgChCount]; cnt > 0 {
				base = full[t.ch+avgChSum] / cnt
			}
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
