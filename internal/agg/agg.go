// Package agg implements the composite-aggregator framework of the ASRS
// paper (§3.2): the three aggregators fD (distribution), fA (average) and
// fS (sum), composite aggregators, aggregate representations, the weighted
// L1 distance, and — crucially for DS-Search — interval bounds [v̲, v̄] on
// the representation of any point whose covering set is sandwiched between
// a known "full" set and "full ∪ partial" set (Lemmas 4 and 5, Equation 1).
//
// Internally a composite aggregator is compiled to a flat channel layout:
// every object contributes a small sparse set of (channel, delta) pairs,
// which makes accumulation, removal, difference-array grids, and summary
// tables all share one code path.
package agg

import (
	"fmt"
	"math"

	"asrs/internal/attr"
)

// Kind identifies one of the paper's three aggregator families.
type Kind uint8

const (
	// Distribution is fD: per-value counts over dom(A) (categorical).
	Distribution Kind = iota
	// Average is fA: mean of a numeric attribute (0 for empty selections).
	Average
	// Sum is fS: sum of a numeric attribute.
	Sum
	// Count is fC: the number of selected objects, independent of any
	// attribute (an extension beyond the paper's three aggregators; it is
	// fD collapsed to one dimension, or fS of the constant 1). Spec.Attr
	// may be empty.
	Count
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Distribution:
		return "fD"
	case Average:
		return "fA"
	case Sum:
		return "fS"
	case Count:
		return "fC"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Spec is one (f, A, γ) triple of Definition 2. Attr names a schema
// attribute; Select is the selection function γ (nil means γ_all).
type Spec struct {
	Kind   Kind
	Attr   string
	Select attr.Selector
}

// compiled is a Spec resolved against a schema with its channel/dimension
// layout fixed.
type compiled struct {
	kind    Kind
	attrIdx int
	sel     attr.Selector
	dimOff  int // offset into the representation vector
	dims    int
	chOff   int // offset into the channel vector
	chans   int
	mmSlot  int // Average only: index of its min/max slot, else -1
}

// Channel layout per kind. Sum uses three channels so that partial-cover
// bounds can separate positive and negative contributions; Average uses
// (sum, count).
const (
	sumChSum = 0
	sumChPos = 1
	sumChNeg = 2

	avgChSum   = 0
	avgChCount = 1
)

// Composite is a compiled composite aggregator F = ((f1,A1,γ1),…).
// It is immutable after construction and safe for concurrent use as long
// as the selection functions are.
type Composite struct {
	schema  *attr.Schema
	specs   []compiled
	dims    int
	chans   int
	mmSlots int
}

// New compiles the given specs against the schema. It validates that fD is
// applied to categorical attributes and fA/fS to numeric ones.
func New(schema *attr.Schema, specs ...Spec) (*Composite, error) {
	if schema == nil {
		return nil, fmt.Errorf("agg: nil schema")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("agg: composite aggregator needs at least one (f, A, γ) component")
	}
	c := &Composite{schema: schema}
	for i, s := range specs {
		ai := schema.Index(s.Attr)
		if ai < 0 && !(s.Kind == Count && s.Attr == "") {
			return nil, fmt.Errorf("agg: component %d references unknown attribute %q", i, s.Attr)
		}
		var a attr.Attribute
		if ai >= 0 {
			a = schema.At(ai)
		}
		cs := compiled{kind: s.Kind, attrIdx: ai, sel: s.Select, dimOff: c.dims, chOff: c.chans, mmSlot: -1}
		if cs.sel == nil {
			cs.sel = attr.SelectAll
		}
		switch s.Kind {
		case Distribution:
			if a.Kind != attr.Categorical {
				return nil, fmt.Errorf("agg: component %d: fD requires a categorical attribute, %q is %s", i, s.Attr, a.Kind)
			}
			cs.dims = a.DomainSize()
			cs.chans = a.DomainSize()
		case Average:
			if a.Kind != attr.Numeric {
				return nil, fmt.Errorf("agg: component %d: fA requires a numeric attribute, %q is %s", i, s.Attr, a.Kind)
			}
			cs.dims = 1
			cs.chans = 2
			cs.mmSlot = c.mmSlots
			c.mmSlots++
		case Sum:
			if a.Kind != attr.Numeric {
				return nil, fmt.Errorf("agg: component %d: fS requires a numeric attribute, %q is %s", i, s.Attr, a.Kind)
			}
			cs.dims = 1
			cs.chans = 3
		case Count:
			cs.dims = 1
			cs.chans = 1
		default:
			return nil, fmt.Errorf("agg: component %d has unknown aggregator kind %d", i, s.Kind)
		}
		c.dims += cs.dims
		c.chans += cs.chans
		c.specs = append(c.specs, cs)
	}
	return c, nil
}

// MustNew is like New but panics on error.
func MustNew(schema *attr.Schema, specs ...Spec) *Composite {
	c, err := New(schema, specs...)
	if err != nil {
		panic(err)
	}
	return c
}

// Dims returns the dimensionality of the aggregate representation F(r).
func (c *Composite) Dims() int { return c.dims }

// Channels returns the width of the internal channel vector.
func (c *Composite) Channels() int { return c.chans }

// MinMaxSlots returns the number of min/max tracking slots (one per fA
// component); dirty-cell bounds for averages need the min and max partial
// value.
func (c *Composite) MinMaxSlots() int { return c.mmSlots }

// Schema returns the schema the composite was compiled against.
func (c *Composite) Schema() *attr.Schema { return c.schema }

// Components returns the number of (f, A, γ) components.
func (c *Composite) Components() int { return len(c.specs) }

// Contrib is one sparse channel contribution of an object.
type Contrib struct {
	Ch int
	V  float64
}

// MMContrib is a min/max-slot contribution (fA components only).
type MMContrib struct {
	Slot int
	V    float64
}

// AppendContribs appends o's channel contributions to dst and returns it.
// Objects rejected by a component's selector contribute nothing to that
// component.
func (c *Composite) AppendContribs(o *attr.Object, dst []Contrib) []Contrib {
	for i := range c.specs {
		s := &c.specs[i]
		if !s.sel(o) {
			continue
		}
		switch s.kind {
		case Distribution:
			dst = append(dst, Contrib{Ch: s.chOff + o.Values[s.attrIdx].Cat, V: 1})
		case Average:
			v := o.Values[s.attrIdx].Num
			dst = append(dst,
				Contrib{Ch: s.chOff + avgChSum, V: v},
				Contrib{Ch: s.chOff + avgChCount, V: 1})
		case Sum:
			v := o.Values[s.attrIdx].Num
			dst = append(dst, Contrib{Ch: s.chOff + sumChSum, V: v})
			if v > 0 {
				dst = append(dst, Contrib{Ch: s.chOff + sumChPos, V: v})
			} else if v < 0 {
				dst = append(dst, Contrib{Ch: s.chOff + sumChNeg, V: v})
			}
		case Count:
			dst = append(dst, Contrib{Ch: s.chOff, V: 1})
		}
	}
	return dst
}

// AppendMM appends o's min/max-slot contributions (one per fA component
// whose selector accepts o) to dst and returns it.
func (c *Composite) AppendMM(o *attr.Object, dst []MMContrib) []MMContrib {
	for i := range c.specs {
		s := &c.specs[i]
		if s.mmSlot < 0 || !s.sel(o) {
			continue
		}
		dst = append(dst, MMContrib{Slot: s.mmSlot, V: o.Values[s.attrIdx].Num})
	}
	return dst
}

// FinalizeExact converts a channel vector of objects known to be exactly
// the covering set into the representation vector out. len(ch) must be
// Channels() and len(out) must be Dims().
func (c *Composite) FinalizeExact(ch []float64, out []float64) {
	for i := range c.specs {
		s := &c.specs[i]
		switch s.kind {
		case Distribution:
			copy(out[s.dimOff:s.dimOff+s.dims], ch[s.chOff:s.chOff+s.chans])
		case Average:
			sum, cnt := ch[s.chOff+avgChSum], ch[s.chOff+avgChCount]
			if cnt > 0 {
				out[s.dimOff] = sum / cnt
			} else {
				out[s.dimOff] = 0
			}
		case Sum:
			out[s.dimOff] = ch[s.chOff+sumChSum]
		case Count:
			out[s.dimOff] = ch[s.chOff]
		}
	}
}

// FinalizeBounds computes representation bounds lo/hi for a point whose
// covering set S satisfies full ⊆ S ⊆ full ∪ partial, given the channel
// vectors of the full and partial sets and the min/max partial values for
// each fA slot (mmMin[i] = +Inf, mmMax[i] = -Inf when the slot saw no
// partial object). This generalizes Lemma 5 to all three aggregators.
// The searches form the same intervals inside a compiled BoundPlan; this
// is kept as the plan's oracle.
func (c *Composite) FinalizeBounds(full, partial, mmMin, mmMax []float64, lo, hi []float64) {
	for i := range c.specs {
		s := &c.specs[i]
		switch s.kind {
		case Distribution:
			for d := 0; d < s.dims; d++ {
				f := full[s.chOff+d]
				lo[s.dimOff+d] = f
				hi[s.dimOff+d] = f + partial[s.chOff+d]
			}
		case Average:
			sum, cnt := full[s.chOff+avgChSum], full[s.chOff+avgChCount]
			pcnt := partial[s.chOff+avgChCount]
			var base float64
			if cnt > 0 {
				base = sum / cnt
			} else {
				base = 0 // empty selection is representable, F value 0
			}
			l, h := base, base
			if pcnt > 0 {
				m, M := mmMin[s.mmSlot], mmMax[s.mmSlot]
				// Adding any sub-multiset of values in [m, M] to a multiset
				// with mean `base` keeps the mean within [min(base,m),
				// max(base,M)]; with an empty full set the mean is either 0
				// (nothing added) or within [m, M].
				if m < l {
					l = m
				}
				if M > h {
					h = M
				}
			}
			lo[s.dimOff], hi[s.dimOff] = l, h
		case Sum:
			f := full[s.chOff+sumChSum]
			lo[s.dimOff] = f + partial[s.chOff+sumChNeg]
			hi[s.dimOff] = f + partial[s.chOff+sumChPos]
		case Count:
			f := full[s.chOff]
			lo[s.dimOff] = f
			hi[s.dimOff] = f + partial[s.chOff]
		}
	}
}

// Representation computes F(r) directly over a dataset: the aggregate
// representation of the set of objects strictly inside region r (open
// containment, consistent with the covers relation of Lemma 1). The
// channels are summed exactly (ExactSum), as every search sums a covering
// set, so a search for the representation of a region finds that region
// at distance 0. Values that do not certify, which no search accepts
// (attr.Dataset.Validate), are summed in float in dataset order instead.
func (c *Composite) Representation(ds *attr.Dataset, r Region) []float64 {
	var cbs []Contrib
	for i := range ds.Objects {
		o := &ds.Objects[i]
		if r.Contains(o.Loc.X, o.Loc.Y) {
			cbs = c.AppendContribs(o, cbs)
		}
	}
	sums, err := ExactSum(c.Channels(), cbs)
	if err != nil {
		sums = make([]float64, c.Channels())
		for _, cb := range cbs {
			sums[cb.Ch] += cb.V
		}
	}
	out := make([]float64, c.dims)
	c.FinalizeExact(sums, out)
	return out
}

// Region abstracts the membership test used by Representation so that both
// open rectangles and custom query shapes can be aggregated. See
// OpenRect.
type Region interface {
	Contains(x, y float64) bool
}

// OpenRect is the open-rectangle Region: points strictly inside count.
type OpenRect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains implements Region.
func (r OpenRect) Contains(x, y float64) bool {
	return r.MinX < x && x < r.MaxX && r.MinY < y && y < r.MaxY
}

// Fingerprint returns a stable structural description of the composite:
// one "kind:attr:dims" token per component. Persistence formats embed it
// to detect composite/index mismatches at load time. Selection functions
// are opaque and cannot be fingerprinted — loading an index built with a
// different γ for the same structure is undetectable (documented in the
// persistence API).
func (c *Composite) Fingerprint() string {
	var sb []byte
	for i := range c.specs {
		s := &c.specs[i]
		if i > 0 {
			sb = append(sb, ';')
		}
		name := ""
		if s.attrIdx >= 0 {
			name = c.schema.At(s.attrIdx).Name
		}
		sb = append(sb, fmt.Sprintf("%s:%s:%d", s.kind, name, s.dims)...)
	}
	return string(sb)
}

// IntegerDims reports which representation dimensions only take integer
// values (the count dimensions of fD and fC components), the isInt of
// LowerBoundInt; a BoundPlan reads the same from the kinds. Lower-bound
// computations exploit this: the nearest *achievable* value to the query
// inside [lo, hi] is an integer, which removes the fractional slack of
// the continuous Equation 1 gap and lets cells at the optimum's boundary
// be pruned at lb == d_opt instead of splitting on.
func (c *Composite) IntegerDims() []bool {
	out := make([]bool, c.dims)
	for i := range c.specs {
		s := &c.specs[i]
		if s.kind == Distribution || s.kind == Count {
			for d := 0; d < s.dims; d++ {
				out[s.dimOff+d] = true
			}
		}
	}
	return out
}

// InfMM returns freshly initialized (mmMin, mmMax) slot vectors: +Inf/-Inf
// identities for min/max.
func (c *Composite) InfMM() (mmMin, mmMax []float64) {
	mmMin = make([]float64, c.mmSlots)
	mmMax = make([]float64, c.mmSlots)
	for i := range mmMin {
		mmMin[i] = math.Inf(1)
		mmMax[i] = math.Inf(-1)
	}
	return mmMin, mmMax
}
