// Package attr defines the attribute model of the ASRS paper (§3.1): a
// schema of named attributes, categorical and numeric values, spatial
// objects carrying a location plus attribute values, and selection
// functions γ that filter objects before aggregation.
package attr

import (
	"errors"
	"fmt"
	"math"

	"asrs/internal/geom"
)

// Kind distinguishes categorical attributes (finite domain, used by the
// distribution aggregator fD) from numeric attributes (used by fA and fS).
type Kind uint8

const (
	// Categorical attributes have a finite enumerated domain.
	Categorical Kind = iota
	// Numeric attributes carry a float64 value.
	Numeric
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Attribute describes one attribute of the schema. For categorical
// attributes Domain enumerates dom(A); values are stored as indices into
// Domain. For numeric attributes Domain is nil.
type Attribute struct {
	Name   string
	Kind   Kind
	Domain []string // categorical only: dom(A)
}

// DomainSize returns |dom(A)| for categorical attributes and 0 otherwise.
func (a Attribute) DomainSize() int { return len(a.Domain) }

// Schema is an ordered set of attributes. Objects store one value per
// schema attribute, addressed by position.
type Schema struct {
	attrs  []Attribute
	byName map[string]int
}

// NewSchema builds a schema from the given attributes. Attribute names must
// be unique and non-empty; categorical attributes must have a non-empty
// domain.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	s := &Schema{
		attrs:  make([]Attribute, len(attrs)),
		byName: make(map[string]int, len(attrs)),
	}
	copy(s.attrs, attrs)
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("attr: attribute %d has empty name", i)
		}
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("attr: duplicate attribute name %q", a.Name)
		}
		if a.Kind == Categorical && len(a.Domain) == 0 {
			return nil, fmt.Errorf("attr: categorical attribute %q has empty domain", a.Name)
		}
		s.byName[a.Name] = i
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. Intended for tests and
// package-level construction of known-good schemas.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// At returns the i-th attribute.
func (s *Schema) At(i int) Attribute { return s.attrs[i] }

// Index returns the position of the named attribute, or -1 when absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Lookup returns the named attribute and whether it exists.
func (s *Schema) Lookup(name string) (Attribute, bool) {
	if i, ok := s.byName[name]; ok {
		return s.attrs[i], true
	}
	return Attribute{}, false
}

// ValueIndex resolves a categorical value string to its domain index, or -1
// when the attribute is unknown, non-categorical, or the value is not in
// the domain.
func (s *Schema) ValueIndex(name, value string) int {
	a, ok := s.Lookup(name)
	if !ok || a.Kind != Categorical {
		return -1
	}
	for i, v := range a.Domain {
		if v == value {
			return i
		}
	}
	return -1
}

// Value is one attribute value of an object: a domain index for
// categorical attributes, a float64 for numeric ones. The inactive field is
// zero.
type Value struct {
	Cat int     // categorical: index into Attribute.Domain
	Num float64 // numeric: the value
}

// CatValue returns a categorical Value.
func CatValue(i int) Value { return Value{Cat: i} }

// NumValue returns a numeric Value.
func NumValue(v float64) Value { return Value{Num: v} }

// Object is a spatial object: a location plus one value per schema
// attribute (o.ρ and o[Ai] in the paper).
type Object struct {
	Loc    geom.Point
	Values []Value
}

// Dataset couples a schema with its objects. All algorithms in this
// library operate on a Dataset.
type Dataset struct {
	Schema  *Schema
	Objects []Object
}

// ErrInvalid is wrapped by every error Validate returns.
var ErrInvalid = errors.New("attr: invalid dataset")

// The magnitudes a nonzero numeric value may have: [minNumeric,
// maxNumeric). Every value a composite sums is exactly representable in
// the exact limbs of agg.Limbs, whose grids are powers of two 2^-s with
// |s| ≤ 1022:
//
//   - A normal float v with |v| ≥ 2^-970 has its 53-bit significand end
//     at or above 2^-970-52 = 2^-1022: v is a multiple of 2^-1022, so its
//     fraction bits number at most 1022 and every grid a limb takes for it
//     keeps both 2^s and 2^-s normal. Below that bound, the denormals
//     included, a value's bits can reach past 2^-1022.
//   - A channel sums at most one value per object, and int32 master ids
//     address fewer than 2^31 objects, so Σ|v| < 2^31·2^960 = 2^991: every
//     channel mass and every limb sum stays finite, far below 2^1024, and
//     the coarsest grid a limb picks for it, about 2^940, is normal too.
const (
	minNumeric = 0x1p-970
	maxNumeric = 0x1p960
)

// maxLocation bounds a location's coordinates: |x| and |y| are below
// 2^1022, so the bounding box of every admitted corpus has a finite width
// and height, below 2^1023, and so have the grid index's cells, a share
// of the box each (DESIGN.md §5). A corpus spread wider had a box of
// infinite width and an index of infinite cells, which bounded nothing.
const maxLocation = 0x1p1022

// Validate checks every object against the schema (Schema.Check). Its
// errors wrap ErrInvalid and name the object.
func (d *Dataset) Validate() error {
	if d.Schema == nil {
		return fmt.Errorf("%w: nil schema", ErrInvalid)
	}
	for i := range d.Objects {
		if err := d.Schema.Check(&d.Objects[i]); err != nil {
			return fmt.Errorf("%w: object %d: %v", ErrInvalid, i, err)
		}
	}
	return nil
}

// Check reports why o cannot be an object of the schema, naming the
// attribute at fault, or returns nil: o needs exactly one value per
// attribute, a location whose coordinates are of magnitude below 2^1022
// (see maxLocation), categorical values inside their domains and numeric
// values that are 0 or of magnitude in [2^-970, 2^960) (see minNumeric).
func (s *Schema) Check(o *Object) error {
	if len(o.Values) != len(s.attrs) {
		return fmt.Errorf("%d values, schema has %d attributes", len(o.Values), len(s.attrs))
	}
	if !(math.Abs(o.Loc.X) < maxLocation && math.Abs(o.Loc.Y) < maxLocation) {
		return fmt.Errorf("location (%g, %g) is not of magnitude below 2^1022", o.Loc.X, o.Loc.Y)
	}
	for j, a := range s.attrs {
		v := o.Values[j]
		if a.Kind == Categorical {
			if v.Cat < 0 || v.Cat >= len(a.Domain) {
				return fmt.Errorf("attribute %q has categorical index %d outside domain [0,%d)", a.Name, v.Cat, len(a.Domain))
			}
		} else if m := math.Abs(v.Num); m != 0 && !(minNumeric <= m && m < maxNumeric) {
			return fmt.Errorf("attribute %q value %g is neither 0 nor of magnitude in [2^-970, 2^960)", a.Name, v.Num)
		}
	}
	return nil
}

// Points returns the locations of all objects.
func (d *Dataset) Points() []geom.Point {
	pts := make([]geom.Point, len(d.Objects))
	for i := range d.Objects {
		pts[i] = d.Objects[i].Loc
	}
	return pts
}

// Bounds returns the minimum bounding rectangle of all object locations.
func (d *Dataset) Bounds() geom.Rect { return geom.BoundingBox(d.Points()) }

// Selector is the selection function γ of Definition 1: it decides whether
// an object participates in an aggregate. Selectors must be pure functions
// of the object.
type Selector func(o *Object) bool

// SelectAll is γ_all: every object participates.
func SelectAll(*Object) bool { return true }

// SelectCategory returns a selector that keeps objects whose categorical
// attribute at schema position attrIdx equals valueIdx (γ_apt-style
// selectors from Example 2).
func SelectCategory(attrIdx, valueIdx int) Selector {
	return func(o *Object) bool { return o.Values[attrIdx].Cat == valueIdx }
}

// SelectNumRange returns a selector keeping objects whose numeric attribute
// at attrIdx lies in [lo, hi].
func SelectNumRange(attrIdx int, lo, hi float64) Selector {
	return func(o *Object) bool {
		v := o.Values[attrIdx].Num
		return lo <= v && v <= hi
	}
}
