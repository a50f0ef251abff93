package query_test

import (
	"errors"
	"testing"

	"asrs"
	"asrs/internal/agg"
	"asrs/internal/dataset"
	"asrs/internal/query"
)

// TestPlanErrors: every schema violation is a typed *PlanError.
func TestPlanErrors(t *testing.T) {
	ds := dataset.Random(10, 100, 1)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	p := query.NewPlanner(ds.Schema, map[string]*asrs.Composite{"named": f})
	cases := []string{
		`find similar to target(1) under dist(nosuch)`,
		`find similar to target(1) under sum(cat)`,                                                      // categorical under a numeric atom
		`find similar to target(1,2,3) under dist(val)`,                                                 // numeric under dist
		`find similar to target(1) under sum(val where cat = 'notavalue')`,                              // unknown category value
		`find similar to target(1) under sum(val where val = 'x')`,                                      // eq on numeric attr
		`find similar to target(1) under sum(val where cat in [1,2])`,                                   // range on categorical
		`find similar to target(1) under sum(val where val in [5,1])`,                                   // inverted range
		`find similar to target(1,2) under sum(val)`,                                                    // target dims mismatch
		`find similar to target(1) under @nosuch`,                                                       // unknown named composite
		`find similar to target(1) under @named + sum(val)`,                                             // opaque @name mixed with atoms
		`find size 2 x 2 similar to target(1) under sum(val) and similar to target(1,2,3) under @named`, // @name in a conjunction
		`find similar to target(1) under sum(val)`,                                                      // no size and no example region
		`find size -1 x 2 similar to target(1) under sum(val)`,                                          // non-positive size
		`find size 1.5e308 x 2 similar to target(1) under sum(val)`,                                     // size beyond dssearch.MaxExtent
		`find top 2 similar to region(5,5,1,1) under sum(val)`,                                          // inverted example region
		`find similar to region(0,0,2,2) under sum(val) excluding region(3,3,1,1)`,                      // inverted exclude
		`find similar to region(0,0,2,2) under sum(val) within region(9,9,1,1)`,                         // inverted within
		`find similar to target(1) size 2 x 2 under sum(val) excluding example`,                         // no example region to exclude
		`find top 8 size 2 x 2 similar to target(1) under sum(val) diverse by 1 scan 4`,                 // scan below k
		`find similar to target(1) size 2 x 2 under -2*sum(val)`,                                        // negative coefficient
		`maximize sum(cat) size 1 x 1`,                                                                  // categorical under maximize sum
		`maximize sum(nosuch) size 1 x 1`,
		`maximize count() size 1 x 1.5e308`, // size beyond dssearch.MaxExtent
	}
	for _, src := range cases {
		_, err := p.ParseAndPlan(src)
		if err == nil {
			t.Errorf("ParseAndPlan(%q): expected error", src)
			continue
		}
		var pe *query.PlanError
		var parseErr *query.ParseError
		if !errors.As(err, &pe) && !errors.As(err, &parseErr) {
			t.Errorf("ParseAndPlan(%q): error %v is neither *PlanError nor *ParseError", src, err)
		}
	}
}

// TestPlannerInterning: semantically identical expressions — whatever
// their source order — compile to ONE composite singleton, so they
// join the same searches in flight and bind the same engine caches.
func TestPlannerInterning(t *testing.T) {
	ds := dataset.Random(10, 100, 2)
	p := query.NewPlanner(ds.Schema, nil)
	a, err := p.ParseAndPlan(`find size 2 x 2 similar to target(1,2,1,5) under dist(cat) + sum(val)`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.ParseAndPlan(`find top 4 size 3 x 3 similar to target(0,0,0,0) under sum(val) + dist(cat)`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Comp != b.Comp {
		t.Error("term order broke composite interning: two singletons for one spec list")
	}
	if a.CompKey != b.CompKey {
		t.Errorf("keys differ: %q vs %q", a.CompKey, b.CompKey)
	}
	c, err := p.ParseAndPlan(`find size 2 x 2 similar to target(1,2,1,5) under dist(cat) + 2*sum(val)`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Comp != a.Comp {
		t.Error("coefficients must not change the composite singleton (weights are per-request)")
	}
	if len(c.Weights) != 4 || c.Weights[3] != 2 {
		t.Errorf("weights = %v, want [1 1 1 2]", c.Weights)
	}
	if a.Weights != nil {
		t.Errorf("all-ones weights should compile to nil, got %v", a.Weights)
	}
}

// TestPlannerNamedComposite: @name resolves the registered singleton
// itself — not a rebuilt equivalent.
func TestPlannerNamedComposite(t *testing.T) {
	ds := dataset.Random(10, 100, 3)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	p := query.NewPlanner(ds.Schema, map[string]*asrs.Composite{"mine": f})
	pl, err := p.ParseAndPlan(`find size 2 x 2 similar to target(1,0,0) under @mine`)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Comp != f {
		t.Error("@mine compiled to a different composite than the registered singleton")
	}
}
