package persist_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/persist"
)

func TestCSVRoundTrip(t *testing.T) {
	for _, ds := range []*attr.Dataset{
		dataset.Random(100, 50, 1),
		dataset.Tweet(200, 2),
		dataset.POISyn(150, 3),
		dataset.SingaporePOI(4),
	} {
		var buf bytes.Buffer
		if err := persist.WriteCSV(&buf, ds); err != nil {
			t.Fatal(err)
		}
		got, err := persist.ReadCSV(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Schema.Len() != ds.Schema.Len() {
			t.Fatalf("schema size %d vs %d", got.Schema.Len(), ds.Schema.Len())
		}
		for i := 0; i < ds.Schema.Len(); i++ {
			w, g := ds.Schema.At(i), got.Schema.At(i)
			if w.Name != g.Name || w.Kind != g.Kind || len(w.Domain) != len(g.Domain) {
				t.Fatalf("attribute %d differs: %+v vs %+v", i, w, g)
			}
		}
		if len(got.Objects) != len(ds.Objects) {
			t.Fatalf("object count %d vs %d", len(got.Objects), len(ds.Objects))
		}
		for i := range ds.Objects {
			w, g := &ds.Objects[i], &got.Objects[i]
			if w.Loc != g.Loc {
				t.Fatalf("object %d location %v vs %v", i, w.Loc, g.Loc)
			}
			for j := range w.Values {
				if ds.Schema.At(j).Kind == attr.Categorical {
					if w.Values[j].Cat != g.Values[j].Cat {
						t.Fatalf("object %d cat value %d differs", i, j)
					}
				} else if w.Values[j].Num != g.Values[j].Num {
					t.Fatalf("object %d num value %d: %g vs %g", i, j, w.Values[j].Num, g.Values[j].Num)
				}
			}
		}
	}
}

func TestReadCSVHandAuthored(t *testing.T) {
	src := `# asrs-dataset v1
# attr category categorical cafe|gym
# attr rating numeric
x,y,category,rating
1.5,2.5,cafe,4.5
3,4,gym,2
`
	ds, err := persist.ReadCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Objects) != 2 {
		t.Fatalf("objects = %d", len(ds.Objects))
	}
	if ds.Objects[0].Values[0].Cat != 0 || ds.Objects[1].Values[0].Cat != 1 {
		t.Fatal("categorical decode wrong")
	}
	if ds.Objects[0].Values[1].Num != 4.5 {
		t.Fatal("numeric decode wrong")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"missing magic", "x,y\n1,2\n"},
		{"bad directive", "# asrs-dataset v1\n# nope\nx,y\n"},
		{"missing domain", "# asrs-dataset v1\n# attr c categorical\nx,y,c\n"},
		{"unknown kind", "# asrs-dataset v1\n# attr c weird\nx,y,c\n"},
		{"header mismatch", "# asrs-dataset v1\n# attr c numeric\nx,y,other\n"},
		{"bad x", "# asrs-dataset v1\n# attr c numeric\nx,y,c\noops,2,3\n"},
		{"bad y", "# asrs-dataset v1\n# attr c numeric\nx,y,c\n1,oops,3\n"},
		{"bad numeric", "# asrs-dataset v1\n# attr c numeric\nx,y,c\n1,2,oops\n"},
		{"value outside domain", "# asrs-dataset v1\n# attr c categorical a|b\nx,y,c\n1,2,z\n"},
		{"short row", "# asrs-dataset v1\n# attr c numeric\nx,y,c\n1,2\n"},
	}
	for _, c := range cases {
		if _, err := persist.ReadCSV(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestReadCSVRefusesInadmissibleRows: a row whose location is not
// finite, or whose numeric value no exact limb holds, fails the read,
// and the error names the row.
func TestReadCSVRefusesInadmissibleRows(t *testing.T) {
	head := "# asrs-dataset v1\n# attr c numeric\nx,y,c\n1,2,3\n4,5,6.5\n"
	for _, row := range []string{"NaN,2,3", "1,+Inf,3", "1,2,1e-320"} {
		_, err := persist.ReadCSV(strings.NewReader(head + row + "\n"))
		if !errors.Is(err, attr.ErrInvalid) || !strings.Contains(err.Error(), "row 4") {
			t.Errorf("row %q: err = %v, want ErrInvalid naming row 4", row, err)
		}
	}
}

func TestWriteCSVRejectsInvalid(t *testing.T) {
	bad := &attr.Dataset{}
	if err := persist.WriteCSV(&bytes.Buffer{}, bad); err == nil {
		t.Fatal("invalid dataset accepted")
	}
	schema := attr.MustSchema(attr.Attribute{Name: "c", Kind: attr.Categorical, Domain: []string{"has|pipe"}})
	ds := &attr.Dataset{Schema: schema, Objects: []attr.Object{{Values: []attr.Value{attr.CatValue(0)}}}}
	if err := persist.WriteCSV(&bytes.Buffer{}, ds); err == nil {
		t.Fatal("reserved character in domain accepted")
	}
}

func TestCSVEmptyDataset(t *testing.T) {
	schema := attr.MustSchema(attr.Attribute{Name: "v", Kind: attr.Numeric})
	ds := &attr.Dataset{Schema: schema}
	var buf bytes.Buffer
	if err := persist.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := persist.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Objects) != 0 {
		t.Fatalf("objects = %d", len(got.Objects))
	}
}
