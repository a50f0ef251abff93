package geom_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"asrs/internal/geom"
)

func TestNewRectNormalizes(t *testing.T) {
	r := geom.NewRect(5, 7, 1, 2)
	if r.MinX != 1 || r.MinY != 2 || r.MaxX != 5 || r.MaxY != 7 {
		t.Fatalf("NewRect = %v", r)
	}
}

func TestRectBasics(t *testing.T) {
	r := geom.Rect{MinX: 1, MinY: 2, MaxX: 4, MaxY: 8}
	if r.Width() != 3 || r.Height() != 6 || r.Area() != 18 {
		t.Fatalf("dims wrong: %v", r)
	}
	if c := r.Center(); c.X != 2.5 || c.Y != 5 {
		t.Fatalf("center = %v", c)
	}
	if r.BL() != (geom.Point{X: 1, Y: 2}) || r.TR() != (geom.Point{X: 4, Y: 8}) {
		t.Fatal("corners wrong")
	}
	if !r.IsValid() || r.IsEmpty() {
		t.Fatal("validity wrong")
	}
	if (geom.Rect{MinX: 2, MaxX: 1}).IsValid() {
		t.Fatal("invalid rect reported valid")
	}
	if !(geom.Rect{MinX: 1, MaxX: 1, MinY: 0, MaxY: 5}).IsEmpty() {
		t.Fatal("zero-width rect not empty")
	}
}

func TestContainment(t *testing.T) {
	r := geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	onEdge := geom.Point{X: 0, Y: 5}
	inside := geom.Point{X: 5, Y: 5}
	outside := geom.Point{X: 11, Y: 5}
	if r.ContainsOpen(onEdge) {
		t.Error("open containment includes boundary")
	}
	if !r.ContainsClosed(onEdge) {
		t.Error("closed containment excludes boundary")
	}
	if !r.ContainsOpen(inside) || r.ContainsOpen(outside) {
		t.Error("interior/exterior misclassified")
	}

	inner := geom.Rect{MinX: 0, MinY: 1, MaxX: 5, MaxY: 5}
	if !r.ContainsRect(inner) {
		t.Error("closed rect containment")
	}
	if r.ContainsRectOpen(inner) {
		t.Error("open rect containment should exclude edge-sharing")
	}
	if !r.ContainsRectOpen(geom.Rect{MinX: 1, MinY: 1, MaxX: 5, MaxY: 5}) {
		t.Error("strictly inner rect rejected")
	}
}

func TestIntersectUnion(t *testing.T) {
	a := geom.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}
	b := geom.Rect{MinX: 2, MinY: 3, MaxX: 9, MaxY: 9}
	got := a.Intersect(b)
	if got != (geom.Rect{MinX: 2, MinY: 3, MaxX: 4, MaxY: 4}) {
		t.Fatalf("intersect = %v", got)
	}
	u := a.Union(b)
	if u != (geom.Rect{MinX: 0, MinY: 0, MaxX: 9, MaxY: 9}) {
		t.Fatalf("union = %v", u)
	}
	c := geom.Rect{MinX: 10, MinY: 10, MaxX: 12, MaxY: 12}
	if a.Intersects(c) {
		t.Error("disjoint rects intersect")
	}
	if a.Intersect(c).IsValid() {
		t.Error("disjoint intersection valid")
	}
	// Touching rects: closed intersects, open does not.
	d := geom.Rect{MinX: 4, MinY: 0, MaxX: 8, MaxY: 4}
	if !a.Intersects(d) {
		t.Error("touching rects should intersect (closed)")
	}
	if a.IntersectsOpen(d) {
		t.Error("touching rects should not intersect (open)")
	}
}

func TestAnchoredRects(t *testing.T) {
	p := geom.Point{X: 3, Y: 4}
	bl := geom.RectFromBL(p, 2, 5)
	if bl.BL() != p || bl.Width() != 2 || bl.Height() != 5 {
		t.Fatalf("RectFromBL = %v", bl)
	}
	tr := geom.RectFromTR(p, 2, 5)
	if tr.TR() != p || tr.Width() != 2 || tr.Height() != 5 {
		t.Fatalf("RectFromTR = %v", tr)
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []geom.Point{{X: 3, Y: 9}, {X: -2, Y: 4}, {X: 5, Y: 0}}
	box := geom.BoundingBox(pts)
	if box != (geom.Rect{MinX: -2, MinY: 0, MaxX: 5, MaxY: 9}) {
		t.Fatalf("bbox = %v", box)
	}
	empty := geom.BoundingBox(nil)
	if empty.IsValid() {
		t.Fatal("empty bbox should be invalid")
	}
}

// TestUnionProperty: union contains both operands (testing/quick).
func TestUnionProperty(t *testing.T) {
	f := func(x0, y0, x1, y1, x2, y2, x3, y3 float64) bool {
		a := geom.NewRect(x0, y0, x1, y1)
		b := geom.NewRect(x2, y2, x3, y3)
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIntersectProperty: intersection is contained in both operands when
// valid.
func TestIntersectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		a := geom.NewRect(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		b := geom.NewRect(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		i := a.Intersect(b)
		if i.IsValid() && (!a.ContainsRect(i) || !b.ContainsRect(i)) {
			t.Fatalf("intersection %v escapes %v ∩ %v", i, a, b)
		}
	}
}

func TestExpandToInclude(t *testing.T) {
	r := geom.EmptyRect()
	r.ExpandToInclude(geom.Point{X: 2, Y: 3})
	r.ExpandToInclude(geom.Point{X: -1, Y: 7})
	if r != (geom.Rect{MinX: -1, MinY: 3, MaxX: 2, MaxY: 7}) {
		t.Fatalf("expand = %v", r)
	}
}

func TestStringers(t *testing.T) {
	if (geom.Point{X: 1, Y: 2}).String() == "" {
		t.Fatal("Point.String empty")
	}
	if (geom.Rect{}).String() == "" {
		t.Fatal("Rect.String empty")
	}
	if (geom.Point{X: 1, Y: 2}).Add(1, 1) != (geom.Point{X: 2, Y: 3}) {
		t.Fatal("Point.Add")
	}
}
