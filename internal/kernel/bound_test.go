package kernel

import (
	"math"
	"sync"
	"testing"

	"asrs/internal/asp"
	"asrs/internal/geom"
)

func TestExtCapMonotoneMin(t *testing.T) {
	c := NewExtCap()
	if !math.IsInf(c.Load(), 1) {
		t.Fatalf("fresh cap = %v, want +Inf", c.Load())
	}
	c.Publish(5)
	c.Publish(7) // higher: ignored
	if got := c.Load(); got != 5 {
		t.Fatalf("cap = %v, want 5", got)
	}
	c.Publish(2)
	if got := c.Load(); got != 2 {
		t.Fatalf("cap = %v, want 2", got)
	}
	c.Publish(math.NaN())
	if got := c.Load(); got != 2 {
		t.Fatalf("cap after NaN publish = %v, want 2 (NaN must never install)", got)
	}
}

func TestExtCapConcurrentPublish(t *testing.T) {
	c := NewExtCap()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 100; i > g; i-- {
				c.Publish(float64(i))
			}
		}(g)
	}
	wg.Wait()
	if got := c.Load(); got != 1 {
		t.Fatalf("cap = %v, want 1 (min across all publishers)", got)
	}
}

// TestBoundExternalThresholdOpen pins the open semantics: a foreign cap
// exactly equal to a space's lower bound must NOT prune it through the
// driver's closed `LB >= thresh` comparison, while the bound's own
// incumbent at the same distance must.
func TestBoundExternalThresholdOpen(t *testing.T) {
	seed := asp.Result{Point: geom.Point{X: 1, Y: 1}, Dist: 10}
	b := NewBound(0, seed)
	c := NewExtCap()
	b.SetExternal(c)

	if got := b.Threshold(); got != 10 {
		t.Fatalf("threshold with the cap at the seed = %v, want own 10", got)
	}
	if got := c.Load(); got != 10 {
		t.Fatalf("cap after attaching = %v, want the seed's 10", got)
	}
	c.Publish(4)
	th := b.Threshold()
	if !(th > 4) || th > math.Nextafter(4, math.Inf(1)) {
		t.Fatalf("threshold with cap 4 = %v, want nextafter(4) (open: LB==4 survives LB >= thresh)", th)
	}
	if 4 >= th {
		t.Fatalf("LB == cap must survive the closed comparison: 4 >= %v", th)
	}
	// The own incumbent still prunes closed at its own distance, and the
	// offer that installs it shares it through the cap.
	b.Offer(asp.Result{Point: geom.Point{X: 0, Y: 0}, Dist: 3})
	if got := b.Threshold(); got != 3 {
		t.Fatalf("threshold after own offer 3 = %v, want 3", got)
	}
	if got := c.Load(); got != 3 {
		t.Fatalf("cap after the offer = %v, want 3", got)
	}
}

// TestBoundExternalThresholdDelta checks the (1+δ)-approximate fold: both
// the own distance and the foreign cap divide by (1+δ) before the min.
func TestBoundExternalThresholdDelta(t *testing.T) {
	seed := asp.Result{Dist: 12}
	b := NewBound(0.5, seed)
	c := NewExtCap()
	b.SetExternal(c)
	c.Publish(6)
	want := math.Nextafter(6/1.5, math.Inf(1))
	if got := b.Threshold(); got != want {
		t.Fatalf("threshold = %v, want %v", got, want)
	}
}

// TestThresholdMatchesBound: the cutoff of a search that holds no Bound is
// the one a Bound with the same incumbent, δ and cap computes.
func TestThresholdMatchesBound(t *testing.T) {
	for _, delta := range []float64{0, 0.25} {
		for _, capd := range []float64{math.Inf(1), 12, 6, 3} {
			b := NewBound(delta, asp.Result{Dist: 9})
			c := NewExtCap()
			c.Publish(capd)
			b.SetExternal(c)
			if got, want := Threshold(9, delta, c), b.Threshold(); got != want {
				t.Fatalf("δ=%v cap=%v: Threshold = %v, the bound's %v", delta, capd, got, want)
			}
		}
		if got, want := Threshold(9, delta, nil), NewBound(delta, asp.Result{Dist: 9}).Threshold(); got != want {
			t.Fatalf("δ=%v, no cap: Threshold = %v, the bound's %v", delta, got, want)
		}
	}
}
