package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// With no plan installed, Check must be a no-op for any name.
func TestDisabledNoop(t *testing.T) {
	Deactivate()
	for i := 0; i < 100; i++ {
		if _, ok := Check("compact.save"); ok {
			t.Fatal("Check fired with no plan installed")
		}
	}
	if Fired() != 0 {
		t.Fatal("Fired non-zero with no plan")
	}
}

// The same (seed, specs, call sequence) must reproduce the same fire
// pattern, and different seeds should produce a different one for at
// least some point (the schedules are seed-derived).
func TestDeterministicSchedule(t *testing.T) {
	defer Deactivate()
	pattern := func(seed int64) []bool {
		p := NewPlan(seed,
			Spec{Point: "a", Action: ActError, MaxEvery: 4},
			Spec{Point: "b", Action: ActPanic, MaxEvery: 7},
		)
		Activate(p)
		defer Deactivate()
		var out []bool
		for i := 0; i < 64; i++ {
			_, okA := Check("a")
			_, okB := Check("b")
			out = append(out, okA, okB)
		}
		return out
	}
	p1, p2, q := pattern(42), pattern(42), pattern(43)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	same := true
	for i := range p1 {
		if p1[i] != q[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical fire patterns (suspicious)")
	}
}

// Every armed point must fire at least once within MaxEvery calls, and
// the counters must add up.
func TestFiresWithinPeriod(t *testing.T) {
	defer Deactivate()
	p := NewPlan(7, Spec{Point: "x", Action: ActError, MaxEvery: 8})
	Activate(p)
	fired := 0
	for i := 0; i < 8; i++ {
		if f, ok := Check("x"); ok {
			fired++
			if !errors.Is(f.Err(), ErrInjected) {
				t.Fatal("Fire.Err does not wrap ErrInjected")
			}
		}
	}
	if fired != 1 {
		t.Fatalf("expected exactly 1 fire in the first period, got %d", fired)
	}
	if p.Fired() != 1 || p.FiredAt("x") != 1 || Fired() != 1 {
		t.Fatalf("counter mismatch: plan=%d point=%d global=%d", p.Fired(), p.FiredAt("x"), Fired())
	}
}

// MaxEvery=1 fires on every call — the always-on configuration the
// targeted failure tests use.
func TestEveryCall(t *testing.T) {
	defer Deactivate()
	Activate(NewPlan(1, Spec{Point: "p", Action: ActSleep, MaxEvery: 1, Delay: time.Microsecond}))
	for i := 0; i < 10; i++ {
		f, ok := Check("p")
		if !ok {
			t.Fatalf("call %d did not fire with MaxEvery=1", i)
		}
		if f.Action != ActSleep || f.Delay != time.Microsecond {
			t.Fatalf("unexpected fire %+v", f)
		}
	}
}

// Concurrent Check calls must be safe and conserve the fire count:
// exactly calls/every fires per full period window.
func TestConcurrentCheck(t *testing.T) {
	defer Deactivate()
	p := NewPlan(11, Spec{Point: "c", Action: ActError, MaxEvery: 4})
	Activate(p)
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				Check("c")
			}
		}()
	}
	wg.Wait()
	calls := uint64(goroutines * per)
	fired := p.FiredAt("c")
	ok := false
	for e := uint64(1); e <= 4; e++ {
		// Exactly one fire per full period; the final partial period
		// contributes 0 or 1 depending on the offset.
		if fired == calls/e || fired == calls/e+1 {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatalf("fired count %d not consistent with any period 1..4 over %d calls", fired, calls)
	}
}

func TestPanicValueMentionsPoint(t *testing.T) {
	f := Fire{Point: "kernel.process.panic", Action: ActPanic}
	if v, ok := f.PanicValue().(string); !ok || v == "" {
		t.Fatal("PanicValue not a descriptive string")
	}
}
