package server

import (
	"math/rand"
	"testing"
	"time"
)

// TestRetryAfterDerivation pins the Retry-After contract: derived from
// the service-time EWMA (ceil of the jittered estimate in whole
// seconds) and NEVER zero — a zero header is "retry immediately",
// which turns load shedding into a synchronized retry storm.
func TestRetryAfterDerivation(t *testing.T) {
	cases := []struct {
		ewma   time.Duration
		jitter float64
		want   int
	}{
		{0, 0, 1},                      // no observations yet: floor
		{0, 0.99, 1},                   // jitter cannot resurrect zero
		{-time.Second, 0.5, 1},         // defensive: negative is floor
		{300 * time.Millisecond, 0, 1}, // sub-second rounds UP to 1
		{999 * time.Millisecond, 0, 1},
		{time.Second, 0, 1},
		{time.Second, 0.99, 2}, // 1s * 1.495 -> ceil 2
		{2500 * time.Millisecond, 0, 3},
		{2 * time.Second, 0.5, 3}, // 2s * 1.25 -> ceil 3
		{10 * time.Second, 0, 10},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.ewma, c.jitter); got != c.want {
			t.Errorf("retryAfterSeconds(%v, %v) = %d, want %d", c.ewma, c.jitter, got, c.want)
		}
	}
	// Property sweep: never zero, monotone-ish in the EWMA.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10_000; i++ {
		ewma := time.Duration(rng.Int63n(int64(120 * time.Second)))
		if got := retryAfterSeconds(ewma, rng.Float64()); got < 1 {
			t.Fatalf("retryAfterSeconds(%v) = %d < 1", ewma, got)
		}
	}
}

// TestServiceEWMAConverges: the average tracks the observed service
// times and feeds retryAfterSeconds with something of their magnitude.
func TestServiceEWMAConverges(t *testing.T) {
	var e serviceEWMA
	if e.Value() != 0 {
		t.Fatalf("zero EWMA = %v", e.Value())
	}
	for i := 0; i < 50; i++ {
		e.Observe(2 * time.Second)
	}
	if v := e.Value(); v < 1900*time.Millisecond || v > 2100*time.Millisecond {
		t.Fatalf("EWMA after steady 2s observations = %v", v)
	}
	if got := retryAfterSeconds(e.Value(), 0); got != 2 {
		t.Fatalf("Retry-After from 2s EWMA = %d, want 2", got)
	}
	e.Observe(-time.Second) // ignored
	if v := e.Value(); v < 1900*time.Millisecond {
		t.Fatalf("negative observation perturbed EWMA: %v", v)
	}
}

// fakeClockLadder builds a ladder on a controllable clock.
func fakeClockLadder() (*ladder, *time.Time) {
	now := time.Unix(1000, 0)
	l := newLadder()
	l.now = func() time.Time { return now }
	return l, &now
}

// TestLadderStepsDownUnderSustainedShedding: enough sheds inside one
// bucket step the level down, once per bucket, to the floor level.
func TestLadderStepsDownUnderSustainedShedding(t *testing.T) {
	l, now := fakeClockLadder()
	for i := 0; i < ladderStepSheds; i++ {
		l.note(true)
	}
	if l.Level() != 1 {
		t.Fatalf("level after %d sheds = %d, want 1", ladderStepSheds, l.Level())
	}
	// More sheds in the SAME bucket must not step again.
	for i := 0; i < 3*ladderStepSheds; i++ {
		l.note(true)
	}
	if l.Level() != 1 {
		t.Fatalf("multiple steps within one bucket: level %d", l.Level())
	}
	// Each following shed-heavy bucket steps one more, capped at max.
	for b := 0; b < 5; b++ {
		*now = now.Add(ladderBucket)
		for i := 0; i < ladderStepSheds; i++ {
			l.note(true)
		}
	}
	if l.Level() != ladderMaxLevel {
		t.Fatalf("level = %d, want cap %d", l.Level(), ladderMaxLevel)
	}
	if l.Entries() != 1 {
		t.Fatalf("brownout entries = %d, want 1", l.Entries())
	}
}

// TestLadderRecoversAfterCalm: shed-free buckets step back up one
// level per calm streak until healthy.
func TestLadderRecoversAfterCalm(t *testing.T) {
	l, now := fakeClockLadder()
	for b := 0; b < 2; b++ {
		for i := 0; i < ladderStepSheds; i++ {
			l.note(true)
		}
		*now = now.Add(ladderBucket)
		l.note(false) // close the bucket
	}
	if l.Level() != 2 {
		t.Fatalf("level = %d, want 2", l.Level())
	}
	// Calm traffic: one recovery step per ladderCalmBuckets clean buckets.
	steps := 0
	for l.Level() > 0 && steps < 20 {
		*now = now.Add(ladderBucket)
		l.note(false)
		steps++
	}
	if l.Level() != 0 {
		t.Fatalf("never recovered: level %d after %d calm buckets", l.Level(), steps)
	}
}

// TestLadderMixedBucketsHoldLevel: buckets with a few sheds (below the
// step threshold) neither deepen brownout nor count as calm.
func TestLadderMixedBucketsHoldLevel(t *testing.T) {
	l, now := fakeClockLadder()
	for i := 0; i < ladderStepSheds; i++ {
		l.note(true)
	}
	for b := 0; b < 6; b++ {
		*now = now.Add(ladderBucket)
		l.note(true) // one shed per bucket: not calm, not a step
	}
	if l.Level() != 1 {
		t.Fatalf("level drifted to %d under light shedding, want 1", l.Level())
	}
}
