package server

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Degradation ladder: how the server behaves between "healthy" and
// "shedding everything". Two mechanisms compose (DESIGN.md §9):
//
//   - Retry-After on every 429 is derived from the observed request
//     service time (EWMA) with client-spreading jitter, so shed
//     clients come back roughly when the work they were shed behind
//     has cleared — not in lockstep, and never "0".
//   - Brownout: sustained shedding steps a level DOWN at a time and
//     sustained calm steps back up. Any level above zero sheds inserts
//     first (deferrable work nobody is waiting on) and shows as
//     "degraded" on /healthz; the level says for how long shedding has
//     been sustained. The ladder is advisory — answers stay
//     bit-identical.

// ewmaAlpha weights the newest observation; ~5 requests of memory.
const ewmaAlpha = 0.2

// serviceEWMA is a lock-free exponentially weighted moving average of
// request service times (arrival to answer), stored as float64 bits in
// an atomic word.
type serviceEWMA struct {
	bits atomic.Uint64
}

// Observe folds one service time into the average.
func (e *serviceEWMA) Observe(d time.Duration) {
	if d < 0 {
		return
	}
	v := float64(d)
	for {
		old := e.bits.Load()
		cur := math.Float64frombits(old)
		next := v
		if old != 0 {
			next = cur + ewmaAlpha*(v-cur)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Value returns the current average (0 before any observation).
func (e *serviceEWMA) Value() time.Duration {
	return time.Duration(math.Float64frombits(e.bits.Load()))
}

// retryAfterSeconds derives the Retry-After header value from the
// service-time EWMA and a jitter fraction in [0, 1): the jittered
// estimate of when the currently queued work clears, rounded UP to
// whole seconds and floored at 1 — the header must never be 0, which
// clients read as "retry immediately" and which turns shedding into a
// synchronized retry storm. Pure function; the unit test pins it.
func retryAfterSeconds(ewma time.Duration, jitter float64) int {
	if ewma <= 0 {
		return 1
	}
	jittered := float64(ewma) * (1 + 0.5*jitter)
	secs := int(math.Ceil(jittered / float64(time.Second)))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Ladder tuning.
const (
	// ladderBucket is the shed-accounting quantum.
	ladderBucket = time.Second
	// ladderStepSheds sheds within one bucket enter/deepen brownout.
	ladderStepSheds = 8
	// ladderCalmBuckets consecutive shed-free buckets step back up.
	ladderCalmBuckets = 2
	// ladderMaxLevel bounds the descent.
	ladderMaxLevel = 3
)

// ladder is the brownout state machine. All transitions happen inside
// note(), driven by admission-path events — no background goroutine,
// so an idle server holds its level until traffic returns (documented:
// recovery requires observed calm, not elapsed wall clock).
type ladder struct {
	// now is the clock; replaceable in tests.
	now func() time.Time

	mu        sync.Mutex
	level     int
	bucket    time.Time // start of the current accounting bucket
	sheds     int       // sheds observed in the current bucket
	stepped   bool      // already stepped down in this bucket
	calm      int       // consecutive completed shed-free buckets
	entries   int64     // transitions 0 -> 1 (brownout entries)
	downSteps int64     // total step-downs
}

func newLadder() *ladder { return &ladder{now: time.Now} }

// note records one admission-path event (shed or served) and runs any
// due transitions. Called on every request; the critical section is a
// few comparisons.
func (l *ladder) note(shed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	if l.bucket.IsZero() {
		l.bucket = now
	}
	// Close out elapsed buckets. A long idle gap counts as calm: each
	// fully elapsed empty bucket contributes to recovery.
	for now.Sub(l.bucket) >= ladderBucket {
		if l.sheds == 0 {
			l.calm++
			if l.calm >= ladderCalmBuckets && l.level > 0 {
				l.setLevelLocked(l.level - 1)
				l.calm = 0
			}
		} else {
			l.calm = 0
		}
		l.sheds = 0
		l.stepped = false
		l.bucket = l.bucket.Add(ladderBucket)
		if gap := now.Sub(l.bucket); gap > 10*ladderBucket {
			// Far behind (idle minutes): credit the elapsed calm at the
			// loop's cap and jump to the present.
			l.bucket = now
		}
	}
	if shed {
		l.sheds++
		if l.sheds >= ladderStepSheds && !l.stepped && l.level < ladderMaxLevel {
			l.setLevelLocked(l.level + 1)
			l.stepped = true
			l.calm = 0
		}
	}
}

// setLevelLocked moves to a level.
func (l *ladder) setLevelLocked(level int) {
	if level > l.level {
		l.downSteps++
		if l.level == 0 {
			l.entries++
		}
	}
	l.level = level
}

// Level reports the current brownout level (0 = healthy).
func (l *ladder) Level() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.level
}

// Entries reports how many times brownout was entered from healthy.
func (l *ladder) Entries() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries
}
