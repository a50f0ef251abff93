package shard

import (
	"math/rand"
	"sync"
	"time"
)

// BreakerConfig tunes one shard's circuit breaker. The zero value
// selects the defaults; Disable turns the breaker into a pass-through
// (the property tests' configuration: routing exactness must not depend
// on fault isolation).
type BreakerConfig struct {
	// Disable makes Allow always true and failures free.
	Disable bool
	// FailureThreshold is the consecutive-failure count that trips the
	// breaker open (default 3).
	FailureThreshold int
	// BaseBackoff is the first open interval; each re-trip doubles it up
	// to MaxBackoff (defaults 100ms / 30s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed drives the backoff jitter (deterministic per breaker).
	Seed int64
	// Now is the injectable clock (default time.Now), so tests step
	// through open → half-open → closed without sleeping.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a per-shard circuit breaker: repeated classified failures
// (worker panics, deadline overruns, load failures) trip it open so a
// sick shard stops consuming request budget; after a jittered
// exponential backoff a single half-open probe readmits traffic on
// success or re-trips on failure. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu      sync.Mutex
	state   string // "closed" | "open" | "half-open"
	fails   int    // consecutive failures while closed
	backoff time.Duration
	until   time.Time // open: earliest half-open probe
	probing bool      // half-open: one probe in flight
	trips   uint64
	rng     *rand.Rand
}

// NewBreaker builds a breaker from the config (see BreakerConfig for
// the defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{
		cfg:     cfg,
		state:   "closed",
		backoff: cfg.BaseBackoff,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Allow reports whether a request may proceed. While open it flips to
// half-open once the backoff elapses, admitting exactly one probe; the
// probe's Success/Failure decides readmission.
func (b *Breaker) Allow() bool {
	if b.cfg.Disable {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case "closed":
		return true
	case "open":
		if b.cfg.Now().Before(b.until) {
			return false
		}
		b.state = "half-open"
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// closed reports, without taking a probe, whether the breaker admits
// traffic freely: it is closed or disabled.
func (b *Breaker) closed() bool {
	if b.cfg.Disable {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == "closed"
}

// Success records a request that completed healthily.
func (b *Breaker) Success() {
	if b.cfg.Disable {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if b.state == "half-open" {
		// Probe succeeded: close and reset the backoff ladder.
		b.state = "closed"
		b.probing = false
		b.backoff = b.cfg.BaseBackoff
	}
}

// Failure records a classified fault (panic, deadline overrun, load
// failure). While closed it trips after FailureThreshold consecutive
// failures; a failed half-open probe re-trips with doubled backoff.
func (b *Breaker) Failure() {
	if b.cfg.Disable {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case "half-open":
		b.probing = false
		b.backoff *= 2
		if b.backoff > b.cfg.MaxBackoff {
			b.backoff = b.cfg.MaxBackoff
		}
		b.trip()
	case "closed":
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.trip()
		}
	}
}

// trip opens the breaker for a jittered backoff interval (locked).
func (b *Breaker) trip() {
	b.state = "open"
	b.fails = 0
	b.trips++
	// Jitter in [backoff/2, backoff): tripped shards across a fleet must
	// not probe in lockstep.
	j := b.backoff/2 + time.Duration(b.rng.Int63n(int64(b.backoff/2)+1))
	b.until = b.cfg.Now().Add(j)
}

// BreakerStatus is a point-in-time snapshot for /stats.
type BreakerStatus struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Trips               uint64 `json:"trips"`
	// RetryInMS is the remaining open interval (0 unless open).
	RetryInMS int64 `json:"retry_in_ms,omitempty"`
}

// Status snapshots the breaker.
func (b *Breaker) Status() BreakerStatus {
	if b.cfg.Disable {
		return BreakerStatus{State: "disabled"}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BreakerStatus{State: b.state, ConsecutiveFailures: b.fails, Trips: b.trips}
	if b.state == "open" {
		if d := b.until.Sub(b.cfg.Now()); d > 0 {
			st.RetryInMS = d.Milliseconds()
		}
	}
	return st
}
