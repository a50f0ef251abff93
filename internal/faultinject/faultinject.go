// Package faultinject is a seeded, deterministic failpoint registry:
// named injection points compiled into the IO, kernel and serving
// paths that are zero-cost no-ops until a Plan is activated. The chaos
// suite (internal/chaos) activates seeded plans and replays query
// workloads to prove the process degrades into typed errors — never
// panics, never torn state — under injected IO faults, worker panics
// and slow barriers. See DESIGN.md §9 for the failpoint catalog.
//
// # Determinism
//
// A Plan is compiled from (seed, point specs): each armed point fires
// on a fixed arithmetic progression of its own invocation counter
// (every k-th call with offset o, both derived from an fnv-64a hash of
// the seed and the point name). Two runs that invoke a point the same
// number of times therefore fire the same faults, regardless of wall
// clock — the fired pattern is a pure function of the call sequence.
// Concurrent call sites share one counter per point, so across
// goroutines the *which-call* assignment can vary with the schedule;
// chaos tests account for that by tracking the fired counter around
// each unit of work and only comparing fault-free units against the
// oracle.
//
// # Cost when disabled
//
// Check loads one package-level atomic pointer and returns on nil.
// There is no map lookup, lock, or allocation on the disabled path, so
// production builds keep the probes compiled in.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every error returned by a fired ActError
// or ActShortWrite point; sites wrap it with their own context and
// callers classify with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Action is what a fired point does at its site.
type Action uint8

const (
	// ActError makes the site fail with an error wrapping ErrInjected.
	ActError Action = iota
	// ActPanic makes the site panic (the value wraps ErrInjected's
	// message and the point name, so recovery layers can attribute it).
	ActPanic
	// ActShortWrite makes an IO site write only a prefix of the buffer
	// and then fail — the torn-write simulation for crash-safety tests.
	ActShortWrite
	// ActSleep makes the site sleep Fire.Delay and then proceed
	// normally (slow-barrier / slow-dispatch simulation). A fired
	// ActSleep still counts in Fired: a stall is a fault even though
	// the answer survives it.
	ActSleep
)

func (a Action) String() string {
	switch a {
	case ActError:
		return "error"
	case ActPanic:
		return "panic"
	case ActShortWrite:
		return "short-write"
	case ActSleep:
		return "sleep"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Fire describes one firing of a point.
type Fire struct {
	Point  string
	Action Action
	// Delay is the ActSleep duration.
	Delay time.Duration
	// Bytes is the ActShortWrite prefix length allowed through.
	Bytes int
}

// Err returns the typed error an ActError/ActShortWrite firing
// surfaces, wrapping ErrInjected.
func (f Fire) Err() error {
	return fmt.Errorf("%w at %s (%s)", ErrInjected, f.Point, f.Action)
}

// PanicValue is the value an ActPanic firing panics with; recovery
// layers format it like any other panic payload.
func (f Fire) PanicValue() any {
	return fmt.Sprintf("faultinject: injected panic at %s", f.Point)
}

// Spec arms one point inside a Plan.
type Spec struct {
	// Point is the failpoint name (see the catalog in DESIGN.md §9).
	Point  string
	Action Action
	// MaxEvery bounds the firing period: the point fires once every
	// 1..MaxEvery invocations (seed-derived). Zero selects 8. One fires
	// on every invocation.
	MaxEvery int
	// Delay is the ActSleep duration (zero selects 1ms).
	Delay time.Duration
	// Bytes is the ActShortWrite prefix bound (zero lets the seed pick
	// a small prefix).
	Bytes int
}

// pointState is one armed point's compiled schedule plus its counters.
type pointState struct {
	name  string
	act   Action
	every uint64
	off   uint64
	delay time.Duration
	bytes int
	calls atomic.Uint64
	fired atomic.Uint64
}

// Plan is a compiled, activatable fault schedule. Build with NewPlan,
// install with Activate, remove with Deactivate. A Plan must not be
// reused across Activate calls if the test needs fresh counters —
// compile a new one per run.
type Plan struct {
	seed   int64
	points map[string]*pointState
	fired  atomic.Uint64
}

// NewPlan compiles a deterministic schedule from a seed: each spec'd
// point fires every k-th invocation with offset o, where k ∈
// [1, MaxEvery] and o ∈ [0, k) are derived from fnv64a(seed, name).
func NewPlan(seed int64, specs ...Spec) *Plan {
	p := &Plan{seed: seed, points: make(map[string]*pointState, len(specs))}
	for _, sp := range specs {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s|%d", seed, sp.Point, sp.Action)
		sum := h.Sum64()
		maxEvery := sp.MaxEvery
		if maxEvery <= 0 {
			maxEvery = 8
		}
		every := 1 + sum%uint64(maxEvery)
		off := (sum >> 17) % every
		delay := sp.Delay
		if delay <= 0 {
			delay = time.Millisecond
		}
		bytes := sp.Bytes
		if bytes <= 0 {
			bytes = int(sum>>29)%64 + 1
		}
		p.points[sp.Point] = &pointState{
			name: sp.Point, act: sp.Action,
			every: every, off: off, delay: delay, bytes: bytes,
		}
	}
	return p
}

// Seed returns the seed the plan was compiled from.
func (p *Plan) Seed() int64 { return p.seed }

// Fired returns the total number of fires across every point since the
// plan was compiled.
func (p *Plan) Fired() uint64 { return p.fired.Load() }

// FiredAt returns one point's fire count.
func (p *Plan) FiredAt(point string) uint64 {
	ps := p.points[point]
	if ps == nil {
		return 0
	}
	return ps.fired.Load()
}

// Points lists the plan's armed point names, sorted.
func (p *Plan) Points() []string {
	out := make([]string, 0, len(p.points))
	for name := range p.points {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// active is the installed plan; nil means every Check is a no-op.
var active atomic.Pointer[Plan]

// Activate installs the plan globally. Passing nil is Deactivate.
// Activation is process-wide: chaos tests that activate plans must not
// run in parallel with tests that assume a fault-free process.
func Activate(p *Plan) { active.Store(p) }

// Deactivate removes the installed plan; Check returns to the
// zero-cost no-op path.
func Deactivate() { active.Store(nil) }

// Fired returns the active plan's total fire count, 0 when no plan is
// installed. Chaos tests bracket each unit of work with Fired() to
// decide whether its answer is eligible for oracle comparison.
func Fired() uint64 {
	if p := active.Load(); p != nil {
		return p.Fired()
	}
	return 0
}

// Check is the probe every failpoint site calls: it reports whether
// the named point fires on this invocation and what it should do.
// With no plan installed it is a single atomic load.
func Check(name string) (Fire, bool) {
	p := active.Load()
	if p == nil {
		return Fire{}, false
	}
	ps := p.points[name]
	if ps == nil {
		return Fire{}, false
	}
	n := ps.calls.Add(1) - 1
	if n%ps.every != ps.off {
		return Fire{}, false
	}
	ps.fired.Add(1)
	p.fired.Add(1)
	return Fire{Point: ps.name, Action: ps.act, Delay: ps.delay, Bytes: ps.bytes}, true
}

// Sleep executes an ActSleep fire (a plain sleep; split out so sites
// read uniformly).
func (f Fire) Sleep() { time.Sleep(f.Delay) }
