package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// bootRepeats is how many cold boots and how many restart boots one run
// makes; setup_s and restart_s are interquartile means over them.
const bootRepeats = 9

// runConfig is what one invocation measures with.
type runConfig struct {
	asrsd   string  // daemon binary
	tmp     string  // scratch directory of this invocation (inside the checkout)
	outDir  string  // daemon logs and traces (bench/out)
	seed    int64   // op-generation seed
	seconds float64 // nominal length of the measured phase
	nproc   int
}

// result is one workload's outcome.
type result struct {
	workload          string
	attempted, failed int
	ok                bool // answers correct and the restart check passed
	metrics           map[string]float64
	notes             []string
}

// bench is the state of one workload run.
type bench struct {
	cfg     runConfig
	w       *workload
	env     *servingEnv
	sch     *schedule
	reps    int
	ver     *verifier
	workers int
	clients int
	hc      *http.Client
	ref     []*refKernel // one per client
	tr      *tracer      // non-nil on the traced pass
}

func newBench(cfg runConfig, w *workload) (*bench, error) {
	env, err := newServingEnv(w.dataset, w.n)
	if err != nil {
		return nil, err
	}
	sch, err := w.generate(env, cfg.seed)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, w: w, env: env, sch: sch}
	b.workers = min(w.workers, cfg.nproc)
	b.clients = min(w.clients, cfg.nproc)
	b.reps = max(1, int(math.Round(cfg.seconds*w.roundsPerSec/float64(len(sch.block)))))
	b.hc = newHTTPClient(b.clients)
	for c := 0; c < b.clients; c++ {
		b.ref = append(b.ref, newRefKernel())
	}
	return b, nil
}

// daemonArgs renders the asrsd command line for a state directory.
func (b *bench) daemonArgs(state string) []string {
	args := []string{
		"-dataset", b.w.dataset, "-n", strconv.Itoa(b.w.n), "-seed", strconv.Itoa(dataSeed),
		"-grid", "64", "-workers", strconv.Itoa(b.workers),
		"-pyramid", filepath.Join(state, "pyr", "p"),
	}
	for _, a := range b.w.extra {
		args = append(args, strings.ReplaceAll(a, "$STATE", state))
	}
	return args
}

// newState makes a fresh empty state directory. MkdirTemp never hands
// out a directory that exists, so no boot can inherit another's WAL.
func (b *bench) newState() (string, error) {
	state, err := os.MkdirTemp(b.cfg.tmp, b.w.name+"-state-*")
	if err != nil {
		return "", err
	}
	return state, os.Mkdir(filepath.Join(state, "pyr"), 0o755)
}

// boot is one timed boot: exec to the first 200 on /readyz, bracketed by
// 5+5 reference-kernel runs.
type boot struct {
	d        *daemon
	rawS     float64
	factor   float64
	normS    float64
	stateDir string
}

func (b *bench) boot(state, label string, i int) (boot, error) {
	bt := boot{stateDir: state}
	var err error
	logPath := filepath.Join(b.cfg.outDir, fmt.Sprintf("asrsd-%s-%s-%d.log", b.w.name, label, i))
	_, bt.factor = b.ref[0].bracket(5, func() {
		bt.d, err = startDaemon(b.cfg.asrsd, b.daemonArgs(state), logPath)
		if err != nil {
			return
		}
		var took time.Duration
		took, err = bt.d.waitReady(60 * time.Second)
		bt.rawS = took.Seconds()
	})
	if err != nil {
		if bt.d != nil {
			bt.d.kill()
		}
		return bt, fmt.Errorf("%s boot %d: %w", label, i, err)
	}
	bt.normS = bt.rawS * bt.factor
	return bt, nil
}

// coldBoots measures bootRepeats cold boots, each over a fresh empty
// state directory (so each builds and saves its indexes and pyramids),
// and keeps the last daemon running for the measured phase.
func (b *bench) coldBoots() (keep boot, norm, raw []float64, err error) {
	for i := 0; i < bootRepeats; i++ {
		state, err := b.newState()
		if err != nil {
			return keep, nil, nil, err
		}
		bt, err := b.boot(state, "cold", i)
		if err != nil {
			return keep, nil, nil, err
		}
		norm = append(norm, bt.normS)
		raw = append(raw, bt.rawS)
		if i == bootRepeats-1 {
			return bt, norm, raw, nil
		}
		bt.d.kill()
		if err := os.RemoveAll(state); err != nil {
			return keep, nil, nil, err
		}
	}
	return keep, norm, raw, nil
}

// restartBoots measures bootRepeats boots over the state the measured
// run left behind. Every boot gets its own fresh copy: a boot may repair
// or extend the WAL, and a later boot over the same directory would
// then measure something else. check, when non-nil, runs against the
// last restarted daemon before it is stopped.
func (b *bench) restartBoots(state string, check func(d *daemon) error) (norm, raw []float64, err error) {
	for i := 0; i < bootRepeats; i++ {
		cp, err := os.MkdirTemp(b.cfg.tmp, b.w.name+"-restart-*")
		if err != nil {
			return nil, nil, err
		}
		if err := copyDir(state, cp); err != nil {
			return nil, nil, err
		}
		bt, err := b.boot(cp, "restart", i)
		if err != nil {
			return nil, nil, err
		}
		norm = append(norm, bt.normS)
		raw = append(raw, bt.rawS)
		if i == bootRepeats-1 && check != nil {
			err = check(bt.d)
		}
		bt.d.kill()
		if rerr := os.RemoveAll(cp); err == nil {
			err = rerr
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return norm, raw, nil
}

// warmUp sends every distinct query once, untimed, so lazily built
// state (an inline composite's index and pyramid, slab caches, the
// connection pool) exists before the clock starts.
func (b *bench) warmUp(d *daemon) error {
	for i := range b.sch.ops {
		r := doOp(b.hc, d.url, &b.sch.ops[i])
		if r.err != nil {
			return fmt.Errorf("warm-up: %w", r.err)
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("warm-up: HTTP %d: %s\n%s", r.status, r.body, d.logTail())
		}
	}
	return nil
}

// obs is one measured operation.
type obs struct {
	wallMs  float64 // request sent → last byte
	firstMs float64 // request sent → first row / first byte
	factor  float64 // host-speed factor around it
	ok      bool    // answered 200 and verified
}

// roundObs is one measured round: first request sent → last response
// complete, over every client.
type roundObs struct {
	wallMs float64
	factor float64
}

// phase is the outcome of the measured phase, indexed by block position
// so that repetitions of the same operation can be compared.
type phase struct {
	ops       [][][]obs    // [position][slot][repetition]
	rounds    [][]roundObs // [position][repetition]
	factors   []float64    // per executed round, in order
	attempted int
	failed    int
	failures  []string
	truncated bool
}

// factorWindow is how many reference runs on either side of a round
// feed its host-speed factor. One reference run is itself noisy (±8 %),
// and the host's speed drifts over seconds, not milliseconds: the
// median of a few neighbours is a better estimate than the two runs
// that touch the operation.
const factorWindow = 3

// perClient runs fn once per client and waits for all: inline for a
// single client, one goroutine each otherwise.
func (b *bench) perClient(fn func(c int)) {
	if b.clients == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// measure executes reps repetitions of the block. Clients are
// lock-stepped per round: each runs the reference kernel, all wait, all
// send.
func (b *bench) measure(d *daemon) *phase {
	type roundRec struct {
		ops  []*op
		idx  []int // index among the distinct ops, -1 for inserts
		res  []opResult
		want []expectation
	}
	var rounds []roundRec
	var refs [][]float64 // refs[i][c]: client c's kernel run before round i; one more after the last
	refRun := func() []float64 {
		out := make([]float64, b.clients)
		b.perClient(func(c int) { out[c] = b.ref[c].run() })
		return out
	}
	ph := &phase{}
	// The valve: a host several times slower than the calibration host
	// stops at a block boundary instead of overrunning the time limit.
	valve := time.Now().Add(time.Duration(3 * b.cfg.seconds * float64(time.Second)))
	for rep := 0; rep < b.reps; rep++ {
		if rep > 0 && time.Now().After(valve) {
			ph.truncated = true
			break
		}
		for r, round := range b.sch.block {
			refs = append(refs, refRun())
			n := len(round)
			rec := roundRec{ops: make([]*op, n), idx: make([]int, n), res: make([]opResult, n), want: make([]expectation, n)}
			for j, st := range round {
				if st.isInsert() {
					o := b.sch.newInsert(rep, st.insertIndex())
					rec.ops[j], rec.idx[j] = &o, -1
				} else {
					rec.ops[j], rec.idx[j] = &b.sch.ops[st], int(st)
					rec.want[j] = b.ver.at(rep, r, j, st)
				}
			}
			// Client c executes steps c, c+clients, … of the round.
			b.perClient(func(c int) {
				for j := c; j < len(round); j += b.clients {
					rec.res[j] = doOp(b.hc, d.url, rec.ops[j])
				}
			})
			rounds = append(rounds, rec)
		}
	}
	refs = append(refs, refRun())

	// The clock has stopped: normalise and verify.
	factorAt := func(i, c int) float64 {
		lo, hi := max(0, i+1-factorWindow), min(len(refs), i+1+factorWindow)
		window := make([]float64, 0, hi-lo)
		for _, r := range refs[lo:hi] {
			window = append(window, r[c])
		}
		return speedFactor(window...)
	}
	npos := len(b.sch.block)
	ph.ops = make([][][]obs, npos)
	ph.rounds = make([][]roundObs, npos)
	for i, rec := range rounds {
		p := i % npos
		if ph.ops[p] == nil {
			ph.ops[p] = make([][]obs, len(rec.res))
		}
		var first, last time.Time
		var roundFactor float64
		for j := range rec.res {
			f := factorAt(i, j%b.clients)
			roundFactor += f / float64(len(rec.res))
			res := &rec.res[j]
			o := obs{factor: f}
			ph.attempted++
			if err := res.verify(b.ver, rec.idx[j], rec.ops[j], rec.want[j]); err != nil {
				ph.failed++
				if len(ph.failures) < 5 {
					ph.failures = append(ph.failures, fmt.Sprintf("round %d op %d (%s): %v", i, j, rec.ops[j].class, err))
				}
			} else {
				o.ok = true
				o.wallMs = ms(res.end.Sub(res.start))
				o.firstMs = ms(res.first.Sub(res.start))
				// The traced pass is the last repetition; its spans come
				// from the timestamps every pass takes anyway.
				if b.tr != nil && i/npos == b.reps-1 {
					id := fmt.Sprintf("%s%d", rec.ops[j].class, max(rec.idx[j], 0))
					b.tr.add("http", id, "", res.start, res.end)
					b.tr.add("http.first_byte", id, "http", res.start, res.first)
				}
			}
			ph.ops[p][j] = append(ph.ops[p][j], o)
			if res.start.IsZero() || res.end.IsZero() {
				continue
			}
			if first.IsZero() || res.start.Before(first) {
				first = res.start
			}
			if res.end.After(last) {
				last = res.end
			}
		}
		ph.factors = append(ph.factors, roundFactor)
		if !first.IsZero() {
			ph.rounds[p] = append(ph.rounds[p], roundObs{wallMs: ms(last.Sub(first)), factor: roundFactor})
		}
	}
	return ph
}

// typical reduces the repetitions of every (position, slot) to one
// number: the median of pick over the verified repetitions. Percentiles
// are then taken over these per-operation medians, so a host hiccup
// that slows one repetition of an operation moves nothing, while an
// operation that is slow every time keeps its place in the tail.
func (ph *phase) typical(pick func(obs) float64) []float64 {
	var out []float64
	for _, slots := range ph.ops {
		for _, reps := range slots {
			var xs []float64
			for _, o := range reps {
				if o.ok {
					xs = append(xs, pick(o))
				}
			}
			if len(xs) > 0 {
				out = append(out, median(xs))
			}
		}
	}
	return out
}

// blockMs is the typical duration of one block: the sum over positions
// of the median round time across repetitions.
func (ph *phase) blockMs(pick func(roundObs) float64) float64 {
	var total float64
	for _, reps := range ph.rounds {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = pick(r)
		}
		total += median(xs)
	}
	return total
}

// measuredMs is the raw time spent inside rounds.
func (ph *phase) measuredMs() float64 {
	var total float64
	for _, reps := range ph.rounds {
		for _, r := range reps {
			total += r.wallMs
		}
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// run measures one workload end to end.
func (b *bench) run() (*result, error) {
	res := &result{workload: b.w.name, metrics: map[string]float64{}}
	// lap records how long each stage of the run took (run.*_s): the
	// whole invocation has a time budget, not only the measured phase.
	last := time.Now()
	lap := func(stage string) {
		res.metrics["run."+stage+"_s"] = time.Since(last).Seconds()
		last = time.Now()
	}
	var err error
	if b.ver, err = newVerifier(b.env, b.sch, b.reps); err != nil {
		return nil, err
	}
	defer b.ver.close()
	lap("oracle")

	keep, coldNorm, coldRaw, err := b.coldBoots()
	if err != nil {
		return nil, err
	}
	d := keep.d
	defer os.RemoveAll(keep.stateDir)
	defer d.kill()
	lap("cold_boots")
	if err := b.warmUp(d); err != nil {
		return nil, err
	}
	lap("warmup")
	cpu0, err := d.cpuMs()
	if err != nil {
		return nil, err
	}
	ph := b.measure(d)
	lap("measure_and_verify")
	cpu1, err := d.cpuMs()
	if err != nil {
		return nil, fmt.Errorf("daemon died during the measured phase: %w\n%s", err, d.logTail())
	}
	if _, err := waitQuiet(b.hc, d.url); err != nil {
		return nil, err
	}
	stateBytes, err := dirBytes(keep.stateDir)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	// Every workload ends by SIGKILL: nothing the daemon would do on a
	// clean shutdown (a final compaction) may hide recovery work from
	// the restart boots.
	d.kill()
	b.hc.CloseIdleConnections()

	// A failed recovery check is a wrong answer, not a broken run.
	var check func(*daemon) error
	var lost string
	if b.sch.newInsert != nil {
		check = func(d *daemon) (err error) {
			lost, err = b.recoveryCheck(d)
			return err
		}
	}
	warmNorm, warmRaw, err := b.restartBoots(keep.stateDir, check)
	if err != nil {
		return nil, err
	}
	if lost != "" {
		res.notes = append(res.notes, lost)
	}
	lap("restart_boots")

	res.attempted, res.failed = ph.attempted, ph.failed
	okOps := float64(ph.attempted - ph.failed)
	res.ok = ph.failed == 0 && lost == "" && !ph.truncated
	res.notes = append(res.notes, ph.failures...)
	if ph.truncated {
		res.notes = append(res.notes, "measured phase truncated by the slow-host valve")
	}
	repsDone := float64(len(ph.factors)) / float64(len(b.sch.block))
	okPerBlock := okOps / repsDone
	hostFactor := median(ph.factors)
	lat := ph.typical(func(o obs) float64 { return o.wallMs * o.factor })
	m := res.metrics
	m["setup_s"] = iqm(coldNorm)
	m["restart_s"] = iqm(warmNorm)
	m["throughput_ops_s"] = ratio(okPerBlock, ph.blockMs(func(r roundObs) float64 { return r.wallMs * r.factor })/1000)
	m["latency_p50_ms"] = bandMean(lat, 50)
	m["latency_p90_ms"] = bandMean(lat, 90)
	m["first_row_p50_ms"] = bandMean(ph.typical(func(o obs) float64 { return o.firstMs * o.factor }), 50)
	m["cpu_ms_per_op"] = ratio((cpu1-cpu0)*hostFactor, okOps)
	m["peak_rss_mb"] = rss
	m["state_mb"] = float64(stateBytes) / (1 << 20)
	// Diagnostics: enough to convert every normalised number back.
	rawLat := ph.typical(func(o obs) float64 { return o.wallMs })
	q1, q3 := 0.0, 0.0
	if len(ph.factors) >= 2 {
		q1, q3 = quartiles(ph.factors)
	}
	m["host.speed_factor_p50"] = hostFactor
	m["host.speed_factor_iqr"] = q3 - q1
	m["raw.throughput_ops_s"] = ratio(okPerBlock, ph.blockMs(func(r roundObs) float64 { return r.wallMs })/1000)
	m["raw.latency_p50_ms"] = bandMean(rawLat, 50)
	m["raw.latency_p90_ms"] = bandMean(rawLat, 90)
	m["raw.setup_s"] = iqm(coldRaw)
	m["raw.restart_s"] = iqm(warmRaw)
	m["raw.cpu_ms_per_op"] = ratio(cpu1-cpu0, okOps)
	m["run.measured_s"] = ph.measuredMs() / 1000
	m["run.repetitions"] = repsDone
	m["run.ops"] = float64(res.attempted)
	m["run.clients"] = float64(b.clients)
	m["run.workers"] = float64(b.workers)
	m["run.nproc"] = float64(b.cfg.nproc)
	m["run.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	return res, nil
}

// recoveryCheck runs against a daemon restarted over the state a
// SIGKILLed run left behind: /stats must report every acknowledged
// object, and a fixed query must answer as the in-process reference
// does over seed + acknowledged inserts. lost describes what recovery
// got wrong, if anything.
func (b *bench) recoveryCheck(d *daemon) (lost string, err error) {
	st, err := fetchStats(b.hc, d.url)
	if err != nil {
		return "", err
	}
	acked := len(b.ver.inserted)
	if got := countersOf(st).ingested; got != int64(acked) {
		return fmt.Sprintf("recovery: /stats reports %d ingested objects, %d were acknowledged", got, acked), nil
	}
	// The oracle engine has been fed every insert of the run by now. A
	// straddling query needs every shard's recovered tail.
	i := len(b.sch.ops) - 1
	resp := b.ver.eng.QueryCtx(context.Background(), b.ver.reqs[i])
	if resp.Err != nil {
		return "", resp.Err
	}
	exp := expectation{dist: math.Float64bits(resp.Results[0].Dist), rows: 1, epoch: acked}
	r := doOp(b.hc, d.url, &b.sch.ops[i])
	if err := r.verify(b.ver, i, &b.sch.ops[i], exp); err != nil {
		return "recovery: query after restart: " + err.Error(), nil
	}
	return "", nil
}
