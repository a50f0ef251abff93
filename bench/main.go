// Command bench is the repository's benchmark: it spawns cmd/asrsd as a
// child process per workload, drives it over HTTP from this one process
// with closed-loop clients (callers of asrsd wait for their answer),
// verifies every answer against an in-process reference, and prints
// every metric by name and unit. See README.md in this directory.
//
//	bash bench/run.sh --workload f1-distinct --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh                      # all four workloads, untraced
//	bash bench/run.sh --trace 1            # per-layer metrics and bench/out/trace-*.json
//	bash bench/run.sh --selfcheck --runs 5 # A/A calibration table
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 15

// hardTimeout bounds one workload run; the contract allows 180 s.
const hardTimeout = 170 * time.Second

func main() {
	var (
		name      = flag.String("workload", "", "run one workload (default: all four)")
		seed      = flag.Int64("seed", 42, "operation-generation seed")
		seconds   = flag.Float64("seconds", defaultSeconds, "nominal length of the measured phase per workload")
		trace     = flag.Int("trace", 0, "1 = traced pass: per-layer metrics and bench/out/trace-<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "run two back-to-back sets of the same code and compare them")
		runs      = flag.Int("runs", 5, "runs per set with -selfcheck")
		root      = flag.String("root", "", "repository root (default: the directory above this package)")
		asrsd     = flag.String("asrsd", "", "asrsd binary (default: build cmd/asrsd into <root>/.bench_build)")
	)
	flag.Parse()
	if err := realMain(*name, *seed, *seconds, *trace, *selfcheck, *runs, *root, *asrsd); err != nil {
		killAll()
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(name string, seed int64, seconds float64, trace int, selfcheck bool, runs int, root, asrsd string) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var ws []*workload
	if name == "" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else if w := workloadByName(name); w != nil {
		ws = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", name)
	}

	root, err := findRoot(root)
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	outDir := filepath.Join(root, "bench", "out")
	for _, dir := range []string{build, outDir, filepath.Join(build, "tmp")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if asrsd == "" {
		asrsd = filepath.Join(build, "asrsd")
		cmd := exec.Command("go", "build", "-o", asrsd, "./cmd/asrsd")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("building cmd/asrsd: %v\n%s", err, out)
		}
	}
	tmp, err := os.MkdirTemp(filepath.Join(build, "tmp"), "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Children die with us: on a signal, and when a workload overruns.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.RemoveAll(tmp)
		os.Exit(130)
	}()

	cfg := runConfig{asrsd: asrsd, tmp: tmp, outDir: outDir, seed: seed, seconds: seconds, nproc: runtime.NumCPU()}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s %s/%s, reference kernel nominal %.1f ms\n",
		cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, RefNominalMs)

	if selfcheck {
		return runSelfcheck(cfg, ws, runs)
	}
	for _, w := range ws {
		res, specs, err := runOne(cfg, w, trace != 0)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printTable(os.Stdout, res, specs)
		if err := writeContractLine(os.Stdout, res, specs); err != nil {
			return err
		}
	}
	return nil
}

// runOne runs one workload, traced or untraced, under the watchdog.
func runOne(cfg runConfig, w *workload, traced bool) (*result, []metricSpec, error) {
	watchdog := time.AfterFunc(hardTimeout, func() {
		killAll()
		os.RemoveAll(cfg.tmp)
		fmt.Fprintf(os.Stderr, "bench: %s exceeded the hard timeout of %v\n", w.name, hardTimeout)
		os.Exit(3)
	})
	defer watchdog.Stop()
	b, err := newBench(cfg, w)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		res, err := b.runTraced()
		return res, perLayer, err
	}
	res, err := b.run()
	return res, endToEnd, err
}

// findRoot locates the repository root: the directory holding the
// go.mod of module asrs.
func findRoot(root string) (string, error) {
	if root != "" {
		return filepath.Abs(root)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			var mod string
			if _, err := fmt.Sscanf(string(b), "module %s", &mod); err == nil && mod == "asrs" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module asrs above the working directory; pass -root")
		}
		dir = parent
	}
}
