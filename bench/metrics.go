package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricSpec names one metric. BENCHMARK.json lists the same names,
// units, directions and bounds; a test keeps the two in step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	doc    string
}

// endToEnd are the gated metrics: what a user of asrsd sees. Every
// workload reports all of them. Timings are host-speed normalised
// (calib.go); bounds come from CALIBRATION.md.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, doc: "cold boot over an empty state dir (builds and saves indexes and pyramids), exec to first 200 on /readyz; interquartile mean of 9"},
	{Name: "restart_s", Unit: "s", Better: "lower", Bound: 0.25, doc: "boot over the state dir the SIGKILLed run left (pyramid files; WAL and snapshots on shard-ingest), to ready; interquartile mean of 9"},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25, doc: "verified operations per block over the typical block time (sum of per-position median round times)"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, doc: "request sent to last byte; 45th-55th percentile band of the per-operation medians"},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, doc: "request sent to last byte; 85th-95th percentile band of the per-operation medians"},
	{Name: "first_row_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, doc: "request sent to first NDJSON row on /v1/search, to first response byte elsewhere; same estimator as latency_p50_ms"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25, doc: "daemon user+system CPU over the measured phase per verified operation"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15, doc: "daemon resident-set high-water mark (VmHWM) at the end of the measured phase"},
	{Name: "state_mb", Unit: "MiB", Better: "lower", Bound: 0.02, doc: "bytes in the state dir after the measured phase with no compaction in flight: pyramids, WAL, snapshots"},
}

// formatMetrics renders metrics as the contract's JSON object.
func formatMetrics(specs []metricSpec, values map[string]float64) map[string]any {
	out := make(map[string]any, len(specs))
	for _, s := range specs {
		out[s.Name] = map[string]any{"value": values[s.Name], "unit": s.Unit}
	}
	return out
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   map[string]any `json:"metrics"`
}

func writeContractLine(w io.Writer, res *result, specs []metricSpec) error {
	b, err := json.Marshal(contractLine{
		Correct:   res.ok,
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   formatMetrics(specs, res.metrics),
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printTable prints every metric by name and unit: the gated ones
// first, then whatever else the run recorded (raw.*, host.*, run.*).
func printTable(w io.Writer, res *result, specs []metricSpec) {
	fmt.Fprintf(w, "workload %s: %d ops attempted, %d failed, correct=%v\n", res.workload, res.attempted, res.failed, res.ok)
	listed := map[string]bool{}
	for _, s := range specs {
		listed[s.Name] = true
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", s.Name, res.metrics[s.Name], s.Unit)
	}
	var rest []string
	for name := range res.metrics {
		if !listed[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, res.metrics[name], unitOf(name))
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// unitOf infers a diagnostic's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s") && !strings.HasSuffix(name, "_ops_s"):
		return "s"
	case strings.HasSuffix(name, "_ops_s"):
		return "1/s"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"), strings.Contains(name, "speed_factor"):
		return "ratio"
	}
	return "count"
}
