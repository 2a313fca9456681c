// Command perfbench is the repository's end-to-end benchmark of the solve
// service. It starts an in-process alad server with the daemon's default
// configuration, drives it over loopback HTTP through the public
// serve.Client with closed-loop clients, checks every answer, and prints
// every metric by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload hot_operator --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes the traced
// run and reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
)

// metricDef names one reported metric and its unit. The lists match
// BENCHMARK.json at the repository root (a test holds them together).
type metricDef struct {
	name string
	unit string
}

var endToEndMetrics = []metricDef{
	{"solves_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"correct_frac", "ratio"},
	{"analog_ms_per_solve", "ms"},
	{"cpu_ms_per_solve", "ms"},
	{"peak_heap_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metricDef{
	{"serve.handler_ms", "ms"},
	{"serve.wire_ms", "ms"},
	{"serve.req_bytes", "B"},
	{"serve.resp_bytes", "B"},
	{"serve.rejected", "count"},
	{"serve.waves", "count"},
	{"serve.wave_lanes_mean", "lanes"},
	{"serve.coalesced_frac", "ratio"},
	{"serve.coalesce_wait_ms", "ms"},
	{"serve.pool_hit_ratio", "ratio"},
	{"serve.pool_evictions", "count"},
	{"serve.pool_builds", "count"},
	{"serve.pool_calibrations", "count"},
	{"serve.registry_hit_ratio", "ratio"},
	{"serve.registrations", "count"},
	{"serve.register_ms", "ms"},
	{"jobs.submit_frac", "ratio"},
	{"jobs.wal_bytes_per_job", "B"},
	{"jobs.wave_lanes_mean", "lanes"},
	{"jobs.lease_expired", "count"},
	{"jobs.attempts_mean", "count"},
	{"core.solve_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.begin_session_ms", "ms"},
	{"core.runs_per_solve", "count"},
	{"core.refinements_per_solve", "count"},
	{"core.rescales_per_solve", "count"},
	{"chip.calibrate_ms", "ms"},
	{"chip.configure_ms", "ms"},
	{"chip.exec_ms", "ms"},
	{"chip.readback_ms", "ms"},
	{"chip.rebuilds", "count"},
	{"isa.transactions_per_solve", "count"},
	{"circuit.rk4_steps_per_solve", "steps"},
	{"circuit.ns_per_step", "ns"},
	{"circuit.lane_width_mean", "lanes"},
	{"trace.overhead_pct", "%"},
}

func main() {
	os.Exit(runMain(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	traceFlag := 0
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: hot_operator | operator_churn | durable_jobs")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured run in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&cfg.reportDir, "report-dir", "", "directory for the run's JSON report and spans (empty: none)")
	stateDir := fs.String("state-dir", "", "directory under which durable workloads keep their journals (empty: the system temporary directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	cfg.trace = traceFlag == 1
	if cfg.reportDir != "" {
		if err := os.MkdirAll(cfg.reportDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	// Durable workloads keep their job and operator journals here; the
	// directory is removed when the run ends.
	stateRoot, err := os.MkdirTemp(*stateDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(stateRoot)
	cfg.stateRoot = stateRoot

	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if cfg.reportDir != "" {
		if err := writeReport(cfg.reportDir, rep, cfg.seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing report: %v\n", err)
			return 1
		}
	}
	if err := printResult(stdout, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult prints the provenance and every metric, one a line, then
// the JSON result as the last line.
func printResult(w io.Writer, rep *report) error {
	defs := endToEndMetrics
	if rep.Trace {
		defs = perLayerMetrics
	}
	prov, err := json.Marshal(rep.Provenance)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s  trace %v\nprovenance %s\n", rep.Workload, rep.Trace, prov)
	fmt.Fprintf(w, "requests attempted %d  failed %d  error_frac %g\n", rep.Attempted, rep.Failed, rep.ErrorFrac)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := rep.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "%-30s %14.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
