// Command perfbench is the repository's benchmark. It runs one named
// workload for a given time, checks every result the program returns, and
// prints each metric by name with its unit and sample count; its last
// line of output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload gemm-std --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload partly untraced and partly traced, runs the outside-in
// layer probes, writes the spans as Chrome-trace JSON under the build
// directory, validates them, and reports the per-layer metrics. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets up its engine or server; it
// reports the median set-up time.
const setupReps = 3

// minGemmCalls is the least number of calls a GEMM run measures, so that
// ten calls lie beyond its reported p90.
const minGemmCalls = 100

type runOpts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	rec     *recorder
	workers int
}

// result tallies the operations a run attempted and how many failed.
type result struct {
	attempted, failed int
}

func (r *result) attempt(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

var workloads = map[string]func(runOpts, *result) map[string]metric{
	"gemm-std":  func(o runOpts, r *result) map[string]metric { return runGEMM(gemmStdConfigs(), o, r) },
	"gemm-fast": func(o runOpts, r *result) map[string]metric { return runGEMM(gemmFastConfigs(), o, r) },
	"serve-mix": runServe,
}

func main() {
	workload := flag.String("workload", "", "workload: gemm-std, gemm-fast or serve-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 20, "measured time in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	o := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		workers: runtime.NumCPU()}
	runtime.GOMAXPROCS(o.workers)
	if o.trace {
		o.rec = newRecorder()
	}

	res := &result{}
	metrics := run(o, res)
	if !o.trace {
		metrics["ok_frac"] = metric{1 - float64(res.failed)/float64(res.attempted), "fraction", res.attempted}
		if _, ok := metrics["mem_peak_mb"]; !ok {
			metrics["mem_peak_mb"] = metric{peakRSSMiB(), "MiB", 1}
		}
	} else {
		// Trace files go beside the build, inside the checkout.
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		path := filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		sum, err := o.rec.write(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trace %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("trace %s: %d spans on %d tracks, valid\n", path, sum.Spans, sum.Tracks)
	}
	for name, m := range metrics {
		if !metricName.MatchString(name) || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %q has no finite value (%v)\n", name, m.Value)
			os.Exit(1)
		}
	}
	if err := report(os.Stdout, *workload, res, metrics); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// report prints one line per metric and then the result object.
func report(w *os.File, workload string, res *result, metrics map[string]metric) error {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s: %d ops attempted, %d failed\n", workload, res.attempted, res.failed)
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	js := map[string]jm{}
	for _, n := range names {
		m := metrics[n]
		fmt.Fprintf(w, "%-32s %14.6g %-8s n=%d\n", n, m.Value, m.Unit, m.Samples)
		js[n] = jm{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   js,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
