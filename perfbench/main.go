// Command perfbench is the repository's layer-ledger benchmark. It runs one
// workload against the CATS store or the simulation kernel and prints every
// metric by name, with its unit and sample count, followed by one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the JSON carries the end-to-end metrics, measured with no
// instrumentation beyond the runtime's always-on counters. With -trace 1 the
// benchmark runs the same generated ops through nodes it assembles itself
// with tap components on the Network and Timer ports, records spans, and
// the JSON carries the per-layer metrics instead.
//
// Run it through run.py, which builds this package first:
//
//	python3 perfbench/run.py --workload tcp-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// procStart is taken as early as the process allows: setup_s counts from
// it for the first setup round.
var procStart = time.Now()

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

// row is one printed metric. n is the sample count behind it (ops, rounds,
// replays); note qualifies it in the human-readable table only.
type row struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// report collects a run's outcome: the printed table, the JSON metrics and
// the correctness verdict.
type report struct {
	rows      []row
	attempted int
	failed    int
	problems  []string
}

func (r *report) add(name string, value float64, unit string, n int, note string) {
	r.rows = append(r.rows, row{name: name, value: value, unit: unit, n: n, note: note})
}

// fail records a failed output check. Any failure makes the run report no
// metrics and exit non-zero.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) value(name string) (row, bool) {
	for _, x := range r.rows {
		if x.name == name {
			return x, true
		}
	}
	return row{}, false
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, rep *report) error{
	"tcp-read":      runKV,
	"durable-write": runKV,
	"sim-lookup":    runSim,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: tcp-read, durable-write or sim-lookup")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated op stream and the cluster")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, 1: traced run with per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for stores and span files")
	flag.Parse()
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	// The nodes log through slog.Default; their warnings go to stderr so
	// stdout stays the report.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError})))

	dir, err := os.MkdirTemp(cfg.workdir, "perfbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: work directory: %v\n", err)
		os.Exit(2)
	}
	cfg.workdir = dir

	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, trace)
	rep := &report{}
	if err := run(cfg, rep); err != nil {
		rep.fail("%v", err)
	}
	code := emit(os.Stdout, cfg, rep)
	os.RemoveAll(dir) // os.Exit skips deferred calls
	os.Exit(code)
}

// emit prints the table and the final JSON line and returns the exit code.
func emit(w io.Writer, cfg config, rep *report) int {
	fmt.Fprintf(w, "%-32s %14s  %-7s %8s  %s\n", "metric", "value", "unit", "n", "how measured")
	for _, x := range rep.rows {
		fmt.Fprintf(w, "%-32s %14.6g  %-7s %8d  %s\n", x.name, x.value, x.unit, x.n, x.note)
		if m, ok := layerByName(x.name); ok && cfg.trace {
			fmt.Fprintf(w, "%-32s %14s  %-7s %8s  should move: %s\n", "", "", "", "", m.moves)
		}
	}
	names := endToEnd
	if cfg.trace {
		names = perLayerNames()
	}
	metrics := make(map[string]any, len(names))
	for _, name := range names {
		x, ok := rep.value(name)
		if !ok {
			rep.fail("metric %s was not measured", name)
			continue
		}
		if math.IsNaN(x.value) || math.IsInf(x.value, 0) {
			rep.fail("metric %s is not finite (%v)", name, x.value)
			continue
		}
		metrics[name] = map[string]any{"value": x.value, "unit": x.unit}
	}
	if rep.attempted < 1 {
		rep.fail("no operation was attempted")
	}
	out := map[string]any{
		"correct":   len(rep.problems) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	}
	code := 0
	if len(rep.problems) > 0 {
		for _, p := range rep.problems {
			fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
		}
		out["metrics"] = map[string]any{}
		code = 1
	}
	b, _ := json.Marshal(out) // maps of strings and numbers always marshal
	fmt.Fprintln(w, string(b))
	return code
}

// endToEnd names the metrics printed with -trace 0, in BENCHMARK.json order.
var endToEnd = []string{
	"setup_s", "capacity_ops_s", "cpu_us_per_op",
	"allocs_per_op", "alloc_bytes_per_op", "heap_live_mb",
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the q-quantile of sorted xs by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// spanFile names the file a traced run writes its spans to. One file per
// workload, overwritten by each traced run, so repeated runs do not grow
// the work directory.
func spanFile(cfg config) string {
	return filepath.Join(filepath.Dir(cfg.workdir), "spans-"+cfg.workload+".csv")
}
