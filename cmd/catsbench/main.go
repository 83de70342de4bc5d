// catsbench regenerates the paper's evaluation artifacts (DESIGN.md §3)
// and the system's A/B comparisons, and prints them as tables. Every
// experiment is one entry in the registry below:
//
//	catsbench -exp table1    # Table 1: simulation time compression vs peers
//	catsbench -exp latency   # C1: end-to-end op latency, in-process cluster
//	catsbench -exp scaling   # C2: read throughput vs cluster size, simulated
//	catsbench -exp stealing  # C3: work-stealing batch ablation
//	catsbench -exp trace     # C6: distributed-tracing overhead on the quorum workload (A/B/C)
//	catsbench -exp million   # C5: sharded store under a large keyspace, open loop
//	catsbench -exp wal       # C7: per-shard WAL durability cost across sync policies (A/B)
//	catsbench -exp hedge     # C8: hedged quorum phases vs a gray-failing replica (A/B)
//	catsbench -exp all
//
// -json-dir writes the Result of each entry past the four paper tables as
// BENCH_<name>.json. -gate <dir> checks each gated entry's Result against
// <dir>/BENCH_baseline_<name>.json and exits non-zero on any failure;
// under -gate, -exp all runs only the gated entries. The list above is
// generated from the registry: go test ./cmd/catsbench -run TestPackageDoc
// -update.
//
// Absolute numbers depend on the machine; the shapes (monotone
// compression decay, sub-millisecond latency, near-linear scaling, batch
// advantage) are the reproduction targets. Use -quick for a fast pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
)

// entry is one registry experiment.
type entry struct {
	name, doc string
	// about is printed under the heading: the workload and how to read it.
	about string
	// run prints its own table and returns a zero Result, or returns a
	// Result for catsbench to print, record and gate.
	run func(seed int64, quick bool) (experiments.Result, error)
	// gate lists the failures of r against the checked-in baseline.
	gate func(r, base experiments.Result) []string
}

var entries = []entry{
	{name: "table1", doc: "Table 1: simulation time compression vs peers", run: table1,
		about: "paper: 4275 s simulated; 64 peers → 475x ... 8192 peers → 2.01x, ~1x at 16384"},
	{name: "latency", doc: "C1: end-to-end op latency, in-process cluster", run: latency,
		about: "paper: sub-millisecond get/put on LAN, replication degree 5, incl.\n" +
			"2 quorum round-trips, 4x serialization, 4x deserialization"},
	{name: "scaling", doc: "C2: read throughput vs cluster size, simulated", run: scaling,
		about: "paper: read-intensive 1 KiB workload scaled to 96 machines at ~100,000 reads/s;\n" +
			"the reproduction target is the near-linear shape, not the absolute rate"},
	{name: "stealing", doc: "C3: work-stealing batch ablation", run: stealing,
		about: "paper: stealing a batch of half the victim's ready components shows a\n" +
			"considerable improvement over stealing small numbers; all readiness is\n" +
			"placed on one worker queue to maximize stealing pressure"},
	{name: "trace", doc: "C6: distributed-tracing overhead on the quorum workload (A/B/C)",
		about: "3 nodes at replication degree 3, half reads: closed-loop clients pile\n" +
			"concurrent ops onto one replica set, traced at three sampling rates. The\n" +
			"overheads are the paired per-round ops/s ratios against tracing off, reported, not\n" +
			"gated (shared runners are too noisy): TestTracingUnsampledZeroAlloc in the\n" +
			"CI alloc job gates the tracing cost, since unsampled ops must allocate nothing",
		run: func(_ int64, quick bool) (experiments.Result, error) {
			return experiments.QuorumTraceAB(abSize(quick))
		}},
	{name: "million", doc: "C5: sharded store under a large keyspace, open loop", gate: gateMillion,
		about: "1M keys (100k with -quick) preloaded per replica, ops issued at 1500 ops/s\n" +
			"against the full keyspace; open loop, so latencies include queueing",
		run: func(_ int64, quick bool) (experiments.Result, error) {
			if quick {
				return experiments.MillionKV(100_000, 6_000, 1_500), nil
			}
			return experiments.MillionKV(1_000_000, 30_000, 1_500), nil
		}},
	{name: "wal", doc: "C7: per-shard WAL durability cost across sync policies (A/B)", gate: gateWAL,
		about: "3 nodes, write-heavy closed loop; every acked put is WAL-appended on all\n" +
			"replicas before the ack, so the arms price the append alone (never), group\n" +
			"commit (interval, 2ms) and fsync-per-append (always) against no WAL (mem)",
		run: func(_ int64, quick bool) (experiments.Result, error) {
			return experiments.WALBench(abSize(quick))
		}},
	{name: "hedge", doc: "C8: hedged quorum phases vs a gray-failing replica (A/B)", gate: gateHedge,
		about: "2-node cluster, every replica group is both nodes: pulsing the\n" +
			"non-coordinator slow stalls each phase at quorum-minus-one, which is the\n" +
			"hedge trigger; virtual-time latencies, deterministic per seed",
		run: func(seed int64, _ bool) (experiments.Result, error) {
			return experiments.HedgeBench(seed)
		}},
}

// abSize is the clients, ops per round and rounds of the real-time A/Bs.
func abSize(quick bool) (clients, ops, rounds int) {
	if quick {
		return 32, 1200, 2
	}
	return 48, 4000, 3
}

func main() {
	names, docs := "all", ""
	for _, e := range entries {
		names += " | " + e.name
		docs += "\n  " + e.name + ": " + e.doc
	}
	var (
		exp     = flag.String("exp", "all", "experiment to run: "+names+docs)
		seed    = flag.Int64("seed", 2012, "random seed")
		quick   = flag.Bool("quick", false, "smaller sizes for a fast pass")
		jsonDir = flag.String("json-dir", "", "directory to write BENCH_<name>.json results into")
		gateDir = flag.String("gate", "", "directory of BENCH_baseline_<name>.json files to gate each gated entry against")
	)
	flag.Parse()

	var run []entry
	for _, e := range entries {
		if e.name == *exp || *exp == "all" && (*gateDir == "" || e.gate != nil) {
			run = append(run, e)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "catsbench: unknown experiment %q\n", *exp)
		os.Exit(1)
	}
	failed := false
	for _, e := range run {
		fmt.Printf("== %s ==\n   (%s)\n\n", e.doc, strings.ReplaceAll(e.about, "\n", "\n    "))
		r, err := e.run(*seed, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "catsbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		if r.Arms == nil {
			fmt.Println()
			continue
		}
		r.Name = e.name
		printResult(r)
		if err := writeJSON(*jsonDir, r); err != nil {
			fmt.Fprintf(os.Stderr, "catsbench: %v\n", err)
			os.Exit(1)
		}
		if *gateDir == "" || e.gate == nil {
			continue
		}
		fails, err := gate(e, r, *gateDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "catsbench: %s gate: %v\n", e.name, err)
			os.Exit(1)
		}
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "catsbench: %s gate FAIL: %s\n", e.name, f)
		}
		if len(fails) == 0 {
			fmt.Printf("   %s gate: PASS\n\n", e.name)
		}
		failed = failed || len(fails) > 0
	}
	if failed {
		os.Exit(1)
	}
}

// gate reads e's baseline from dir and returns r's failures against it.
func gate(e entry, r experiments.Result, dir string) ([]string, error) {
	path := filepath.Join(dir, "BENCH_baseline_"+e.name+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base experiments.Result
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e.gate(r, base), nil
}

// atLeast fails when got is below frac of the baseline's value, or when
// the baseline has no such value (a floor of zero would gate nothing).
func atLeast(what string, got, base, frac float64) []string {
	switch {
	case base <= 0:
		return []string{"baseline has no " + what}
	case got < frac*base:
		return []string{fmt.Sprintf("%s %.4g below floor %.4g (%.0f%% of baseline %.4g)", what, got, frac*base, 100*frac, base)}
	}
	return nil
}

// gateMillion: the load completes with no failed op, within 10% of the
// baseline throughput, and exports per-shard occupancy.
func gateMillion(r, base experiments.Result) []string {
	a := r.Arm("million")
	f := atLeast("ops/s", a.OpsPS, base.Arm("million").OpsPS, 0.9)
	if a.Failed > 0 {
		f = append(f, fmt.Sprintf("%d operations failed", a.Failed))
	}
	if a.Counts["non_empty_shards"] == 0 {
		f = append(f, "no per-shard occupancy exported")
	}
	return f
}

// gateWAL: the sync=always arm really appended and fsynced, within 10% of
// the baseline throughput.
func gateWAL(r, base experiments.Result) []string {
	a := r.Arm("always")
	f := atLeast("sync=always ops/s", a.OpsPS, base.Arm("always").OpsPS, 0.9)
	if a.Counts["wal_appends"] == 0 || a.Counts["wal_syncs"] == 0 {
		f = append(f, "sync=always arm recorded no WAL appends or fsyncs: the A/B is inert")
	}
	return f
}

// gateHedge: hedges fired and won, no measured op failed, hedging beats
// the unhedged p99, and the p99 improvement keeps 75% of the baseline's.
func gateHedge(r, base experiments.Result) []string {
	off, on := r.Arm("off"), r.Arm("on")
	f := atLeast("p99 improvement", r.Metrics["improvement"], base.Metrics["improvement"], 0.75)
	if on.Counts["hedges"] == 0 || on.Counts["hedge_wins"] == 0 {
		f = append(f, "no hedges fired or won: the A/B is inert")
	}
	if off.Failed > 0 || on.Failed > 0 {
		f = append(f, fmt.Sprintf("measured ops failed (off=%d on=%d)", off.Failed, on.Failed))
	}
	if on.P99 >= off.P99 {
		f = append(f, fmt.Sprintf("hedging no longer improves p99 (off=%v on=%v)", off.P99, on.P99))
	}
	return f
}

// printResult prints one row per arm, the per-round ops/s of multi-round
// arms, and the derived metrics.
func printResult(r experiments.Result) {
	fmt.Printf("%12s  %10s  %8s  %10s  %10s  %10s  %s\n", "Arm", "ops/s", "Failed", "P50", "P99", "Max", "Counters")
	for _, a := range r.Arms {
		var counts []string
		for _, k := range sortedKeys(a.Counts) {
			counts = append(counts, fmt.Sprintf("%s=%d", k, a.Counts[k]))
		}
		fmt.Printf("%12s  %10.0f  %8d  %10v  %10v  %10v  %s\n", a.Name, a.OpsPS, a.Failed,
			a.P50.Round(time.Microsecond), a.P99.Round(time.Microsecond), a.Max.Round(time.Microsecond),
			strings.Join(counts, " "))
	}
	for _, a := range r.Arms {
		if len(a.RoundPS) > 1 {
			fmt.Printf("   per-round ops/s %-12s %.0f\n", a.Name+":", a.RoundPS)
		}
	}
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Printf("   %s: %.4g\n", k, r.Metrics[k])
	}
	fmt.Println()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeJSON writes r to dir/BENCH_<name>.json (no-op when dir is empty).
func writeJSON(dir string, r experiments.Result) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+r.Name+".json")
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("   wrote %s\n\n", path)
	return nil
}

func table1(seed int64, quick bool) (experiments.Result, error) {
	peerCounts := []int{64, 128, 256, 512, 1024}
	simTime := 60 * time.Second
	if quick {
		peerCounts = []int{64, 128, 256}
		simTime = 20 * time.Second
	}
	fmt.Printf("   (here: %v simulated per row, steady-state lookup workload)\n\n", simTime)
	fmt.Printf("%8s  %14s  %14s  %12s  %12s\n", "Peers", "Simulated", "Wall", "Compression", "Events")
	for _, n := range peerCounts {
		r := experiments.Table1(seed, n, simTime)
		fmt.Printf("%8d  %14v  %14v  %11.2fx  %12d\n",
			r.Peers, r.SimulatedDuration.Round(time.Millisecond),
			r.WallDuration.Round(time.Millisecond), r.Compression, r.DiscreteEvents)
	}
	return experiments.Result{}, nil
}

func latency(_ int64, quick bool) (experiments.Result, error) {
	ops := 2000
	if quick {
		ops = 400
	}
	fmt.Printf("%6s %5s %10s  %10s  %10s  %10s  %10s  %8s\n",
		"Nodes", "Repl", "ValueSize", "Mean", "P50", "P99", "Max", "<1ms")
	for _, r := range []experiments.LatencyResult{
		experiments.Latency(8, 3, 1024, ops),
		experiments.Latency(8, 5, 1024, ops),
	} {
		fmt.Printf("%6d %5d %10d  %10v  %10v  %10v  %10v  %7.1f%%\n",
			r.Nodes, r.Replication, r.ValueSize,
			r.Mean.Round(time.Microsecond), r.P50.Round(time.Microsecond),
			r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond),
			100*r.SubMilli)
	}
	return experiments.Result{}, nil
}

func scaling(seed int64, quick bool) (experiments.Result, error) {
	sizes := []int{8, 16, 32, 48, 64, 96}
	opsPerNode := 400
	if quick {
		sizes = []int{8, 16, 32}
		opsPerNode = 150
	}
	fmt.Printf("%8s  %10s  %8s  %16s  %14s  %12s\n",
		"Nodes", "Ops", "Failed", "Aggregate ops/s", "Per-node ops/s", "Mean latency")
	base := 0.0
	for _, n := range sizes {
		r := experiments.Scaling(seed, n, 8, opsPerNode)
		scaleNote := ""
		if base == 0 {
			base = r.ThroughputPS / float64(r.Nodes)
		} else {
			scaleNote = fmt.Sprintf("  (%.2fx linear)", r.PerNodePS/base)
		}
		fmt.Printf("%8d  %10d  %8d  %16.0f  %14.0f  %12v%s\n",
			r.Nodes, r.Ops, r.Failed, r.ThroughputPS, r.PerNodePS,
			r.MeanLatency.Round(100*time.Microsecond), scaleNote)
	}
	return experiments.Result{}, nil
}

func stealing(_ int64, quick bool) (experiments.Result, error) {
	components, events := 512, 2000
	if quick {
		components, events = 256, 500
	}
	// At least 4 workers so the stealing machinery engages even on hosts
	// with few cores (on a single-core host this measures the mechanism's
	// behaviour and overhead, not parallel speedup).
	workers := max(runtime.NumCPU(), 4)
	fmt.Printf("%8s  %6s  %10s  %12s  %12s  %10s  %10s\n",
		"Workers", "Batch", "Events", "Wall", "Events/ms", "Steals", "Stolen")
	for _, batchHalf := range []bool{false, true} {
		r := experiments.Stealing(workers, components, events, batchHalf)
		fmt.Printf("%8d  %6s  %10d  %12v  %12.0f  %10d  %10d\n",
			r.Workers, r.Batch, r.Events, r.Wall.Round(time.Millisecond),
			r.EventsPerMS, r.Steals, r.Stolen)
	}
	return experiments.Result{}, nil
}
