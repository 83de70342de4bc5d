// catssim runs one named scenario from the experiments registry
// (internal/experiments/scenario.go; catssim -h lists them) and exits
// non-zero unless the run passes every gate the registry declares for it.
// The sim and local scenarios are the paper's two whole-system execution
// modes (Figure 12): the same boot → churn ∥ lookups workload, sized by
// -boot/-churn/-lookups/-ops/-tail, in virtual time or in real time over
// the in-process loopback network. The identical system code runs in
// every scenario; only the injected transport, timer and scheduler
// differ. The recovery scenario runs its crash phase in a child catssim,
// handing it the data directory through -dir.
//
// The report on stdout holds only seed-determined values, so two runs of
// a deterministic scenario print identical bytes; wall time goes to
// stderr.
//
//	catssim -scenario chaos -seed 3
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	names := make([]string, len(experiments.Scenarios))
	usage := "scenario to run:"
	for i, s := range experiments.Scenarios {
		names[i] = s.Name
		usage += "\n  " + s.Name + ": " + s.Doc
	}
	var (
		name    = flag.String("scenario", "sim", usage)
		seed    = flag.Int64("seed", 42, "random seed (schedule and simulation)")
		boot    = flag.Int("boot", 100, "sim/local: nodes joined by the boot process")
		churn   = flag.Int("churn", 50, "sim/local: churn events (half joins, half failures)")
		lookups = flag.Int("lookups", 1000, "sim/local: ring lookups issued")
		ops     = flag.Int("ops", 200, "sim/local: put/get operations issued (half each)")
		tail    = flag.Duration("tail", 30*time.Second, "sim/local: extra run time after the scenario ends")
		dir     = flag.String("dir", "", "recovery: run only the crash phase against this data directory (the recovery scenario starts its own child this way)")
	)
	flag.Parse()

	sc, ok := experiments.ScenarioByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "catssim: unknown scenario %q (want %s)\n", *name, strings.Join(names, " | "))
		os.Exit(2)
	}
	if *dir != "" {
		if sc.Name != "recovery" {
			fmt.Fprintln(os.Stderr, "catssim: -dir applies only to -scenario recovery")
			os.Exit(2)
		}
		// Returning at all means the scheduled SIGKILL never fired.
		err := experiments.RecoveryCrash(*seed, experiments.RecoveryConfig{}, *dir)
		fmt.Fprintln(os.Stderr, "catssim recovery crash phase:", err)
		os.Exit(1)
	}

	start := time.Now()
	o, err := sc.Run(*seed, experiments.Params{
		Boot: *boot, Churn: *churn, Lookups: *lookups, Ops: *ops, Tail: *tail,
		CrashCmd: crashCmd,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "catssim %s: %v\n", sc.Name, err)
		os.Exit(1)
	}
	o.Report(os.Stdout)
	wall := time.Since(start)
	fmt.Fprintf(os.Stderr, "catssim %s: wall=%v", sc.Name, wall.Round(time.Millisecond))
	if o.Sim.SimulatedDuration > 0 {
		fmt.Fprintf(os.Stderr, " compression=%.2fx", float64(o.Sim.SimulatedDuration)/float64(wall))
	}
	fmt.Fprintln(os.Stderr)

	failures := o.Failures()
	if len(failures) == 0 {
		return
	}
	// Cite the implicated operations' assembled cross-node timelines so a
	// violation is debuggable from the output alone.
	for _, tl := range o.ViolationTimelines() {
		fmt.Fprintf(os.Stderr, "catssim %s: implicated op: trace=%s %s key=%s outcome=%s restarts=%d nodes=%v spans=%d\n",
			sc.Name, tl.TraceHex, tl.Name, tl.Key, tl.Outcome, tl.Restarts, tl.Nodes, len(tl.Spans))
		for _, s := range tl.Spans {
			fmt.Fprintf(os.Stderr, "    %-14s %-10s attempt=%d epoch=%d node=%s span=%016x parent=%016x link=%016x\n",
				s.Name, s.Outcome, s.Attempt, s.Epoch, s.Node, s.ID, s.Parent, s.Link)
		}
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "catssim %s: FAILED: %s\n", sc.Name, f)
	}
	os.Exit(1)
}

// crashCmd runs the recovery crash phase in a child of this same binary.
func crashCmd(seed int64, dir string) *exec.Cmd {
	self, err := os.Executable()
	if err != nil {
		self = os.Args[0]
	}
	return exec.Command(self, "-scenario", "recovery", "-seed", strconv.FormatInt(seed, 10), "-dir", dir)
}
