// catssim runs a scenario-driven CATS experiment, in either of the paper's
// two whole-system execution modes:
//
//   - -mode sim: deterministic simulation in virtual time (Figure 12 left)
//     — thousands of nodes in one process, reproducible for a fixed seed;
//   - -mode local: real-time execution over the in-process loopback
//     network (Figure 12 right) — the local interactive stress-test mode.
//   - -mode chaos: the robustness gate — quorum reads/writes through
//     crash-restart churn and link flaps in virtual time, asserting
//     linearizability and zero lost acknowledged writes (exit 1 on
//     violation). Byte-identical output per seed; CI diffs it.
//   - -mode gray: the gray-failure gate — straggler pulses (slow, never
//     dead, replicas) and a shed-inducing burst; asserts linearizability,
//     zero lost acked writes, AND that the resilience machinery engaged
//     (hedges fired, replicas shed). Byte-identical output per seed.
//
// The identical system code (the CATS node composite and the simulator
// host component) runs in both modes; only the injected transport, timer,
// and scheduler differ.
//
//	catssim -mode sim -boot 1000 -churn 500 -lookups 5000 -seed 42
package main

import (
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/simulation"
)

func main() {
	var (
		mode    = flag.String("mode", "sim", "execution mode: sim | local | chaos | gray | recovery")
		seed    = flag.Int64("seed", 42, "random seed (schedule and simulation)")
		boot    = flag.Int("boot", 100, "nodes joined by the boot process")
		churn   = flag.Int("churn", 50, "churn events (half joins, half failures)")
		lookups = flag.Int("lookups", 1000, "ring lookups issued")
		ops     = flag.Int("ops", 200, "put/get operations issued (half each)")
		tail    = flag.Duration("tail", 30*time.Second, "extra run time after the scenario ends")
		trace   = flag.Bool("trace", false, "sim mode: digest every handler execution and print it (determinism check)")
		long    = flag.Bool("long", false, "chaos mode: long-outage variant (crash windows double the suspicion threshold)")
		phase   = flag.String("phase", "", "recovery mode: crash (run workload, SIGKILL the whole cluster) | recover (rebuild from -wal-dir and audit)")
		walDir  = flag.String("wal-dir", "", "recovery mode: data directory root holding per-node WAL/snapshot state; chaos mode: run durable (must start empty for a deterministic diff)")
	)
	flag.Parse()

	if *mode == "chaos" {
		runChaos(*seed, *trace, *long, *walDir)
		return
	}
	if *mode == "gray" {
		runGray(*seed)
		return
	}
	if *mode == "recovery" {
		runRecovery(*seed, *phase, *walDir)
		return
	}

	sc := buildScenario(*boot, *churn, *lookups, *ops)
	sched, err := sc.Generate(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "catssim:", err)
		os.Exit(1)
	}
	fmt.Printf("catssim: scenario has %d commands over %v (seed %d)\n",
		len(sched.Events), sched.End.Round(time.Millisecond), *seed)

	nodeCfg := cats.NodeConfig{
		ReplicationDegree: 3,
		FDInterval:        200 * time.Millisecond,
		StabilizePeriod:   300 * time.Millisecond,
		CyclonPeriod:      500 * time.Millisecond,
		OpTimeout:         time.Second,
		RouterEntryTTL:    10 * time.Second,
		RouterSweepPeriod: 2 * time.Second,
	}

	switch *mode {
	case "sim":
		runSimulated(*seed, sched, nodeCfg, *tail, *trace)
	case "local":
		runLocal(sched, nodeCfg, *tail)
	default:
		fmt.Fprintf(os.Stderr, "catssim: unknown mode %q\n", *mode)
		os.Exit(1)
	}
}

// runChaos runs the crash-restart churn scenario (experiments.Churn) and
// exits non-zero unless the recorded history is linearizable with zero
// lost acknowledged writes. Output is purely virtual-time derived, so two
// runs with one seed must print byte-identical reports — the CI chaos job
// diffs them (plus the trace digest under -trace). With -wal-dir the
// cluster runs on durable stores (WAL counters in the report become
// non-zero); the directory must start empty for the diff to hold, since
// replaying a previous run's state shifts the counters.
func runChaos(seed int64, trace, long bool, walDir string) {
	var digest *traceDigest
	simOpts := []simulation.SimOption{}
	if trace {
		digest = newTraceDigest()
		simOpts = append(simOpts, simulation.WithTraceSink(digest))
	}
	cfg := experiments.ChurnConfig{}
	variant := "default"
	if long {
		cfg = experiments.LongOutageChurnConfig()
		variant = "long-outage"
	}
	cfg.DataDir = walDir
	if walDir != "" {
		variant += "+durable"
	}
	r := experiments.Churn(seed, cfg, simOpts...)
	fmt.Printf("catssim chaos: seed=%d variant=%s nodes=%d keys=%d simulated=%v events=%d execs=%d\n",
		seed, variant, r.Nodes, r.Keys, r.SimulatedDuration, r.DiscreteEvents, r.HandlerExecutions)
	fmt.Printf("  acked_puts=%d ok_gets=%d failed_puts=%d failed_gets=%d unresolved=%d\n",
		r.AckedPuts, r.OKGets, r.FailedPuts, r.FailedGets, r.UnresolvedOps)
	fmt.Printf("  crashes=%d restarts=%d flaps=%d churn_dropped=%d\n",
		r.Crashes, r.Restarts, r.Flaps, r.ChurnDropped)
	fmt.Printf("  handoff_keys=%d handoff_bytes=%d handoff_transfers=%d max_epoch=%d\n",
		r.HandoffKeys, r.HandoffBytes, r.HandoffTransfers, r.MaxEpoch)
	fmt.Printf("  store_keys=%d store_shards_in_use=%d store_max_shard_share=%.2f\n",
		r.StoreKeys, r.StoreShardsInUse, r.StoreMaxShardShare)
	fmt.Printf("  durability: wal_appends=%d wal_syncs=%d wal_snapshots=%d wal_replays=%d wal_errors=%d\n",
		r.WALAppends, r.WALSyncs, r.WALSnapshots, r.WALReplays, r.WALErrors)
	fmt.Printf("  linearizable=%t lost_acked_writes=%d\n", r.Linearizable, r.LostAckedWrites)
	fmt.Printf("  spans=%d timelines=%d cross_node=%d restart_traces=%d trace_digest=%016x\n",
		r.TraceSpans, r.TraceTimelines, r.CrossNodeTraces, r.RestartTraces, r.TraceDigest)
	if digest != nil {
		fmt.Printf("  trace: records=%d digest=%016x\n", digest.n, digest.h.Sum64())
	}
	if !r.Linearizable || r.LostAckedWrites != 0 {
		// Cite the offending operations' assembled cross-node timelines so
		// the failure is debuggable from the report alone.
		for _, tl := range r.ViolationTimelines() {
			fmt.Fprintf(os.Stderr, "catssim chaos: implicated op: trace=%s %s key=%s outcome=%s restarts=%d nodes=%v spans=%d\n",
				tl.TraceHex, tl.Name, tl.Key, tl.Outcome, tl.Restarts, tl.Nodes, len(tl.Spans))
			for _, s := range tl.Spans {
				fmt.Fprintf(os.Stderr, "    %-14s %-10s attempt=%d epoch=%d node=%s span=%016x parent=%016x link=%016x\n",
					s.Name, s.Outcome, s.Attempt, s.Epoch, s.Node, s.ID, s.Parent, s.Link)
			}
		}
		fmt.Fprintln(os.Stderr, "catssim chaos: FAILED")
		os.Exit(1)
	}
	if r.StoreKeys == 0 || r.StoreShardsInUse == 0 {
		fmt.Fprintln(os.Stderr, "catssim chaos: FAILED (survivor stores empty after convergence)")
		os.Exit(1)
	}
	if walDir != "" && (r.WALAppends == 0 || r.WALSyncs == 0) {
		fmt.Fprintln(os.Stderr, "catssim chaos: FAILED (durable run produced no WAL activity)")
		os.Exit(1)
	}
}

// runGray runs the gray-failure scenario (experiments.Gray) and exits
// non-zero unless the history is linearizable with zero lost acked writes
// AND the resilience machinery demonstrably engaged: hedged quorum phases
// fired (and won races) against the straggler pulses, and replica
// admission control shed the synchronized burst. An inert run — faults
// injected but no hedges or sheds — is a failure: it would mean the gate
// stopped exercising the code it exists to protect. Output is purely
// virtual-time derived; two runs with one seed must print byte-identical
// reports, which CI diffs.
func runGray(seed int64) {
	r := experiments.Gray(seed, experiments.GrayConfig{})
	fmt.Printf("catssim gray: seed=%d nodes=%d simulated=%v events=%d execs=%d\n",
		seed, r.Nodes, r.SimulatedDuration, r.DiscreteEvents, r.HandlerExecutions)
	fmt.Printf("  acked_puts=%d ok_gets=%d failed_puts=%d failed_gets=%d unresolved=%d\n",
		r.AckedPuts, r.OKGets, r.FailedPuts, r.FailedGets, r.UnresolvedOps)
	fmt.Printf("  slow_windows=%d slow_delayed=%d\n", r.SlowWindows, r.SlowDelayed)
	fmt.Printf("  hedges=%d hedge_wins=%d sheds=%d redeliveries=%d retries=%d slow_hints=%d\n",
		r.Hedges, r.HedgeWins, r.Sheds, r.Redeliveries, r.Retries, r.SlowHints)
	fmt.Printf("  linearizable=%t lost_acked_writes=%d\n", r.Linearizable, r.LostAckedWrites)
	fmt.Printf("  spans=%d timelines=%d trace_digest=%016x\n",
		r.TraceSpans, r.TraceTimelines, r.TraceDigest)
	if !r.Linearizable || r.LostAckedWrites != 0 {
		if r.NonLinearizableKey != "" {
			fmt.Fprintf(os.Stderr, "catssim gray: non-linearizable key: %s\n", r.NonLinearizableKey)
		}
		for _, k := range r.LostKeys {
			fmt.Fprintf(os.Stderr, "catssim gray: lost acked writes on key: %s\n", k)
		}
		fmt.Fprintln(os.Stderr, "catssim gray: FAILED")
		os.Exit(1)
	}
	if r.SlowWindows == 0 || r.SlowDelayed == 0 {
		fmt.Fprintln(os.Stderr, "catssim gray: FAILED (no gray faults injected — the gate proved nothing)")
		os.Exit(1)
	}
	if r.Hedges == 0 || r.Sheds == 0 {
		fmt.Fprintln(os.Stderr, "catssim gray: FAILED (resilience machinery never engaged: hedges or sheds are zero)")
		os.Exit(1)
	}
}

// runRecovery drives the durability gate's two phases (see
// internal/experiments/recovery.go). Phase "crash" is expected to DIE —
// the scheduled whole-cluster SIGKILL exits with code 137, which the CI
// recovery job asserts; reaching the end of the schedule alive is the
// failure case. Phase "recover" rebuilds a cluster from nothing but the
// WAL directory, audits it, and prints a report derived purely from
// virtual time and on-disk state — byte-identical across runs of one
// seed, diffed by CI.
func runRecovery(seed int64, phase, walDir string) {
	if walDir == "" {
		fmt.Fprintln(os.Stderr, "catssim recovery: -wal-dir is required")
		os.Exit(2)
	}
	cfg := experiments.RecoveryConfig{}
	switch phase {
	case "crash":
		fmt.Printf("catssim recovery: seed=%d phase=crash wal_dir_set=true\n", seed)
		err := experiments.RecoveryCrash(seed, cfg, walDir)
		// Returning at all means the SIGKILL never fired.
		fmt.Fprintln(os.Stderr, "catssim recovery: FAILED:", err)
		os.Exit(1)
	case "recover":
		r, err := experiments.RecoveryRecover(seed, cfg, walDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "catssim recovery: FAILED:", err)
			os.Exit(1)
		}
		fmt.Printf("catssim recovery: seed=%d phase=recover nodes=%d keys=%d simulated=%v events=%d execs=%d\n",
			seed, r.Nodes, r.Keys, r.SimulatedDuration, r.DiscreteEvents, r.HandlerExecutions)
		fmt.Printf("  phase1: acked_puts=%d failed_puts=%d ok_gets=%d unresolved=%d\n",
			r.AckedPuts, r.FailedPuts, r.OKGets, r.UnresolvedOps)
		fmt.Printf("  recovered: snapshots_loaded=%d snapshot_entries=%d wal_replayed=%d torn_tails=%d recovered_keys=%d\n",
			r.SnapshotsLoaded, r.SnapshotEntries, r.WALReplayed, r.TornTails, r.RecoveredKeys)
		fmt.Printf("  converge: handoff_keys=%d handoff_transfers=%d max_epoch=%d audit_ok=%d audit_failed=%d\n",
			r.HandoffKeys, r.HandoffTransfers, r.MaxEpoch, r.AuditOKGets, r.AuditFailed)
		fmt.Printf("  linearizable=%t lost_acked_writes=%d\n", r.Linearizable, r.LostAckedWrites)
		if !r.Linearizable || r.LostAckedWrites != 0 {
			if r.NonLinearizableKey != "" {
				fmt.Fprintf(os.Stderr, "catssim recovery: non-linearizable key: %s\n", r.NonLinearizableKey)
			}
			for _, k := range r.LostKeys {
				fmt.Fprintf(os.Stderr, "catssim recovery: lost acked writes on key: %s\n", k)
			}
			fmt.Fprintln(os.Stderr, "catssim recovery: FAILED")
			os.Exit(1)
		}
		if r.RecoveredKeys == 0 || r.WALReplayed+r.SnapshotEntries == 0 {
			fmt.Fprintln(os.Stderr, "catssim recovery: FAILED (nothing recovered from disk — the scenario proved nothing)")
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "catssim recovery: unknown -phase %q (want crash|recover)\n", phase)
		os.Exit(2)
	}
}

// buildScenario composes the paper's boot → churn ∥ lookups scenario with
// an additional put/get process. Drawn 16-bit identifiers are scaled onto
// the 64-bit ring.
func buildScenario(boot, churn, lookups, ops int) *scenario.Scenario {
	catsJoin := func(id uint64) core.Event { return cats.JoinNode{Key: ident.Key(id << 48)} }
	catsFail := func(id uint64) core.Event { return cats.FailNode{Key: ident.Key(id << 48)} }
	catsLookup := func(node, key uint64) core.Event {
		return cats.OpLookup{NodeKey: ident.Key(node << 48), Target: ident.Key(key << 48)}
	}
	catsPut := func(node, key uint64) core.Event {
		return cats.OpPut{NodeKey: ident.Key(node << 48), Key: fmt.Sprintf("key-%d", key), Value: []byte("value")}
	}
	catsGet := func(node, key uint64) core.Event {
		return cats.OpGet{NodeKey: ident.Key(node << 48), Key: fmt.Sprintf("key-%d", key)}
	}

	bootP := scenario.NewProcess("boot").
		EventInterArrivalTime(scenario.ExponentialDuration(500 * time.Millisecond))
	scenario.Raise1(bootP, boot, catsJoin, scenario.UniformBits(16))

	churnP := scenario.NewProcess("churn").
		EventInterArrivalTime(scenario.ExponentialDuration(500 * time.Millisecond))
	scenario.Raise1(churnP, churn/2, catsJoin, scenario.UniformBits(16))
	scenario.Raise1(churnP, churn/2, catsFail, scenario.UniformBits(16))

	lookupsP := scenario.NewProcess("lookups").
		EventInterArrivalTime(scenario.NormalDuration(50*time.Millisecond, 10*time.Millisecond))
	scenario.Raise2(lookupsP, lookups, catsLookup, scenario.UniformBits(16), scenario.UniformBits(14))

	opsP := scenario.NewProcess("ops").
		EventInterArrivalTime(scenario.NormalDuration(100*time.Millisecond, 20*time.Millisecond))
	scenario.Raise2(opsP, ops/2, catsPut, scenario.UniformBits(16), scenario.UniformBits(10))
	scenario.Raise2(opsP, ops/2, catsGet, scenario.UniformBits(16), scenario.UniformBits(10))

	sc := scenario.New().
		Start(bootP).
		StartAfterTerminationOf(churnP, 2*time.Second, bootP).
		StartAfterStartOf(lookupsP, 3*time.Second, churnP).
		StartAfterStartOf(opsP, 3*time.Second, churnP)
	sc.TerminateAfterTerminationOf(time.Second, lookupsP)
	return sc
}

func runSimulated(seed int64, sched scenario.Schedule, nodeCfg cats.NodeConfig, tail time.Duration, trace bool) {
	var digest *traceDigest
	simOpts := []simulation.SimOption{}
	if trace {
		digest = newTraceDigest()
		simOpts = append(simOpts, simulation.WithTraceSink(digest))
	}
	sim := simulation.New(seed, simOpts...)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.UniformLatency(time.Millisecond, 10*time.Millisecond)))
	host := cats.NewSimulator(cats.SimEnv{Sim: sim, Emu: emu}, nodeCfg)
	var exp *core.Port
	sim.Runtime().MustBootstrap("CatsSimulationMain", core.SetupFunc(func(ctx *core.Ctx) {
		c := ctx.Create("simulator", host)
		exp = c.Provided(cats.ExperimentPortType)
	}))
	sim.Run(0)
	end := scenario.ExecuteSimulated(sim, sched, exp)
	stats := sim.Run(end + tail)
	report(host.Metrics(), host.AliveCount())
	fmt.Printf("  %v\n", stats)
	if digest != nil {
		fmt.Printf("  trace: records=%d digest=%016x\n", digest.n, digest.h.Sum64())
	}
}

// traceDigest is a core.TraceSink that folds every handler execution —
// virtual timestamp, component path, event type, handler name — into one
// FNV-1a hash. Two simulation runs are behaviorally identical iff their
// record counts and digests match, which is what the CI determinism job
// diffs; a full trace dump would be millions of lines.
type traceDigest struct {
	n uint64
	h hash.Hash64
}

func newTraceDigest() *traceDigest { return &traceDigest{h: fnv.New64a()} }

func (t *traceDigest) Record(r core.TraceRecord) {
	t.n++
	comp := ""
	if r.Component != nil {
		comp = r.Component.Path()
	}
	fmt.Fprintf(t.h, "%d|%s|%v|%s|%d\n", r.At.UnixNano(), comp, r.Event, r.Handler, r.Handlers)
}

func runLocal(sched scenario.Schedule, nodeCfg cats.NodeConfig, tail time.Duration) {
	registry := network.NewLoopbackRegistry()
	host := cats.NewSimulator(cats.LoopbackEnv{Registry: registry}, nodeCfg)
	rt := core.New()
	defer rt.Shutdown()
	var exp *core.Port
	rt.MustBootstrap("CatsLocalExecutionMain", core.SetupFunc(func(ctx *core.Ctx) {
		c := ctx.Create("simulator", host)
		exp = c.Provided(cats.ExperimentPortType)
	}))
	rt.WaitQuiescence(5 * time.Second)

	start := time.Now()
	done, stop := scenario.ExecuteRealTime(sched, exp)
	defer stop()
	<-done
	time.Sleep(tail)
	rt.WaitQuiescence(10 * time.Second)
	fmt.Printf("catssim: local execution took %v wall time\n", time.Since(start).Round(time.Millisecond))
	report(host.Metrics(), host.AliveCount())
}

func report(m cats.Metrics, alive int) {
	fmt.Printf("  joins=%d fails=%d alive=%d skipped=%d\n", m.Joins, m.Fails, alive, m.Skipped)
	fmt.Printf("  lookups=%d (empty=%d) puts=%d ok / %d failed, gets=%d ok / %d failed\n",
		m.Lookups, m.LookupsEmpty, m.PutsOK, m.PutsFailed, m.GetsOK, m.GetsFailed)
	if n, mean, min, max := m.LatencyStats(); n > 0 {
		fmt.Printf("  op latency: n=%d mean=%v min=%v max=%v\n", n, mean, min, max)
	}
}
