// Scenario harness. Every gating scenario is one entry in Scenarios; a
// run returns one Outcome, whose Failures method is the only gate and
// whose Report method is the only report. Tests, catssim and CI all read
// those two, so a gate is declared once, here, next to the code it
// exercises.
package experiments

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/linear"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/simulation"
	"repro/internal/tracing"
)

// Counter is one named count a scenario reports. A Required counter that
// reads zero fails the run: the scenario stopped exercising what it
// exists to gate.
type Counter struct {
	Name     string
	Value    uint64
	Required bool
}

// History is the verdict of the shared history audit (auditHistory).
type History struct {
	Linearizable       bool
	NonLinearizableKey string
	// LostKeys are the keys whose acknowledged writes the final audit
	// read did not observe.
	LostKeys []string
}

// Outcome is what one scenario run reports.
type Outcome struct {
	Scenario string
	Seed     int64
	// Sim sums the virtual-time runs the scenario measured (zero for the
	// real-time local scenario). Its WallDuration is never reported.
	Sim simulation.Stats
	// History is nil for scenarios that record no op history.
	History  *History
	Counters []Counter
	// TraceDigest folds every traced op's timeline (zero when the
	// scenario traces no ops); Timelines are kept so a failure can cite
	// the implicated ops.
	TraceDigest uint64
	Timelines   []tracing.Timeline
	// Execs and ExecDigest fold every handler execution of the run.
	Execs, ExecDigest uint64

	violations []string
}

func (o *Outcome) count(name string, v uint64) {
	o.Counters = append(o.Counters, Counter{Name: name, Value: v})
}

func (o *Outcome) fail(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// Failures lists every gate the run failed; an empty list means it
// passed.
func (o Outcome) Failures() []string {
	var f []string
	if h := o.History; h != nil {
		if !h.Linearizable {
			f = append(f, fmt.Sprintf("history not linearizable (key %q)", h.NonLinearizableKey))
		}
		if len(h.LostKeys) > 0 {
			f = append(f, fmt.Sprintf("lost acknowledged writes on keys %v", h.LostKeys))
		}
	}
	for _, c := range o.Counters {
		if c.Required && c.Value == 0 {
			f = append(f, c.Name+"=0, required nonzero")
		}
	}
	return append(f, o.violations...)
}

// Report writes the run's report. It holds only values the seed
// determines — virtual time, counters and digests, never wall time — so
// two runs of a deterministic scenario print identical bytes.
func (o Outcome) Report(w io.Writer) {
	fmt.Fprintf(w, "scenario %s: seed=%d", o.Scenario, o.Seed)
	if o.Sim.SimulatedDuration > 0 {
		fmt.Fprintf(w, " simulated=%v events=%d execs=%d",
			o.Sim.SimulatedDuration, o.Sim.DiscreteEvents, o.Sim.HandlerExecutions)
	}
	fmt.Fprintln(w)
	if h := o.History; h != nil {
		fmt.Fprintf(w, "  linearizable=%t lost_acked_writes=%d\n", h.Linearizable, len(h.LostKeys))
	}
	for i, c := range o.Counters {
		switch {
		case i == 0:
			fmt.Fprint(w, "  ")
		case i%6 == 0:
			fmt.Fprint(w, "\n  ")
		default:
			fmt.Fprint(w, " ")
		}
		fmt.Fprintf(w, "%s=%d", c.Name, c.Value)
	}
	if len(o.Counters) > 0 {
		fmt.Fprintln(w)
	}
	if o.TraceDigest != 0 {
		fmt.Fprintf(w, "  trace_digest=%016x\n", o.TraceDigest)
	}
	fmt.Fprintf(w, "  exec: records=%d digest=%016x\n", o.Execs, o.ExecDigest)
}

// ViolationTimelines returns the timelines of the traced ops on every key
// the history audit flagged. Empty on a clean run.
func (o Outcome) ViolationTimelines() []tracing.Timeline {
	if o.History == nil {
		return nil
	}
	bad := map[string]bool{}
	if o.History.NonLinearizableKey != "" {
		bad[o.History.NonLinearizableKey] = true
	}
	for _, k := range o.History.LostKeys {
		bad[k] = true
	}
	var out []tracing.Timeline
	for _, tl := range o.Timelines {
		if bad[tl.Key] {
			out = append(out, tl)
		}
	}
	return out
}

// Params carries a scenario run's inputs beyond the seed.
type Params struct {
	// Boot, Churn, Lookups, Ops and Tail size the sim and local
	// scenarios (see lookupScenario); the others ignore them.
	Boot, Churn, Lookups, Ops int
	Tail                      time.Duration
	// CrashCmd returns the command that runs the recovery scenario's
	// crash phase (RecoveryCrash with default config) for seed against
	// dir in a separate process, which must die by SIGKILL.
	CrashCmd func(seed int64, dir string) *exec.Cmd
}

// Scenario is one registry entry.
type Scenario struct {
	Name string
	Doc  string
	// Deterministic scenarios print byte-identical reports for one seed.
	Deterministic bool
	// Require names the counters that must read nonzero.
	Require []string
	run     func(seed int64, p Params) (Outcome, error)
}

// Run runs the scenario and marks its required counters. A required
// counter the run did not report is itself a failure.
func (s Scenario) Run(seed int64, p Params) (Outcome, error) {
	o, err := s.run(seed, p)
	o.Scenario, o.Seed = s.Name, seed
	for _, name := range s.Require {
		found := false
		for i := range o.Counters {
			if o.Counters[i].Name == name {
				o.Counters[i].Required, found = true, true
			}
		}
		if !found {
			o.fail("required counter %s not reported", name)
		}
	}
	return o, err
}

// Every history scenario requires acknowledged writes: an audit over none
// proves nothing. Every churn variant requires populated survivor stores
// spread over shards.
var churnGates = []string{"acked_puts", "store_keys", "store_shards_in_use"}

// Scenarios is the registry, in the order catssim lists it.
var Scenarios = []Scenario{
	{
		Name:          "sim",
		Doc:           "boot, churn and lookups over a simulated ring in virtual time (Figure 12 left)",
		Deterministic: true,
		run:           simScenario,
	},
	{
		Name: "local",
		Doc:  "the sim workload in real time over the in-process loopback network (Figure 12 right)",
		run:  localScenario,
	},
	{
		Name:          "chaos",
		Doc:           "quorum ops through crash-restart churn, link flaps and a healed partition",
		Deterministic: true,
		Require: append([]string{"crashes", "churn_dropped", "handoff_keys", "handoff_transfers",
			"max_epoch", "timelines", "cross_node", "restart_traces"}, churnGates...),
		run: func(seed int64, _ Params) (Outcome, error) { return Churn(seed, ChurnConfig{}), nil },
	},
	{
		Name:          "chaos-long",
		Doc:           "chaos with outages double the suspicion threshold: eviction, ring repair, rejoin",
		Deterministic: true,
		Require:       append([]string{"handoff_transfers"}, churnGates...),
		run:           func(seed int64, _ Params) (Outcome, error) { return Churn(seed, LongOutageChurnConfig()), nil },
	},
	{
		Name:          "chaos-durable",
		Doc:           "chaos on WAL-backed stores (sync=always) in a fresh temporary directory",
		Deterministic: true,
		Require:       append([]string{"wal_appends", "wal_syncs"}, churnGates...),
		run:           durableChurnScenario,
	},
	{
		Name:          "gray",
		Doc:           "straggler pulses and a shed-inducing burst: hedges and sheds must engage",
		Deterministic: true,
		Require: []string{"acked_puts", "slow_windows", "slow_delayed", "hedges", "hedge_wins",
			"sheds", "redeliveries"},
		run: func(seed int64, _ Params) (Outcome, error) { return Gray(seed, GrayConfig{}), nil },
	},
	{
		Name:          "recovery",
		Doc:           "SIGKILL a durable cluster mid-churn in a child process, rebuild it from disk, audit",
		Deterministic: true,
		Require: []string{"acked_puts", "recovered_keys", "wal_replayed", "snapshots_loaded",
			"handoff_transfers"},
		run: recoveryScenario,
	},
}

// ScenarioByName looks a scenario up in the registry.
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range Scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

func durableChurnScenario(seed int64, _ Params) (Outcome, error) {
	// Replaying a previous run's state would shift the WAL counters, so
	// every run starts from an empty directory.
	dir, err := os.MkdirTemp("", "chaos-durable-")
	if err != nil {
		return Outcome{}, err
	}
	defer os.RemoveAll(dir)
	return Churn(seed, ChurnConfig{DataDir: dir}), nil
}

// recoveryScenario runs the crash phase in a child process against a
// fresh directory, requires that the child died by SIGKILL, and then runs
// the recover phase in this process over what the child left on disk.
func recoveryScenario(seed int64, p Params) (Outcome, error) {
	if p.CrashCmd == nil {
		return Outcome{}, fmt.Errorf("recovery: no crash-phase command")
	}
	dir, err := os.MkdirTemp("", "recovery-")
	if err != nil {
		return Outcome{}, err
	}
	defer os.RemoveAll(dir)
	cmd := p.CrashCmd(seed, dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err = cmd.Run()
	if cmd.ProcessState == nil || cmd.ProcessState.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		var o Outcome
		o.fail("crash phase ended with %v, want death by SIGKILL; its output: %q", err, out.String())
		return o, nil
	}
	return RecoveryRecover(seed, RecoveryConfig{}, dir)
}

// --- shared scenario steps ---------------------------------------------------

// traceAll routes every span into a private ring, sampling every op, so a
// failure can cite any op's timeline. The returned stop restores the
// process-wide ring and sampling rate.
func traceAll() (*tracing.Ring, func()) {
	ring := tracing.NewRing(1 << 16)
	prevRing := tracing.SwapDefault(ring)
	prevSample := tracing.SetSampleEvery(1)
	return ring, func() {
		tracing.SetSampleEvery(prevSample)
		tracing.SwapDefault(prevRing)
	}
}

// addTrace assembles the ring's spans into timelines and reports their
// rollup.
func (o *Outcome) addTrace(ring *tracing.Ring) {
	o.Timelines = tracing.Assemble(ring.Snapshot())
	var spans, crossNode, restarts uint64
	for _, tl := range o.Timelines {
		spans += uint64(len(tl.Spans))
		if len(tl.Nodes) >= 2 {
			crossNode++
		}
		if tl.Restarts > 0 {
			restarts++
		}
	}
	o.count("spans", spans)
	o.count("timelines", uint64(len(o.Timelines)))
	o.count("cross_node", crossNode)
	o.count("restart_traces", restarts)
	o.TraceDigest = timelineDigest(o.Timelines)
}

// timelineDigest folds assembled timelines into one FNV-1a fingerprint.
// Under the deterministic simulation a seed fixes the spans, their IDs and
// their virtual timestamps, so the digest is stable across same-seed runs.
func timelineDigest(tls []tracing.Timeline) uint64 {
	h := fnv.New64a()
	for _, tl := range tls {
		fmt.Fprintf(h, "t %016x %s %s %s %d %v\n",
			tl.Trace, tl.Name, tl.Key, tl.Outcome, tl.Restarts, tl.Nodes)
		for _, s := range tl.Spans {
			fmt.Fprintf(h, "s %016x %016x %016x %s %s %s %d %d %d %d\n",
				s.ID, s.Parent, s.Link, s.Node, s.Name, s.Outcome,
				s.Attempt, s.Epoch, s.Start.UnixNano(), s.End.UnixNano())
		}
	}
	return h.Sum64()
}

// execDigest is a core.TraceSink that folds every handler execution —
// timestamp, component path, event, handler — into one FNV-1a hash. Two
// simulation runs are behaviorally identical iff their record counts and
// digests match; a full trace would be millions of lines. The mutex
// serves the real-time runtime, whose workers record concurrently.
type execDigest struct {
	mu sync.Mutex
	n  uint64
	h  hash.Hash64
}

func newExecDigest() *execDigest { return &execDigest{h: fnv.New64a()} }

func (d *execDigest) Record(r core.TraceRecord) {
	comp := ""
	if r.Component != nil {
		comp = r.Component.Path()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.n++
	fmt.Fprintf(d.h, "%d|%s|%v|%s|%d\n", r.At.UnixNano(), comp, r.Event, r.Handler, r.Handlers)
}

func (o *Outcome) setExec(d *execDigest) {
	d.mu.Lock()
	defer d.mu.Unlock()
	o.Execs, o.ExecDigest = d.n, d.h.Sum64()
}

func addStats(a, b simulation.Stats) simulation.Stats {
	a.SimulatedDuration += b.SimulatedDuration
	a.WallDuration += b.WallDuration
	a.DiscreteEvents += b.DiscreteEvents
	a.HandlerExecutions += b.HandlerExecutions
	return a
}

// scheduleWorkload schedules opsPerKey operations on each key at random
// coordinators, spread uniformly over window. A key's first op is always
// an early put, so every key exists; after that each op is a put with
// probability putFrac, its value padded with pad. Ops can land mid-fault:
// coordinators may be isolated and quorum members unreachable.
func scheduleWorkload(sim *simulation.Simulation, exp *core.Port, rng *rand.Rand, keys []string, opsPerKey int, window time.Duration, putFrac float64, pad string) {
	type schedOp struct {
		at time.Duration
		ev core.Event
	}
	var ops []schedOp
	for k, key := range keys {
		for i := 0; i < opsPerKey; i++ {
			at := time.Duration(rng.Int63n(int64(window)))
			if i == 0 {
				at = time.Duration(rng.Int63n(int64(window) / 4))
			}
			node := ident.Key(rng.Uint64())
			if i == 0 || rng.Float64() < putFrac {
				val := []byte("v-" + strconv.Itoa(k) + "-" + strconv.Itoa(i) + pad)
				ops = append(ops, schedOp{at, cats.OpPut{NodeKey: node, Key: key, Value: val}})
			} else {
				ops = append(ops, schedOp{at, cats.OpGet{NodeKey: node, Key: key}})
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	for _, op := range ops {
		scheduleOp(sim, exp, op.at, op.ev)
	}
}

// scheduleOp schedules one experiment op at a virtual-time offset.
func scheduleOp(sim *simulation.Simulation, exp *core.Port, at time.Duration, ev core.Event) {
	sim.ScheduleAt(at, "op", func() { _ = core.TriggerOn(exp, ev) })
}

// scheduleCrashes schedules n crash→restart cycles of random nodes in
// sequential, non-overlapping windows spread over span, so at most one
// replica per group is dark at a time (replication 3 tolerates 1).
func scheduleCrashes(sim *simulation.Simulation, emu *simulation.NetworkEmulator, rng *rand.Rand, refs []ident.NodeRef, n int, span, down time.Duration) {
	spacing := span / time.Duration(n+1)
	for i := 0; i < n; i++ {
		at := spacing*time.Duration(i+1) + time.Duration(rng.Int63n(int64(spacing)/4))
		victim := refs[rng.Intn(len(refs))].Addr
		sim.ScheduleAt(at, "crash", func() { emu.Crash(victim) })
		sim.ScheduleAt(at+down, "restart", func() { emu.Restart(victim) })
	}
}

// auditReads issues one get per key, from coordinator node(i) for the
// i-th key, and runs the simulation for d to resolve them.
func auditReads(sim *simulation.Simulation, exp *core.Port, keys []string, node func(i int) ident.Key, d time.Duration) simulation.Stats {
	for i, key := range keys {
		scheduleOp(sim, exp, 0, cats.OpGet{NodeKey: node(i), Key: key})
	}
	return sim.Run(d)
}

// auditHistory is the shared history audit. records are the completed
// ops in order, the final audit reads from index preAudit on; unresolved
// are the ops invoked but never completed. It checks the per-key history
// for linearizability and, for every key in keys with an acknowledged
// write, that its final read succeeded and found a value. Failed or
// unresolved puts may or may not have taken effect, so they enter the
// history with an unconstrained response time; failed gets observed
// nothing and are left out.
func (o *Outcome) auditHistory(records, unresolved []cats.OpRecord, preAudit int, keys []string) {
	var ackedPuts, failedPuts, okGets, failedGets uint64
	hist := make(map[string][]linear.Op)
	acked := make(map[string]bool)
	addPut := func(r cats.OpRecord, end int64) {
		hist[r.Key] = append(hist[r.Key], linear.Op{
			Kind: linear.Write, Value: r.Value, Start: r.Start.UnixNano(), End: end,
		})
	}
	for _, r := range records {
		switch {
		case r.Kind == "put" && r.OK:
			ackedPuts++
			acked[r.Key] = true
			addPut(r, r.End.UnixNano())
		case r.Kind == "put":
			failedPuts++
			addPut(r, math.MaxInt64)
		case r.Kind == "get" && r.OK:
			okGets++
			hist[r.Key] = append(hist[r.Key], linear.Op{
				Kind: linear.Read, Value: r.Value, Found: r.Found,
				Start: r.Start.UnixNano(), End: r.End.UnixNano(),
			})
		case r.Kind == "get":
			failedGets++
		}
	}
	for _, r := range unresolved {
		if r.Kind == "put" {
			addPut(r, math.MaxInt64)
		}
	}
	h := &History{}
	h.Linearizable, h.NonLinearizableKey = linear.CheckPerKey(hist)

	// A later unacknowledged write's value is still not a loss, so the
	// final read only has to succeed and find something.
	finalRead := make(map[string]cats.OpRecord)
	for _, r := range records[preAudit:] {
		if r.Kind == "get" {
			finalRead[r.Key] = r
		}
	}
	for _, key := range keys {
		if r, ok := finalRead[key]; acked[key] && (!ok || !r.OK || !r.Found) {
			h.LostKeys = append(h.LostKeys, key)
		}
	}
	o.History = h
	o.count("acked_puts", ackedPuts)
	o.count("failed_puts", failedPuts)
	o.count("ok_gets", okGets)
	o.count("failed_gets", failedGets)
	o.count("unresolved", uint64(len(unresolved)))
}

// --- sim and local: the paper's lookup scenario --------------------------------

// lookupScenario composes the paper's boot → churn ∥ lookups scenario with
// an additional put/get process. Drawn 16-bit identifiers are scaled onto
// the 64-bit ring.
func lookupScenario(p Params) *scenario.Scenario {
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
	scenario.Raise1(bootP, p.Boot, catsJoin, scenario.UniformBits(16))

	churnP := scenario.NewProcess("churn").
		EventInterArrivalTime(scenario.ExponentialDuration(500 * time.Millisecond))
	scenario.Raise1(churnP, p.Churn/2, catsJoin, scenario.UniformBits(16))
	scenario.Raise1(churnP, p.Churn/2, catsFail, scenario.UniformBits(16))

	lookupsP := scenario.NewProcess("lookups").
		EventInterArrivalTime(scenario.NormalDuration(50*time.Millisecond, 10*time.Millisecond))
	scenario.Raise2(lookupsP, p.Lookups, catsLookup, scenario.UniformBits(16), scenario.UniformBits(14))

	opsP := scenario.NewProcess("ops").
		EventInterArrivalTime(scenario.NormalDuration(100*time.Millisecond, 20*time.Millisecond))
	scenario.Raise2(opsP, p.Ops/2, catsPut, scenario.UniformBits(16), scenario.UniformBits(10))
	scenario.Raise2(opsP, p.Ops/2, catsGet, scenario.UniformBits(16), scenario.UniformBits(10))

	sc := scenario.New().
		Start(bootP).
		StartAfterTerminationOf(churnP, 2*time.Second, bootP).
		StartAfterStartOf(lookupsP, 3*time.Second, churnP).
		StartAfterStartOf(opsP, 3*time.Second, churnP)
	sc.TerminateAfterTerminationOf(time.Second, lookupsP)
	return sc
}

func lookupNodeConfig() cats.NodeConfig {
	return cats.NodeConfig{
		ReplicationDegree: 3,
		FDInterval:        200 * time.Millisecond,
		StabilizePeriod:   300 * time.Millisecond,
		CyclonPeriod:      500 * time.Millisecond,
		OpTimeout:         time.Second,
		RouterEntryTTL:    10 * time.Second,
		RouterSweepPeriod: 2 * time.Second,
	}
}

// simScenario runs the lookup scenario in virtual time. The identical
// system code runs in localScenario; only the injected transport, timer
// and scheduler differ.
func simScenario(seed int64, p Params) (Outcome, error) {
	sched, err := lookupScenario(p).Generate(seed)
	if err != nil {
		return Outcome{}, err
	}
	exec := newExecDigest()
	sim := simulation.New(seed, simulation.WithTraceSink(exec))
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.UniformLatency(time.Millisecond, 10*time.Millisecond)))
	host := cats.NewSimulator(cats.SimEnv{Sim: sim, Emu: emu}, lookupNodeConfig())
	exp := bootHost(sim.Runtime(), "CatsSimulationMain", host)
	sim.Run(0)
	end := scenario.ExecuteSimulated(sim, sched, exp)
	o := Outcome{Sim: sim.Run(end + p.Tail)}
	o.count("commands", uint64(len(sched.Events)))
	o.countHost(host)
	o.setExec(exec)
	return o, nil
}

// localScenario runs the lookup scenario in real time over the in-process
// loopback network; its report is not deterministic.
func localScenario(seed int64, p Params) (Outcome, error) {
	sched, err := lookupScenario(p).Generate(seed)
	if err != nil {
		return Outcome{}, err
	}
	exec := newExecDigest()
	host := cats.NewSimulator(cats.LoopbackEnv{Registry: network.NewLoopbackRegistry()}, lookupNodeConfig())
	rt := core.New(core.WithTraceSink(exec))
	defer rt.Shutdown()
	exp := bootHost(rt, "CatsLocalExecutionMain", host)
	rt.WaitQuiescence(5 * time.Second)
	done, stop := scenario.ExecuteRealTime(sched, exp)
	defer stop()
	<-done
	time.Sleep(p.Tail)
	rt.WaitQuiescence(10 * time.Second)
	var o Outcome
	o.count("commands", uint64(len(sched.Events)))
	o.countHost(host)
	o.setExec(exec)
	return o, nil
}

// countHost reports the simulator host's membership and op counts.
func (o *Outcome) countHost(host *cats.Simulator) {
	m := host.Metrics()
	o.count("joins", m.Joins)
	o.count("fails", m.Fails)
	o.count("alive", uint64(host.AliveCount()))
	o.count("skipped", m.Skipped)
	o.count("lookups", m.Lookups)
	o.count("lookups_empty", m.LookupsEmpty)
	o.count("puts_ok", m.PutsOK)
	o.count("puts_failed", m.PutsFailed)
	o.count("gets_ok", m.GetsOK)
	o.count("gets_failed", m.GetsFailed)
	n, mean, _, max := m.LatencyStats()
	o.count("op_latency_n", uint64(n))
	o.count("op_latency_mean_us", uint64(mean.Microseconds()))
	o.count("op_latency_max_us", uint64(max.Microseconds()))
}
