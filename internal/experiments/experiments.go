// Package experiments implements the paper's evaluation artifacts and the
// system's gating scenarios as reusable functions, shared by catsbench,
// catssim and the root bench_test.go benchmarks:
//
//   - Table1: simulated-time compression vs. number of peers.
//   - Latency (C1): end-to-end operation latency on an in-process cluster.
//   - Scaling (C2): aggregate read throughput vs. cluster size.
//   - Stealing (C3): work-stealing batch-size ablation.
//   - QuorumTraceAB (C6), WALBench (C7) and HedgeBench (C8): the A/B
//     comparisons, each an arm list over the one interleaved runner in
//     ab.go. They and MillionKV (C5) return one Result.
//   - Scenarios: the scenario registry in scenario.go, one Outcome per run.
package experiments

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/scenario"
	"repro/internal/simulation"
)

// simNodeConfig returns the node timings used by the simulation
// experiments (scaled to keep protocol traffic realistic but cheap).
func simNodeConfig() cats.NodeConfig {
	return cats.NodeConfig{
		ReplicationDegree: 3,
		FDInterval:        time.Second,
		StabilizePeriod:   time.Second,
		CyclonPeriod:      2 * time.Second,
		OpTimeout:         2 * time.Second,
		RouterEntryTTL:    30 * time.Second,
		RouterSweepPeriod: 10 * time.Second,
	}
}

// spreadKeys returns n node keys spread evenly around the 2^64 ring.
func spreadKeys(n int) []ident.Key {
	keys := make([]ident.Key, n)
	step := ^uint64(0)/uint64(n) + 1
	for i := range keys {
		keys[i] = ident.Key(uint64(i)*step + 12345)
	}
	return keys
}

// buildSimCluster boots a simulated CATS deployment over the given node
// keys, staggering the joins, and runs it to convergence. The host records
// every explicit op. A non-empty root gives every node a durable store
// under it; sink, when non-nil, observes every op invocation and
// completion. It returns the simulation, the network emulator (for fault
// injection), the simulator host and its experiment port.
func buildSimCluster(seed int64, keys []ident.Key, cfg cats.NodeConfig, root string, sink func(cats.OpRecord), opts ...simulation.SimOption) (*simulation.Simulation, *simulation.NetworkEmulator, *cats.Simulator, *core.Port) {
	sim := simulation.New(seed, opts...)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.UniformLatency(500*time.Microsecond, 2*time.Millisecond)))
	host := cats.NewSimulator(cats.SimEnv{Sim: sim, Emu: emu}, cfg)
	host.RecordOps = true
	host.DataDirRoot = root
	host.OpSink = sink
	// The root's name seeds every component's random stream (core.Ctx.Rand
	// derives from the component path), so durable and in-memory clusters
	// keep their established names: renaming either re-seeds every
	// scenario built on it.
	name := "CatsSimulationMain"
	if root != "" {
		name = "CatsRecoveryMain"
	}
	exp := bootHost(sim.Runtime(), name, host)
	sim.Run(0)
	// Stagger joins in virtual time so join traffic doesn't stampede.
	for _, k := range keys {
		_ = core.TriggerOn(exp, cats.JoinNode{Key: k})
		sim.Run(50 * time.Millisecond)
	}
	sim.Run(60 * time.Second) // converge: stabilization + gossip rounds
	return sim, emu, host, exp
}

// bootHost bootstraps rt with a root component of the given name whose
// only child is host, and returns the host's experiment port.
func bootHost(rt *core.Runtime, name string, host *cats.Simulator) *core.Port {
	var exp *core.Port
	rt.MustBootstrap(name, core.SetupFunc(func(ctx *core.Ctx) {
		exp = ctx.Create("simulator", host).Provided(cats.ExperimentPortType)
	}))
	return exp
}

// Table1Result is one row of the paper's Table 1 reproduction.
type Table1Result struct {
	Peers             int
	SimulatedDuration time.Duration
	WallDuration      time.Duration
	Compression       float64
	DiscreteEvents    uint64
	HandlerExecutions uint64
}

// Table1 measures the time-compression ratio of simulating a system of
// `peers` nodes for simTime of virtual time under a lookup workload (one
// lookup per node per second on average), mirroring the paper's Table 1.
// The setup phase (boot + convergence) is excluded from the measurement,
// as the paper reports steady-state simulation.
func Table1(seed int64, peers int, simTime time.Duration) Table1Result {
	sim, _, host, exp := buildSimCluster(seed, spreadKeys(peers), simNodeConfig(), "", nil)

	// Lookup workload: `peers` lookups per simulated second in aggregate.
	lookups := scenario.NewProcess("lookups").
		EventInterArrivalTime(scenario.ExponentialDuration(time.Second / time.Duration(peers)))
	total := int(simTime/time.Second) * peers
	scenario.Raise2(lookups, total,
		func(node, key uint64) core.Event {
			return cats.OpLookup{NodeKey: ident.Key(node), Target: ident.Key(key)}
		},
		func(rng *rand.Rand) uint64 { return rng.Uint64() },
		func(rng *rand.Rand) uint64 { return rng.Uint64() },
	)
	sc := scenario.New().Start(lookups)
	sched, err := sc.Generate(seed)
	if err != nil {
		panic(err)
	}
	scenario.ExecuteSimulated(sim, sched, exp)

	stats := sim.Run(simTime)
	_ = host
	return Table1Result{
		Peers:             peers,
		SimulatedDuration: stats.SimulatedDuration,
		WallDuration:      stats.WallDuration,
		Compression:       stats.Compression(),
		DiscreteEvents:    stats.DiscreteEvents,
		HandlerExecutions: stats.HandlerExecutions,
	}
}

// LatencyResult summarizes experiment C1.
type LatencyResult struct {
	Nodes       int
	Replication int
	ValueSize   int
	Ops         int
	Mean        time.Duration
	P50         time.Duration
	P99         time.Duration
	Max         time.Duration
	SubMilli    float64 // fraction of ops under 1ms
}

// Latency measures end-to-end put/get latency on a real-time in-process
// cluster over the loopback transport with full marshalling per message —
// the paper's §4.1 sub-millisecond LAN claim (4 one-way latencies, 4×
// serialization, 4× deserialization, plus runtime dispatching, per
// operation). Background protocol periods are relaxed so the measurement
// reflects the operation path, as on the paper's idle LAN cluster.
func Latency(nodes, replication, valueSize, ops int) LatencyResult {
	cfg := cats.NodeConfig{
		ReplicationDegree: replication,
		FDInterval:        2 * time.Second,
		StabilizePeriod:   time.Second,
		CyclonPeriod:      2 * time.Second,
		OpTimeout:         5 * time.Second,
	}
	rt, host, exp := bootKVCluster(nodes, cfg, "")
	defer rt.Shutdown()
	time.Sleep(1500 * time.Millisecond) // 2 s in all for membership tables to converge

	// Closed-loop single client: each op's latency is a clean end-to-end
	// round trip with no queueing from concurrent ops.
	_ = core.TriggerOn(exp, cats.StartLoad{
		Clients:      1,
		TotalOps:     ops,
		ValueSize:    valueSize,
		ReadFraction: 0.5,
		Keys:         64,
	})
	deadline := time.Now().Add(5 * time.Minute)
	for time.Now().Before(deadline) && int(host.Metrics().LoadDone) < ops {
		time.Sleep(5 * time.Millisecond)
	}
	rt.WaitQuiescence(10 * time.Second)

	lat := host.Metrics().OpLatencies
	a := pool("", []sample{{lat: lat}})
	res := LatencyResult{Nodes: nodes, Replication: replication, ValueSize: valueSize, Ops: len(lat),
		P50: a.P50, P99: a.P99, Max: a.Max}
	if len(lat) == 0 {
		return res
	}
	var sum time.Duration
	sub := 0
	for _, d := range lat {
		sum += d
		if d < time.Millisecond {
			sub++
		}
	}
	res.Mean = sum / time.Duration(len(lat))
	res.SubMilli = float64(sub) / float64(len(lat))
	return res
}

// waitForRing polls until every deployed node reports a joined ring.
func waitForRing(rt *core.Runtime, host *cats.Simulator, nodes int, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		rt.WaitQuiescence(100 * time.Millisecond)
		joined := 0
		for _, ref := range host.AliveNodes() {
			if p, ok := host.Peer(ref.Key); ok && p.Node != nil && p.Node.Ring.Joined() {
				joined++
			}
		}
		if joined >= nodes {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// ScalingResult summarizes one row of experiment C2.
type ScalingResult struct {
	Nodes        int
	Ops          uint64
	Failed       uint64
	ThroughputPS float64 // completed reads per simulated second
	PerNodePS    float64
	MeanLatency  time.Duration
}

// Scaling measures aggregate read throughput of a simulated cluster of n
// nodes under a closed-loop read-intensive workload (95% reads of 1 KiB
// values, clientsPerNode concurrent clients per node), in virtual time —
// the paper's §4.1 claim that CATS scales near-linearly to 96 machines.
// Each node contributes independent capacity in the emulated network, so
// the measured shape isolates the protocol stack's scalability.
func Scaling(seed int64, n, clientsPerNode, opsPerNode int) ScalingResult {
	sim, _, host, exp := buildSimCluster(seed, spreadKeys(n), simNodeConfig(), "", nil)
	target := uint64(opsPerNode * n)
	_ = core.TriggerOn(exp, cats.StartLoad{
		Clients:      clientsPerNode * n,
		TotalOps:     int(target),
		ValueSize:    1024,
		ReadFraction: 0.95,
		Keys:         1024,
	})
	// Run in bounded virtual-time slices until the load drains (the
	// cluster's periodic protocol timers re-arm forever, so an unbounded
	// run would never return).
	for i := 0; i < 10_000 && host.Metrics().LoadDone < target; i++ {
		sim.Run(time.Second)
	}
	m := host.Metrics()
	var mean time.Duration
	if m.LoadDone > 0 {
		mean = m.LoadLatencySum / time.Duration(m.LoadDone)
	}
	return ScalingResult{
		Nodes:        n,
		Ops:          m.LoadDone,
		Failed:       m.GetsFailed + m.PutsFailed,
		ThroughputPS: m.LoadThroughput(),
		PerNodePS:    m.LoadThroughput() / float64(n),
		MeanLatency:  mean,
	}
}

// StealingResult summarizes one row of experiment C3.
type StealingResult struct {
	Workers     int
	Batch       string
	Events      int
	Wall        time.Duration
	EventsPerMS float64
	Steals      uint64
	Stolen      uint64
}

// Stealing measures scheduler throughput under maximal placement imbalance
// with the given steal-batch policy — the paper's §3 claim that batching
// (stealing half the victim's queue) considerably outperforms stealing
// single components. With the array-based deques a batch steal claims the
// whole range in a single CAS of the victim's top index, so Steals counts
// one operation per transferred batch rather than per transferred
// component.
//
// The imbalance does not depend on timing. With more than one worker, a
// pin component's handler first occupies some worker (the victim) and
// blocks there for the whole run, and every externally scheduled component
// lands on the victim's deque. Events are triggered in rounds of one event
// per component, and a round starts only when the previous one has been
// executed, so every round places all components on the victim afresh. The
// other workers reach the work only by stealing, however the host
// schedules them.
func Stealing(workers, components, eventsPerComponent int, batchHalf bool) StealingResult {
	batch := func(n int64) int64 { return 1 }
	label := "one"
	if batchHalf {
		batch = func(n int64) int64 { return n / 2 }
		label = "half"
	}
	var victim atomic.Int64
	sched := core.NewWorkStealingScheduler(workers,
		core.WithStealBatch(batch),
		core.WithPlacement(func(uint64, int) int { return int(victim.Load()) }),
	)
	rt := core.New(core.WithScheduler(sched), core.WithFaultPolicy(core.LogAndContinue))
	defer rt.Shutdown()

	var done, roundEnd atomic.Int64
	total := components * eventsPerComponent
	roundDone := make(chan struct{}, 1)
	ports := make([]*core.Port, components)
	pinned, release := make(chan struct{}), make(chan struct{})
	var pin *core.Port
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		for i := 0; i < components; i++ {
			c := ctx.Create(fmt.Sprintf("c%d", i), core.SetupFunc(func(cx *core.Ctx) {
				p := cx.Provides(benchPort)
				core.Subscribe(cx, p, func(benchEvent) {
					spin(200)
					if done.Add(1) == roundEnd.Load() {
						roundDone <- struct{}{}
					}
				})
			}))
			ports[i] = c.Provided(benchPort)
		}
		pc := ctx.Create("pin", core.SetupFunc(func(cx *core.Ctx) {
			core.Subscribe(cx, cx.Provides(benchPort), func(benchEvent) {
				close(pinned)
				<-release
			})
		}))
		pin = pc.Provided(benchPort)
	}))
	rt.WaitQuiescence(5 * time.Second)
	defer close(release)
	if workers > 1 {
		victim.Store(int64(pinWorker(sched, pin, pinned)))
	}
	_, steals0, stolen0 := sched.Stats()

	start := time.Now()
	for e := 0; e < eventsPerComponent; e++ {
		roundEnd.Store(int64((e + 1) * components))
		for i := 0; i < components; i++ {
			_ = core.TriggerOn(ports[i], benchEvent{})
		}
		<-roundDone
	}
	wall := time.Since(start)
	_, steals, stolen := sched.Stats()
	return StealingResult{
		Workers:     workers,
		Batch:       label,
		Events:      total,
		Wall:        wall,
		EventsPerMS: float64(total) / float64(wall.Milliseconds()+1),
		Steals:      steals - steals0,
		Stolen:      stolen - stolen0,
	}
}

// pinWorker triggers the pin component, waits until its handler runs, and
// returns the index of the worker running it: the only worker whose pop or
// steal count moved, since the runtime was quiescent before.
func pinWorker(sched *core.WorkStealingScheduler, pin *core.Port, pinned <-chan struct{}) int {
	before := sched.SchedulerMetrics().PerWorker
	_ = core.TriggerOn(pin, benchEvent{})
	<-pinned
	for i, w := range sched.SchedulerMetrics().PerWorker {
		if w.LocalPops+w.Steals != before[i].LocalPops+before[i].Steals {
			return i
		}
	}
	return 0
}

// benchEvent is the unit of scheduler work in microbenchmarks.
type benchEvent struct{}

// benchPort is the microbenchmark port type.
var benchPort = core.NewPortType("Bench",
	core.Request[benchEvent](),
)

// spin burns a few nanoseconds of CPU per event, standing in for handler
// work.
//
//go:noinline
func spin(n int) {
	acc := 0
	for i := 0; i < n; i++ {
		acc += i
	}
	_ = acc
}
