// Gray-failure scenario and hedging benchmark. Where the churn scenario
// kills nodes outright, Gray injects *slowness*: replicas that answer
// every ping but stall every quorum phase they serve. The scenario proves
// the resilience layer end to end — adaptive attempt budgets fire hedge
// checkpoints, hedged duplicates win races against pulsed stragglers,
// replica admission control sheds a synchronized burst and the shed ops
// recover through jittered redelivery — while the usual chaos gates
// (linearizability, zero lost acked writes) still hold. HedgeBench is the
// A/B half: the same straggler workload with hedging off vs on, in
// virtual time, so the p99 tail comparison is machine-independent.
package experiments

import (
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/abd"
	"repro/internal/cats"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/simulation"
)

// GrayConfig parameterizes the gray-failure scenario.
type GrayConfig struct {
	Nodes     int           // cluster size (default 5)
	WarmOps   int           // estimator warm-up ops before any fault (default 12)
	Pulses    int           // straggler pulses aimed at the hedge group (default 6)
	SlowExtra time.Duration // extra one-way latency during a pulse (default 300ms)
	PulseLen  time.Duration // pulse duration (default 2ms — shorter than a hedge checkpoint)
	BurstOps  int           // synchronized op burst that must trip admission control (default 40)
	BurstKeys int           // distinct keys the burst spreads over (default 6)
	Tail      time.Duration // settle time before the audit reads (default 12s)

	// ShedServeRate caps quorum phases served per replica per 10ms window
	// (default 5) — low enough that the synchronized burst sheds, high
	// enough that the paced warm-up and pulse ops never do.
	ShedServeRate int
}

func (c *GrayConfig) applyDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 5
	}
	if c.WarmOps <= 0 {
		c.WarmOps = 12
	}
	if c.Pulses <= 0 {
		c.Pulses = 6
	}
	if c.SlowExtra <= 0 {
		c.SlowExtra = 300 * time.Millisecond
	}
	if c.PulseLen <= 0 {
		c.PulseLen = 2 * time.Millisecond
	}
	if c.BurstOps <= 0 {
		c.BurstOps = 40
	}
	if c.BurstKeys <= 0 {
		c.BurstKeys = 6
	}
	if c.Tail <= 0 {
		c.Tail = 12 * time.Second
	}
	if c.ShedServeRate <= 0 {
		c.ShedServeRate = 5
	}
}

// keyOwnedBy searches deterministic key strings until one hashes into the
// ring span owned by nodeKeys[idx] — i.e. its replica group starts there.
func keyOwnedBy(nodeKeys []ident.Key, idx int, prefix string) string {
	refs := make([]ident.NodeRef, len(nodeKeys))
	for i, k := range nodeKeys {
		refs[i] = ident.NodeRef{Key: k}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Key < refs[j].Key })
	want := nodeKeys[idx]
	for i := 0; ; i++ {
		s := prefix + "-" + strconv.Itoa(i)
		if ident.SuccessorOf(refs, ident.KeyOfString(s)).Key == want {
			return s
		}
	}
}

// Gray runs the gray-failure scenario: a simulated CATS cluster serving
// quorum traffic while the emulator injects straggler pulses (slow, never
// dead, nodes) at a replica group held one ack short of quorum, and a
// synchronized op burst tripping replica admission control. It gates the
// same invariants as the chaos scenario — linearizable history, zero lost
// acked writes — and reports the evidence that the resilience layer
// engaged: hedges fired and won, and replicas shed load that was later
// redelivered.
func Gray(seed int64, cfg GrayConfig) Outcome {
	cfg.applyDefaults()
	ring, stopTracing := traceAll()
	defer stopTracing()
	exec := newExecDigest()

	nodeCfg := simNodeConfig()
	// A 2ms deadline floor keeps adaptive budgets meaningful at the
	// emulator's sub-millisecond latencies (the default floor, OpTimeout/20
	// = 100ms, would swamp them), and the serve-rate cap arms admission
	// control on every replica.
	nodeCfg.DeadlineFloor = 2 * time.Millisecond
	nodeCfg.ShedServeRate = cfg.ShedServeRate

	resBefore := abd.GlobalResilienceMetrics()

	nodeKeys := spreadKeys(cfg.Nodes)
	sim, emu, host, exp := buildSimCluster(seed, nodeKeys, nodeCfg, "", nil, simulation.WithTraceSink(exec))
	rng := rand.New(rand.NewSource(seed ^ 0x67726179)) // "gray"

	// Geometry: the hedge group is the replica group of a key owned by
	// node hIdx — members {hIdx, hIdx+1, hIdx+2}. The coordinator is hIdx
	// itself (its self-phase acks instantly), and the pulses slow the other
	// two members, stalling every phase at quorum-minus-one.
	n := cfg.Nodes
	hIdx := rng.Intn(n)
	hedgeKey := keyOwnedBy(nodeKeys, hIdx, "gray-hedge")
	hCoord := nodeKeys[hIdx]
	slowAddrA := refAddr(host, nodeKeys[(hIdx+1)%n])
	slowAddrB := refAddr(host, nodeKeys[(hIdx+2)%n])

	// Phase 1 — warm-up: paced ops on the hedge key from the hedge
	// coordinator, so its estimators for the group members converge well
	// below the deadline ceiling before the first pulse.
	warmSpacing := 150 * time.Millisecond
	for i := 0; i < cfg.WarmOps; i++ {
		at := time.Duration(i) * warmSpacing
		if i == 0 || i%4 == 0 {
			val := []byte("warm-" + strconv.Itoa(i))
			scheduleOp(sim, exp, at, cats.OpPut{NodeKey: hCoord, Key: hedgeKey, Value: val})
		} else {
			scheduleOp(sim, exp, at, cats.OpGet{NodeKey: hCoord, Key: hedgeKey})
		}
	}
	warmEnd := time.Duration(cfg.WarmOps) * warmSpacing

	// Phase 2 — straggler pulses: both non-coordinator group members turn
	// slow for PulseLen, and a get is issued at the pulse instant. Its
	// phase messages to them are delayed by SlowExtra; the self ack holds
	// the phase at quorum-minus-one; the adaptive hedge checkpoint lands
	// after the pulse expired, so the hedged duplicate travels fast and
	// wins the race while the originals are still in flight.
	pulseSpacing := 500 * time.Millisecond
	for i := 0; i < cfg.Pulses; i++ {
		at := warmEnd + time.Second + time.Duration(i)*pulseSpacing
		extra, plen := cfg.SlowExtra, cfg.PulseLen
		sim.ScheduleAt(at, "gray:pulse", func() {
			emu.SlowNode(slowAddrA, extra, plen)
			emu.SlowNode(slowAddrB, extra, plen)
		})
		scheduleOp(sim, exp, at, cats.OpGet{NodeKey: hCoord, Key: hedgeKey})
	}
	pulseEnd := warmEnd + time.Second + time.Duration(cfg.Pulses)*pulseSpacing

	// Phase 3 — synchronized burst: BurstOps ops issued at one virtual
	// instant from one coordinator. Each replica covering the burst keys
	// sees far more phases inside one shed window than the serve-rate cap
	// allows and sheds the excess; the shed ops recover through jittered
	// redelivery and backoff retries during the tail.
	burstAt := pulseEnd + time.Second
	bCoord := nodeKeys[(hIdx+3)%n]
	burstKeys := make([]string, cfg.BurstKeys)
	for k := range burstKeys {
		burstKeys[k] = "gray-burst-" + strconv.Itoa(k)
	}
	for i := 0; i < cfg.BurstOps; i++ {
		key := burstKeys[i%len(burstKeys)]
		if i < len(burstKeys) || rng.Float64() < 0.5 {
			val := []byte("burst-" + strconv.Itoa(i))
			scheduleOp(sim, exp, burstAt, cats.OpPut{NodeKey: bCoord, Key: key, Value: val})
		} else {
			scheduleOp(sim, exp, burstAt, cats.OpGet{NodeKey: bCoord, Key: key})
		}
	}

	o := Outcome{Sim: sim.Run(burstAt + cfg.Tail)}

	// Audit: one read per key must observe an acknowledged value.
	preAudit := len(host.OpHistory())
	auditKeys := append([]string{hedgeKey}, burstKeys...)
	o.Sim = addStats(o.Sim, auditReads(sim, exp, auditKeys,
		func(i int) ident.Key { return nodeKeys[i%n] }, nodeCfg.OpTimeout*4))
	o.auditHistory(host.OpHistory(), host.UnresolvedOps(), preAudit, auditKeys)

	windows, delayed := emu.GrayStats()
	o.count("slow_windows", windows)
	o.count("slow_delayed", delayed)
	resAfter := abd.GlobalResilienceMetrics()
	o.count("hedges", resAfter.Hedges-resBefore.Hedges)
	o.count("hedge_wins", resAfter.HedgeWins-resBefore.HedgeWins)
	o.count("sheds", resAfter.Sheds-resBefore.Sheds)
	o.count("redeliveries", resAfter.Redeliveries-resBefore.Redeliveries)
	o.count("retries", resAfter.Retries-resBefore.Retries)
	var slowHints uint64
	for _, ref := range host.AliveNodes() {
		if p, ok := host.Peer(ref.Key); ok && p.Node != nil {
			slowHints += p.Node.FD.SlowHints()
		}
	}
	o.count("slow_hints", slowHints)

	o.addTrace(ring)
	o.setExec(exec)
	return o
}

// refAddr resolves a node key to its emulated transport address.
func refAddr(host *cats.Simulator, key ident.Key) (addr network.Address) {
	for _, ref := range host.AliveNodes() {
		if ref.Key == key {
			return ref.Addr
		}
	}
	return
}

// --- hedge A/B benchmark ---------------------------------------------------------

// The hedge A/B's workload: estimator warm-up gets, then measured gets,
// each one under a straggler pulse.
const (
	hedgeWarmOps   = 16
	hedgeOps       = 40
	hedgeSlowExtra = 300 * time.Millisecond // straggler extra latency per pulse
	hedgePulseLen  = 2 * time.Millisecond
)

// HedgeBench measures tail latency under a gray-failing replica with
// hedging off vs on. A two-node cluster makes every replica group both
// nodes (quorum two): pulsing the non-coordinator slow holds every phase
// at quorum-minus-one, which is precisely the hedge trigger. With hedging
// off the op must ride out the delayed original (or an attempt timeout +
// backoff); with hedging on the checkpoint fires after the pulse expired
// and the fast duplicate completes the quorum. Latencies are virtual, so
// the result is deterministic per seed and needs no warm-up round. Metric
// "improvement" is off ÷ on p99.
func HedgeBench(seed int64) (Result, error) {
	round := func(noHedge bool) func() (sample, error) {
		return func() (sample, error) { return hedgeRound(seed, noHedge), nil }
	}
	res, err := runAB(1, false, arm{"off", round(true)}, arm{"on", round(false)})
	if a := res.Arms; err == nil && a[1].P99 > 0 {
		res.Metrics = map[string]float64{"improvement": float64(a[0].P99) / float64(a[1].P99)}
	}
	return res, err
}

// hedgeRound runs one arm of the A/B: same seed, same pulse schedule, only
// the NoHedge knob differs. It counts the hedges fired and won.
func hedgeRound(seed int64, noHedge bool) sample {
	before := abd.GlobalResilienceMetrics()
	nodeCfg := simNodeConfig()
	nodeCfg.DeadlineFloor = 2 * time.Millisecond
	nodeCfg.NoHedge = noHedge

	nodeKeys := spreadKeys(2)
	sim, emu, host, exp := buildSimCluster(seed, nodeKeys, nodeCfg, "", nil)
	// Coordinator: node 0. Straggler: node 1. Every key's replica group is
	// both nodes, so any key works; the coordinator's self-phase acks
	// instantly and the remote is the lone straggler.
	coord := nodeKeys[0]
	slowAddr := refAddr(host, nodeKeys[1])
	key := "hedge-bench"

	warmSpacing := 150 * time.Millisecond
	scheduleOp(sim, exp, 0, cats.OpPut{NodeKey: coord, Key: key, Value: []byte("seed")})
	for i := 1; i < hedgeWarmOps; i++ {
		scheduleOp(sim, exp, time.Duration(i)*warmSpacing, cats.OpGet{NodeKey: coord, Key: key})
	}
	warmEnd := time.Duration(hedgeWarmOps) * warmSpacing

	pulseSpacing := 500 * time.Millisecond
	for i := 0; i < hedgeOps; i++ {
		at := warmEnd + time.Second + time.Duration(i)*pulseSpacing
		sim.ScheduleAt(at, "hedge:pulse", func() { emu.SlowNode(slowAddr, hedgeSlowExtra, hedgePulseLen) })
		scheduleOp(sim, exp, at, cats.OpGet{NodeKey: coord, Key: key})
	}

	sim.Run(warmEnd + time.Second + hedgeOps*pulseSpacing + nodeCfg.OpTimeout*4)
	after := abd.GlobalResilienceMetrics()

	var s sample
	for _, r := range host.OpHistory() {
		if r.Kind != "get" {
			continue
		}
		if !r.OK {
			s.failed++
			continue
		}
		s.lat = append(s.lat, r.End.Sub(r.Start))
	}
	// Drop the warm-up gets (completion order tracks issue order here: the
	// workload is strictly sequential in virtual time).
	if len(s.lat) > hedgeWarmOps-1 {
		s.lat = s.lat[hedgeWarmOps-1:]
	}
	s.done = uint64(len(s.lat)) + s.failed
	s.count("hedges", after.Hedges-before.Hedges)
	s.count("hedge_wins", after.HedgeWins-before.HedgeWins)
	return s
}
