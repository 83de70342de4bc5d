package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/simulation"
)

// The sim-lookup workload: the paper's Table 1. simPeers peers in
// deterministic simulation over the emulator's uniform 0.5–2 ms links join
// one every simJoinGap, converge for simConverge, then each issues one
// Router-port lookup per simulated second.
const (
	simPeers       = 256
	simJoinGap     = 50 * time.Millisecond
	simConverge    = 20 * time.Second // virtual time from the last join to the window
	simConvergeMax = 60 * time.Second // give up if peers have not joined by then
	simChunk       = 5 * time.Second  // the window runs in chunks of this much virtual time
)

// simWorldSeed fixes the simulated deployment: ring keys, join order and
// the protocols' random choices. The run's seed generates the lookups, as
// it generates the ops on the key-value workloads, whose clusters are
// likewise laid out the same in every run.
const simWorldSeed int64 = 1

// simNodeConfig is the simulation experiments' node timing, except that
// router entries do not age out within a run: the workload has no
// failures, so each router's membership view only grows and every answer
// can be checked against the views its router held.
func simNodeConfig() cats.NodeConfig {
	return cats.NodeConfig{
		ReplicationDegree: 3,
		FDInterval:        time.Second,
		StabilizePeriod:   time.Second,
		CyclonPeriod:      2 * time.Second,
		OpTimeout:         2 * time.Second,
		RouterEntryTTL:    10 * time.Minute,
		RouterSweepPeriod: 10 * time.Second,
	}
}

type joinCmd struct{ i int }

// hostPort is the benchmark's root components' port: joinCmd creates and
// starts one node.
var hostPort = core.NewPortType("perfbenchHost", core.Request[joinCmd]())

// lookupRec is one generated lookup and what came of it.
type lookupRec struct {
	node     int
	target   ident.Key
	due      time.Duration
	start    time.Time // wall time of the trigger (traced runs)
	end      time.Time
	answered bool
	group    []ident.NodeRef
}

// simHost is the simulation's root component: it creates peers on joinCmd
// and collects lookup answers.
type simHost struct {
	env   cats.SimEnv
	cfg   cats.NodeConfig
	tr    *tracer
	refs  []ident.NodeRef
	rng   *rand.Rand
	ctx   *core.Ctx
	nodes []*cats.Node
	route []*core.Port
	recs  []lookupRec
}

func (h *simHost) Setup(ctx *core.Ctx) {
	h.ctx = ctx
	core.Subscribe(ctx, ctx.Provides(hostPort), h.join)
}

func (h *simHost) join(j joinCmd) {
	cfg := h.cfg
	cfg.Self = h.refs[j.i]
	for _, k := range h.rng.Perm(j.i) {
		if len(cfg.Seeds) == 3 {
			break
		}
		cfg.Seeds = append(cfg.Seeds, h.refs[k])
	}
	var comp *core.Component
	name := fmt.Sprintf("peer%d", j.i)
	if h.tr == nil {
		p := cats.NewPeer(h.env, cfg)
		comp = h.ctx.Create(name, p)
		h.nodes = append(h.nodes, p.Node)
	} else {
		p := &tracedPeer{env: h.env, cfg: cfg, tr: h.tr}
		comp = h.ctx.Create(name, p)
		h.nodes = append(h.nodes, p.node)
	}
	rp := comp.Provided(router.PortType)
	h.route = append(h.route, rp)
	core.Subscribe(h.ctx, rp, h.found)
	h.ctx.Start(comp)
}

func (h *simHost) found(f router.FoundSuccessor) {
	i := f.ReqID - lookupBase
	if f.ReqID < lookupBase || i >= uint64(len(h.recs)) {
		return
	}
	r := &h.recs[i]
	if h.tr != nil {
		r.end = time.Now()
	}
	r.answered = true
	r.group = f.Group
}

func (h *simHost) fire(i int) {
	r := &h.recs[i]
	if h.tr != nil {
		r.start = time.Now()
	}
	req := router.FindSuccessor{ReqID: lookupBase + uint64(i), Key: r.target, Count: 3}
	if err := core.TriggerOn(h.route[r.node], req); err != nil {
		panic(err) // the Router port allows FindSuccessor; only a bug lands here
	}
}

// wallBusy is the traced simulation's trace sink. Under virtual time the
// runtime's handler durations read zero, so it charges each executed work
// item the wall time since the previous one; that includes the kernel's
// own work between two executions.
type wallBusy struct {
	on   bool
	last time.Time
	busy map[string]time.Duration // by layer
}

func (w *wallBusy) Record(r core.TraceRecord) {
	now := time.Now()
	if w.on && r.Component != nil {
		if layer, ok := busyLayers[r.Component.Name()]; ok {
			w.busy[layer] += now.Sub(w.last)
		}
	}
	w.last = now
}

// simWorld is one simulated deployment.
type simWorld struct {
	sim    *simulation.Simulation
	emu    *simulation.NetworkEmulator
	host   *simHost
	sorted []ident.NodeRef
}

// simMembers places the peers evenly around the ring, as the repo's
// simulation experiments do.
func simMembers() []ident.NodeRef {
	step := ^uint64(0)/simPeers + 1
	refs := make([]ident.NodeRef, simPeers)
	for i := range refs {
		refs[i] = ident.NodeRef{Key: ident.Key(uint64(i)*step + 12345), Addr: network.Address{Host: fmt.Sprintf("10.0.%d.%d", i/250, i%250+1), Port: 7000}}
	}
	return refs
}

// buildSim joins every peer and runs the simulation until every router
// knows the whole membership.
func buildSim(tr *tracer, opts ...simulation.SimOption) (*simWorld, error) {
	seed := simWorldSeed
	sim := simulation.New(seed, opts...)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.UniformLatency(500*time.Microsecond, 2*time.Millisecond)))
	h := &simHost{
		env: cats.SimEnv{Sim: sim, Emu: emu}, cfg: simNodeConfig(), tr: tr,
		refs: simMembers(), rng: rand.New(rand.NewSource(seed)),
	}
	w := &simWorld{sim: sim, emu: emu, host: h}
	w.sorted = append([]ident.NodeRef(nil), h.refs...)
	ident.SortByKey(w.sorted)
	root := sim.Runtime().MustBootstrap("Main", h)
	if tr != nil {
		tr.epoch = sim.Now()
	}
	sim.Run(0)
	joinPort := root.Provided(hostPort)
	for i := range h.refs {
		if err := core.TriggerOn(joinPort, joinCmd{i: i}); err != nil {
			return nil, err
		}
		sim.Run(simJoinGap)
	}
	sim.Run(simConverge)
	for waited := simConverge; !w.joined(); waited += simConverge / 3 {
		if waited >= simConvergeMax {
			return nil, fmt.Errorf("peers not joined %v after the last join", waited)
		}
		sim.Run(simConverge / 3)
	}
	return w, nil
}

// joined reports whether every peer has joined the ring.
func (w *simWorld) joined() bool {
	for _, node := range w.host.nodes {
		if !node.Ring.Joined() {
			return false
		}
	}
	return true
}

// views snapshots every router's membership view.
func (w *simWorld) views() [][]ident.NodeRef {
	out := make([][]ident.NodeRef, len(w.host.nodes))
	for i, n := range w.host.nodes {
		out[i] = n.Router.Members()
	}
	return out
}

// schedule generates the lookups of a window of secs simulated seconds:
// one per peer per second at a seeded offset, with a seeded target.
func (w *simWorld) schedule(seed int64, secs int) {
	rng := rand.New(rand.NewSource(seed ^ 0x100c))
	h := w.host
	h.recs = make([]lookupRec, 0, secs*simPeers)
	for s := 0; s < secs; s++ {
		for p := 0; p < simPeers; p++ {
			due := time.Duration(s)*time.Second + time.Duration(rng.Int63n(int64(time.Second)))
			h.recs = append(h.recs, lookupRec{node: p, target: ident.Key(rng.Uint64()), due: due})
		}
	}
	for i := range h.recs {
		w.sim.ScheduleAt(h.recs[i].due, "lookup", func() { h.fire(i) })
	}
}

// simWindow is the measured window's outcome.
type simWindow struct {
	stats      simulation.Stats
	chunkRates []float64 // lookups due per wall second, per chunk
	chunkCPU   []float64 // process CPU µs per lookup due, per chunk
	lookups    int
}

// run runs the scheduled window chunk by chunk.
func (w *simWorld) run(secs int) simWindow {
	var out simWindow
	total := time.Duration(secs) * time.Second
	for done := time.Duration(0); done < total; done += simChunk {
		d := min(simChunk, total-done)
		cpu0 := cpuTime()
		st := w.sim.Run(d)
		cpu := cpuTime() - cpu0
		out.stats.SimulatedDuration += st.SimulatedDuration
		out.stats.WallDuration += st.WallDuration
		out.stats.DiscreteEvents += st.DiscreteEvents
		out.stats.HandlerExecutions += st.HandlerExecutions
		due := 0
		for _, r := range w.host.recs {
			if r.due >= done && r.due < done+d {
				due++
			}
		}
		out.chunkRates = append(out.chunkRates, float64(due)/st.WallDuration.Seconds())
		out.chunkCPU = append(out.chunkCPU, float64(cpu)/float64(time.Microsecond)/float64(max(due, 1)))
	}
	out.lookups = len(w.host.recs)
	return out
}

// check verifies every answered lookup against the membership views its
// router held at the window's start and end (routers learn members by
// gossip, so a view is a growing subset of the membership). It returns
// how many lookups went unanswered or empty, and how many groups differ
// from the group over the full membership.
func (w *simWorld) check(rep *report, start, end [][]ident.NodeRef) (failed, partial int) {
	bad := 0
	for i, r := range w.host.recs {
		if !r.answered || len(r.group) == 0 {
			failed++
			continue
		}
		if !sameGroup(r.group, ident.SuccessorsOf(w.sorted, r.target, 3)) {
			partial++
		}
		if err := groupFits(r.group, r.target, start[r.node], end[r.node]); err != nil {
			if bad < 5 {
				rep.fail("lookup %d of %v at peer %d: group %v: %v", i, r.target, r.node, r.group, err)
			}
			bad++
		}
	}
	if bad > 5 {
		rep.fail("%d lookups returned a wrong group in all", bad)
	}
	return failed, partial
}

// groupFits checks that group is SuccessorsOf(view, key, 3) for some view
// between from and to (from ⊆ view ⊆ to): three distinct members of to, in
// clockwise order from key, leaving out no member of from that lies on the
// arc from key to the group's last member.
func groupFits(group []ident.NodeRef, key ident.Key, from, to []ident.NodeRef) error {
	if len(group) != 3 {
		return fmt.Errorf("has %d members, want 3", len(group))
	}
	known := make(map[ident.NodeRef]bool, len(to))
	for _, m := range to {
		known[m] = true
	}
	for k, m := range group {
		if !known[m] {
			return fmt.Errorf("member %v is not in its router's view", m)
		}
		if k > 0 && key.DistanceTo(m.Key) <= key.DistanceTo(group[k-1].Key) {
			return fmt.Errorf("members are not in clockwise order from the key")
		}
	}
	in := map[ident.NodeRef]bool{group[0]: true, group[1]: true, group[2]: true}
	last := key.DistanceTo(group[2].Key)
	for _, m := range from {
		if key.DistanceTo(m.Key) <= last && !in[m] {
			return fmt.Errorf("skips %v, which its router knew", m)
		}
	}
	return nil
}

// runSim runs sim-lookup. The measured window is six simulated seconds per
// requested second, split over the setup rounds.
func runSim(cfg config, rep *report) error {
	secs := 6 * cfg.seconds
	fmt.Printf("workload sim-lookup: peers=%d links=uniform(0.5ms,2ms) join_gap=%v window=%ds simulated lookups=%d/peer/s\n",
		simPeers, simJoinGap, secs, 1)
	if cfg.trace {
		return runSimTraced(cfg, secs, rep)
	}
	// Each round sets a world up and runs a third of the window, so the
	// measurement is spread over the run like the key-value rounds.
	var setups, rates, cpus []float64
	var cost procSample
	var stats simulation.Stats
	var heap float64
	lookups, failed, partial := 0, 0, 0
	for round := 0; round < rounds; round++ {
		t0 := time.Now()
		if round == 0 {
			t0 = procStart
		}
		w, err := buildSim(nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())

		w.schedule(cfg.seed, secs/rounds)
		start := w.views()
		before := sampleProc()
		win := w.run(secs / rounds)
		cost = cost.plus(sampleProc().minus(before))
		rates = append(rates, win.chunkRates...)
		cpus = append(cpus, win.chunkCPU...)
		stats.SimulatedDuration += win.stats.SimulatedDuration
		stats.WallDuration += win.stats.WallDuration
		stats.DiscreteEvents += win.stats.DiscreteEvents
		lookups += win.lookups
		if round == rounds-1 {
			heap = liveHeapMiB()
		}
		f, p := w.check(rep, start, w.views())
		failed += f
		partial += p
	}
	rep.attempted, rep.failed = lookups, failed
	per := costBetween(procSample{}, cost, lookups)

	rep.add("setup_s", median(setups), "s", len(setups), "median over rounds: join, converge")
	rep.add("capacity_ops_s", median(rates), "ops/s", lookups, "lookups per wall second, median of the rounds' chunks")
	rep.add("cpu_us_per_op", median(cpus), "us", lookups, "process user+sys per lookup, median of the rounds' chunks")
	rep.add("allocs_per_op", per.allocsPerOp, "count", lookups, "per lookup, measured windows")
	rep.add("alloc_bytes_per_op", per.allocBytesPerOp, "B", lookups, "per lookup, measured windows")
	rep.add("heap_live_mb", heap, "MiB", 1, "after GC at the end of the last round")
	rep.add("sim_compression_x", stats.Compression(), "x", len(rates), "simulated time over wall time")
	rep.add("simulation.events", float64(stats.DiscreteEvents), "count", rounds, "discrete events in the windows")
	rep.add("op_fail_frac", float64(failed)/float64(lookups), "ratio", lookups, "unanswered or empty lookups")
	rep.add("router.partial_view_frac", float64(partial)/float64(lookups), "ratio", lookups, "groups differing from the full-membership group")
	return nil
}

// runSimTraced measures the kernel and untraced throughput on one world,
// then runs the same lookups through a world whose peers carry taps.
func runSimTraced(cfg config, secs int, rep *report) error {
	w, err := buildSim(nil)
	if err != nil {
		return err
	}
	w.schedule(cfg.seed, secs)
	start := w.views()
	delivered0, _, _, _ := w.emu.Stats()
	plain := w.run(secs)
	delivered1, _, _, _ := w.emu.Stats()
	failed, _ := w.check(rep, start, w.views())
	rep.attempted += plain.lookups
	rep.failed += failed
	untraced := median(plain.chunkRates)
	events := max(plain.stats.DiscreteEvents, 1)
	rep.add("simulation.events", float64(plain.stats.DiscreteEvents), "count", 1, "discrete events in the window, exact per seed")
	rep.add("simulation.ns_per_event", float64(plain.stats.WallDuration)/float64(events), "ns", int(events), "wall time per discrete event, untraced")
	rep.add("simulation.execs_per_event", float64(plain.stats.HandlerExecutions)/float64(events), "count", int(events), "handler executions per discrete event")
	rep.add("simulation.msgs_delivered", float64(delivered1-delivered0), "count", 1, "emulator deliveries in the window")
	w = nil

	tr := newTracer(time.Time{})
	wall := &wallBusy{busy: make(map[string]time.Duration)}
	if w, err = buildSim(tr, simulation.WithTraceSink(wall)); err != nil {
		return err
	}
	w.schedule(cfg.seed, secs)
	start = w.views()
	before := snapshotCounters(w.sim.Runtime(), w.host.nodes, tr)
	tr.on.Store(true)
	wall.on = true
	win := w.run(secs)
	wall.on = false
	tr.on.Store(false)
	after := snapshotCounters(w.sim.Runtime(), w.host.nodes, tr)
	failed, partial := w.check(rep, start, w.views())
	rep.attempted += win.lookups
	rep.failed += failed

	n := win.lookups
	busy := make(map[string]float64, len(wall.busy))
	for l, d := range wall.busy {
		busy[l] = float64(d) / 1e3
	}
	windowLayers(rep, before, after, busy, n, 0, 0)
	usefulFrac(rep, before, after, n, n-failed)
	traced := median(win.chunkRates)
	rep.add("tracing.overhead_frac", traced/untraced, "ratio", 2, fmt.Sprintf("traced %.0f over untraced %.0f lookups/s", traced, untraced))

	var lat []float64
	var ops []opSpan
	unresolved := 0
	for i, r := range w.host.recs {
		if !r.answered || len(r.group) == 0 {
			unresolved++
			continue
		}
		lat = append(lat, float64(r.end.Sub(r.start))/1e3)
		ops = append(ops, opSpan{op: int32(i), start: int64(r.start.Sub(procStart)), end: int64(r.end.Sub(procStart)), label: "lookup"})
	}
	sort.Float64s(lat)
	rep.add("router.lookup_us", quantile(lat, 0.5), "us", len(lat), "median FindSuccessor to FoundSuccessor, wall time")
	rep.add("router.unresolved_frac", float64(unresolved)/float64(max(n, 1)), "ratio", n, "unanswered or empty lookups")
	rep.add("router.partial_view_frac", float64(partial)/float64(max(n, 1)), "ratio", n, "groups differing from the full-membership group")
	rep.add("harness.gen_lag_p99_ms", 0, "ms", n, "lookups fire at their virtual due time")
	rep.add("harness.backlog_end", float64(unresolved), "count", 1, "lookups unanswered at the window end")
	for _, name := range []string{"kvstore.apply_durable_us_p50", "kvstore.apply_durable_us_p99", "kvstore.apply_allocs", "kvstore.read_ns", "kvstore.read_allocs", "kvstore.replay_records_per_s"} {
		rep.add(name, 0, unitOf(name), 0, "no store traffic on this workload")
	}
	microLayers(rep, tr.captured, w.host.refs, cfg.seed)
	inertChecks(cfg.workload, rep)

	sum := tr.summarize(ops)
	rep.add("trace.op_self_us", sum.opSelfUS, "us", sum.ops, "lookup span (wall) minus wire spans it covers")
	rep.add("trace.wire_us_per_op", sum.wireCoverUS, "us", sum.ops, "part of each lookup covered by wire spans")
	if err := tr.writeSpans(spanFile(cfg), ops); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	printSummary(cfg.workload, sum, tr)
	return nil
}
