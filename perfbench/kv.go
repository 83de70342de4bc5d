package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/router"
)

// rounds is how many clusters a run sets up, one after another. Each runs
// the whole op stream; setup time and capacity are the medians over the
// rounds, and the fixed-rate phases are pooled, so a disturbance of the
// shared host moves one round rather than the run.
const rounds = 3

// stallLimit ends a phase whose ops have stopped completing; the ops still
// outstanding count as failed and infinitely slow.
const stallLimit = 5 * time.Second

// runKV runs tcp-read or durable-write.
func runKV(cfg config, rep *report) error {
	spec := kvSpecs[cfg.workload]
	// Each round spends about 40% of its measured time at the fixed rate
	// and 60% in the closed loop, sized from the workload's nominal rate.
	fixedDur := time.Duration(cfg.seconds) * time.Second * 2 / (5 * rounds)
	capOps := int(spec.nominal * float64(cfg.seconds) * 0.6 / rounds)
	if cfg.trace {
		// One traced cluster runs the whole stream.
		fixedDur, capOps = fixedDur*rounds, capOps*rounds
	}
	s := genKV(spec, cfg.seed, fixedDur, capOps)
	fmt.Printf("workload %s: %v fixed_phase=%v closed_ops=%d total_ops=%d puts=%d audit_keys=%d\n",
		spec.name, spec, fixedDur, capOps, len(s.ops), len(s.puts), len(s.audit))
	if cfg.trace {
		return runKVTraced(cfg, s, rep)
	}

	var setups, capacities, cpus, fixedCPUs, recoveries []float64
	var lat latencies
	var cost, fixedCost procSample
	var heap float64
	fixedOps, capN, capOpsAll, records := 0, 0, 0, 0
	for round := 0; round < rounds; round++ {
		t0 := time.Now()
		if round == 0 {
			t0 = procStart
		}
		c, err := startCluster(spec, cfg.workdir, round, len(s.ops), nil)
		if err != nil {
			return err
		}
		c.closedLoop(s, 0, s.warmEnd, spec.inflight)
		setups = append(setups, time.Since(t0).Seconds())

		before := sampleProc()
		ol := c.openLoop(s, s.warmEnd, s.fixedEnd)
		after := sampleProc()
		fmt.Printf("round %d: fixed-rate backlog early %.1f late %.1f end %d ops\n",
			round, ol.backlogs[0], ol.backlogs[1], ol.backlogEnd)
		fixedCost = fixedCost.plus(after.minus(before))
		fixedOps += s.fixedEnd - s.warmEnd
		fixedCPUs = append(fixedCPUs, costBetween(before, after, s.fixedEnd-s.warmEnd).cpuUSPerOp)
		lat.add(s, c.host.recs, ol)

		before = sampleProc()
		capacity, n := c.capacity(s)
		after = sampleProc()
		cost = cost.plus(after.minus(before))
		capOpsAll += len(s.ops) - s.fixedEnd
		cpus = append(cpus, costBetween(before, after, len(s.ops)-s.fixedEnd).cpuUSPerOp)
		capacities = append(capacities, capacity)
		capN += n
		if round == rounds-1 {
			heap = liveHeapMiB()
		}
		checkHistory(s, c.host.recs, len(s.ops), rep, fmt.Sprintf("round %d", round))
		countOps(c.host.recs, rep)
		c.stop()
		if spec.durable {
			rs, err := c.recover(s, rep)
			if err != nil {
				return err
			}
			recoveries = append(recoveries, rs.seconds)
			records += rs.records
		}
		c.removeData()
	}

	// The end-to-end costs per op come from the closed loop, where the
	// ops in flight set how ops share frames. At a fixed rate that sharing
	// follows the host's speed, so the fixed-rate figures, printed for
	// reference, move with the load on the machine.
	per := costBetween(procSample{}, cost, capOpsAll)
	fixed := costBetween(procSample{}, fixedCost, fixedOps)
	rep.add("setup_s", median(setups), "s", len(setups), "median over rounds: boot, converge, warm-up")
	rep.add("capacity_ops_s", median(capacities), "ops/s", capN, fmt.Sprintf("closed loop, median over rounds %.0f of median segment rates", capacities))
	rep.add("cpu_us_per_op", median(cpus), "us", capOpsAll, "closed loop, process user+sys, median over rounds")
	rep.add("allocs_per_op", per.allocsPerOp, "count", capOpsAll, "closed loop")
	rep.add("alloc_bytes_per_op", per.allocBytesPerOp, "B", capOpsAll, "closed loop")
	rep.add("heap_live_mb", heap, "MiB", 1, "after GC at the end of the last round")
	rep.add("cpu_us_per_op_fixed", median(fixedCPUs), "us", fixedOps, "fixed-rate phases, process user+sys, median over rounds")
	rep.add("allocs_per_op_fixed", fixed.allocsPerOp, "count", fixedOps, "fixed-rate phases")
	rep.add("alloc_bytes_per_op_fixed", fixed.allocBytesPerOp, "B", fixedOps, "fixed-rate phases")
	lat.report(rep)
	if spec.durable {
		rep.add("recovery_s", median(recoveries), "s", records, "median over rounds: reopen + replay of all stores")
	}
	return nil
}

// countOps adds a cluster's ops to the run's attempted/failed totals.
func countOps(recs []opRec, rep *report) {
	for _, r := range recs {
		if r.issue == 0 {
			continue
		}
		rep.attempted++
		if r.end == 0 || !r.ok {
			rep.failed++
		}
	}
}

// closedLoop runs ops[lo:hi] with at most inflight outstanding, issuing
// the next op as each answer arrives.
func (c *kvCluster) closedLoop(s *kvSchedule, lo, hi, inflight int) {
	h := c.host
	next, pending := lo, 0
	for ; next < hi && pending < inflight; next++ {
		h.issue(s, next)
		pending++
	}
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	last, idle := h.completed.Load(), time.Duration(0)
	for pending > 0 {
		select {
		case i := <-h.done:
			if int(i) < lo || int(i) >= hi {
				continue // a straggler from an earlier phase
			}
			pending--
			if next < hi {
				h.issue(s, next)
				next++
				pending++
			}
		case <-tick.C:
			if cur := h.completed.Load(); cur != last {
				last, idle = cur, 0
			} else if idle += time.Second; idle >= stallLimit {
				return
			}
		}
	}
}

// openLoopStats is what the fixed-rate phase observed of its own schedule.
type openLoopStats struct {
	lagsMs     []float64 // issue time minus due time, per op
	backlogEnd int
	grew       bool
	backlogs   [2]float64 // mean backlog early and late in the phase
}

// openLoop issues ops[lo:hi] at their due times from one goroutine, then
// waits for their answers. Backlog is ops due and not yet answered.
func (c *kvCluster) openLoop(s *kvSchedule, lo, hi int) openLoopStats {
	h := c.host
	var st openLoopStats
	start := time.Now().Add(2 * time.Millisecond)
	startNS := int64(start.Sub(h.epoch))
	base := h.completed.Load()
	dueBy := func(t time.Duration) int {
		return sort.Search(hi-lo, func(k int) bool { return s.ops[lo+k].due > t })
	}

	var samples []float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				done := int(h.completed.Load() - base)
				samples = append(samples, float64(dueBy(now.Sub(start))-done))
			}
		}
	}()

	for i := lo; i < hi; i++ {
		due := start.Add(s.ops[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		h.recs[i].due = startNS + int64(s.ops[i].due)
		h.issue(s, i)
	}
	if d := time.Until(start.Add(s.fixedDur)); d > 0 {
		time.Sleep(d)
	}
	st.backlogEnd = (hi - lo) - int(h.completed.Load()-base)
	close(stop)
	wg.Wait()

	// The phase kept its schedule unless the backlog late in the phase
	// clearly exceeds the backlog early in it.
	if n := len(samples); n >= 8 {
		early := meanOf(samples[n/10 : n*35/100])
		late := meanOf(samples[n*3/4:])
		st.backlogs = [2]float64{early, late}
		st.grew = late > 2*early+16
	}

	for i := lo; i < hi; i++ {
		st.lagsMs = append(st.lagsMs, float64(h.recs[i].issue-h.recs[i].due)/1e6)
	}

	c.awaitOps(lo, hi)
	return st
}

// awaitOps waits until every op of [lo, hi) has answered or answers stop.
func (c *kvCluster) awaitOps(lo, hi int) {
	h := c.host
	missing := 0
	for i := lo; i < hi; i++ {
		if h.recs[i].issue != 0 {
			missing++
		}
	}
	// Answers already consumed by nobody are still buffered in done.
	timeout := time.NewTimer(stallLimit)
	defer timeout.Stop()
	for missing > 0 {
		select {
		case i := <-h.done:
			if int(i) >= lo && int(i) < hi {
				missing--
			}
		case <-timeout.C:
			return
		}
	}
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// capacity runs the closed-loop phase and returns its throughput: the
// median of the rates of sixteen equal-count segments of completions, so
// a short stall of the shared host moves one segment, not the figure.
func (c *kvCluster) capacity(s *kvSchedule) (float64, int) {
	start := int64(time.Since(c.host.epoch))
	c.closedLoop(s, s.fixedEnd, len(s.ops), s.spec.inflight)
	var ends []int64
	for i := s.fixedEnd; i < len(s.ops); i++ {
		if r := c.host.recs[i]; r.end != 0 && r.ok {
			ends = append(ends, r.end)
		}
	}
	return segmentRate(start, ends, 16), len(ends)
}

// segmentRate splits completion times into segs equal-count segments and
// returns the median segment rate in completions per second.
func segmentRate(start int64, ends []int64, segs int) float64 {
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	if len(ends) < segs {
		return 0
	}
	var rates []float64
	prev := start
	for k := 1; k <= segs; k++ {
		hi := ends[k*len(ends)/segs-1]
		n := k*len(ends)/segs - (k-1)*len(ends)/segs
		if hi > prev {
			rates = append(rates, float64(n)/(float64(hi-prev)/1e9))
		}
		prev = hi
	}
	return median(rates)
}

// latencies pools the fixed-rate phases of the rounds: get and put
// latency timed from each op's due time (an op that failed or never
// answered counts as infinitely slow), and the open loop's own lag.
type latencies struct {
	ms         [2][]float64 // by opKind
	lags       []float64
	failed     int
	backlogEnd int
	grew       []string
}

func (l *latencies) add(s *kvSchedule, recs []opRec, ol openLoopStats) {
	for i := s.warmEnd; i < s.fixedEnd; i++ {
		r := recs[i]
		d := math.Inf(1)
		if r.end != 0 && r.ok {
			d = float64(r.end-r.due) / 1e6
		} else {
			l.failed++
		}
		l.ms[s.ops[i].kind] = append(l.ms[s.ops[i].kind], d)
	}
	l.lags = append(l.lags, ol.lagsMs...)
	l.backlogEnd = max(l.backlogEnd, ol.backlogEnd)
	if ol.grew {
		l.grew = append(l.grew, fmt.Sprintf("from %.1f to %.1f ops", ol.backlogs[0], ol.backlogs[1]))
	}
}

func (l *latencies) report(rep *report) {
	issued := len(l.ms[opGet]) + len(l.ms[opPut])
	for k, name := range []string{"get", "put"} {
		xs := l.ms[k]
		sort.Float64s(xs)
		rep.add(name+"_p50_ms", quantile(xs, 0.5), "ms", len(xs), "fixed-rate phases, from due time")
		rep.add(name+"_p99_ms", quantile(xs, 0.99), "ms", len(xs), "fixed-rate phases, from due time")
	}
	rep.add("op_fail_frac", float64(l.failed)/float64(max(issued, 1)), "ratio", issued, "fixed-rate phases")
	sort.Float64s(l.lags)
	rep.add("harness.gen_lag_p99_ms", quantile(l.lags, 0.99), "ms", len(l.lags), "issue time minus due time")
	rep.add("harness.backlog_end", float64(l.backlogEnd), "count", 1, "most ops due and unanswered at a fixed-rate phase end")
	for _, g := range l.grew {
		rep.fail("fixed-rate phase fell behind its schedule: backlog grew %s", g)
	}
}

// removeData deletes a durable cluster's data directories.
func (c *kvCluster) removeData() {
	for _, d := range c.host.dirs {
		os.RemoveAll(d)
	}
}

// recovery is the outcome of reopening a stopped cluster's stores.
type recovery struct {
	seconds float64
	records int
}

// recover reopens every store of a stopped durable cluster with
// kvstore.Open, times the replay, and checks that each key's newest acked
// put survived.
func (c *kvCluster) recover(s *kvSchedule, rep *report) (recovery, error) {
	var rs recovery
	stores := make([]*kvstore.Store, 0, len(c.host.dirs))
	t0 := time.Now()
	for _, d := range c.host.dirs {
		st, err := kvstore.Open(d, kvstore.Options{Sync: walSync, SyncEvery: walSyncEvery})
		if err != nil {
			return rs, fmt.Errorf("reopen store %s: %w", d, err)
		}
		stores = append(stores, st)
	}
	rs.seconds = time.Since(t0).Seconds()
	for _, st := range stores {
		r := st.Recovery()
		rs.records += r.SnapshotEntries + r.WALEntries
	}
	checkDurable(s, c.host.recs, stores, rep)
	for _, st := range stores {
		st.Close()
	}
	return rs, nil
}

// routerLookups issues n Router-port lookups one at a time at rotating
// nodes and returns their wall latencies in µs and how many came back
// without the group the full membership implies.
func (c *kvCluster) routerLookups(n int, seed int64) (lat []float64, unresolved int) {
	h := c.host
	members := append([]ident.NodeRef(nil), h.refs...)
	ident.SortByKey(members)
	key := ident.Key(uint64(seed)*0x9E3779B97F4A7C15 + 1)
	for i := 0; i < n; i++ {
		key = ident.Key(uint64(key)*6364136223846793005 + 1442695040888963407)
		t0 := time.Now()
		req := router.FindSuccessor{ReqID: lookupBase + uint64(i), Key: key, Count: 3}
		if err := core.TriggerOn(h.route[i%len(h.route)], req); err != nil {
			unresolved++
			continue
		}
		select {
		case a := <-h.lookups:
			lat = append(lat, float64(a.at.Sub(t0))/1e3)
			if !sameGroup(a.group, ident.SuccessorsOf(members, key, 3)) {
				unresolved++
			}
		case <-time.After(time.Second):
			unresolved++
		}
	}
	return lat, unresolved
}

func sameGroup(a, b []ident.NodeRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
