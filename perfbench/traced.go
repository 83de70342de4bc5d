package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// runKVTraced is the traced run of a key-value workload. It first measures
// untraced capacity on a fresh cluster, then runs the same ops through a
// cluster whose nodes it assembles with taps, and reports the per-layer
// metrics over the fixed-rate phase.
func runKVTraced(cfg config, s *kvSchedule, rep *report) error {
	spec := s.spec
	c, err := startCluster(spec, cfg.workdir, 0, len(s.ops), nil)
	if err != nil {
		return err
	}
	c.closedLoop(s, 0, s.warmEnd, spec.inflight)
	untraced, _ := c.capacity(s)
	checkHistory(s, c.host.recs, len(s.ops), rep, "untraced cluster")
	countOps(c.host.recs, rep)
	c.stop()
	c.removeData()

	tr := newTracer(time.Time{})
	if c, err = startCluster(spec, cfg.workdir, 1, len(s.ops), tr); err != nil {
		return err
	}
	tr.epoch = c.host.epoch
	c.closedLoop(s, 0, s.warmEnd, spec.inflight)

	before := snapshotCounters(c.rt, c.host.nodes, tr)
	tr.on.Store(true)
	ol := c.openLoop(s, s.warmEnd, s.fixedEnd)
	tr.on.Store(false)
	after := snapshotCounters(c.rt, c.host.nodes, tr)
	traced, _ := c.capacity(s)
	lookupLat, unresolved := c.routerLookups(1000, cfg.seed)
	checkHistory(s, c.host.recs, len(s.ops), rep, "traced cluster")
	countOps(c.host.recs, rep)
	c.stop()

	fixedOps := s.fixedEnd - s.warmEnd
	puts, completed := 0, 0
	var ops []opSpan
	for i := s.warmEnd; i < s.fixedEnd; i++ {
		r := c.host.recs[i]
		if s.ops[i].kind == opPut {
			puts++
		}
		if r.end != 0 && r.ok {
			completed++
			ops = append(ops, opSpan{op: int32(i), start: r.issue, end: r.end, label: s.ops[i].kind.String()})
		}
	}
	windowLayers(rep, before, after, busyUS(before, after), fixedOps, puts, spec.valueSize)
	usefulFrac(rep, before, after, fixedOps, completed)
	var lat latencies
	lat.add(s, c.host.recs, ol)
	lat.report(rep)
	rep.add("tracing.overhead_frac", traced/untraced, "ratio", 2, fmt.Sprintf("traced %.0f over untraced %.0f ops/s", traced, untraced))

	sort.Float64s(lookupLat)
	rep.add("router.lookup_us", quantile(lookupLat, 0.5), "us", len(lookupLat), "median FindSuccessor to FoundSuccessor, wall time")
	rep.add("router.unresolved_frac", float64(unresolved)/1000, "ratio", 1000, "lookups without the expected group")
	rep.add("router.partial_view_frac", 0, "ratio", 1000, "every router knows the 3-node membership")

	var rs recovery
	replay := 0.0
	if spec.durable {
		if rs, err = c.recover(s, rep); err != nil {
			return err
		}
		replay = float64(rs.records) / rs.seconds
	}
	rep.add("kvstore.replay_records_per_s", replay, "1/s", rs.records, "records replayed by reopening the stores")
	c.removeData()

	kr, err := kvReplay(s, s.warmEnd, s.fixedEnd, spec.durable, filepath.Join(cfg.workdir, "replay"))
	if err != nil {
		return fmt.Errorf("kvstore replay: %w", err)
	}
	rep.add("kvstore.apply_durable_us_p50", kr.p50US, "us", kr.puts, "replayed fixed-rate puts, same sync policy")
	rep.add("kvstore.apply_durable_us_p99", kr.p99US, "us", kr.puts, "replayed fixed-rate puts, same sync policy")
	rep.add("kvstore.apply_allocs", kr.applyAllocs, "count", kr.puts, "replayed fixed-rate puts")
	rep.add("kvstore.read_ns", kr.readNS, "ns", kr.gets, "replayed fixed-rate gets")
	rep.add("kvstore.read_allocs", kr.readAllocs, "count", kr.gets, "replayed fixed-rate gets")
	inertChecks(cfg.workload, rep)
	microLayers(rep, tr.captured, c.host.refs, cfg.seed)
	for _, name := range []string{"simulation.events", "simulation.ns_per_event", "simulation.execs_per_event", "simulation.msgs_delivered"} {
		rep.add(name, 0, unitOf(name), 0, "no simulation on this workload")
	}

	sum := tr.summarize(ops)
	rep.add("trace.op_self_us", sum.opSelfUS, "us", sum.ops, "op span minus wire spans it covers")
	rep.add("trace.wire_us_per_op", sum.wireCoverUS, "us", sum.ops, "part of each op covered by wire spans")
	if err := tr.writeSpans(spanFile(cfg), ops); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	printSummary(cfg.workload, sum, tr)
	return nil
}

// unitOf returns a per-layer metric's declared unit.
func unitOf(name string) string {
	m, _ := layerByName(name)
	return m.unit
}
