package main

import (
	"fmt"
	"strings"

	"repro/internal/abd"
	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/network"
)

// layerMetric is one per-layer metric of the traced run and the
// end-to-end metric it should move, on which workload.
type layerMetric struct {
	name, unit, better, moves string
}

// perLayer lists the traced run's metrics in BENCHMARK.json order.
var perLayer = []layerMetric{
	{"core.events_per_op", "count", "lower", "cpu_us_per_op, capacity_ops_s on tcp-read and durable-write; sim_compression_x on sim-lookup"},
	{"core.steals_per_kop", "count", "lower", "cpu_us_per_op, capacity_ops_s on tcp-read and durable-write"},
	{"core.parks_per_kop", "count", "lower", "cpu_us_per_op, capacity_ops_s on tcp-read and durable-write"},
	{"core.dispatch_ns", "ns", "lower", "cpu_us_per_op on every workload (times core.events_per_op)"},
	{"core.dispatch_allocs", "count", "lower", "allocs_per_op on every workload (times core.events_per_op)"},
	{"network.busy_us_per_op", "us", "lower", "cpu_us_per_op on tcp-read"},
	{"abd.busy_us_per_op", "us", "lower", "cpu_us_per_op on tcp-read and durable-write"},
	{"router.busy_us_per_op", "us", "lower", "cpu_us_per_op on tcp-read and durable-write, sim_compression_x on sim-lookup"},
	{"timer.busy_us_per_op", "us", "lower", "cpu_us_per_op on tcp-read and durable-write"},
	{"ring.busy_us_per_op", "us", "lower", "sim_compression_x on sim-lookup"},
	{"fd.busy_us_per_op", "us", "lower", "sim_compression_x on sim-lookup"},
	{"cyclon.busy_us_per_op", "us", "lower", "sim_compression_x on sim-lookup"},
	{"handoff.busy_us_per_op", "us", "lower", "cpu_us_per_op on durable-write"},
	{"network.msgs_per_op", "count", "lower", "cpu_us_per_op, capacity_ops_s, get_p50_ms on tcp-read"},
	{"network.wire_bytes_per_op", "B", "lower", "cpu_us_per_op, capacity_ops_s on tcp-read; 0 on durable-write"},
	{"network.fallback_frac", "ratio", "lower", "cpu_us_per_op on tcp-read"},
	{"network.encode_ns", "ns", "lower", "cpu_us_per_op, capacity_ops_s, get_p50_ms on tcp-read"},
	{"network.decode_ns", "ns", "lower", "cpu_us_per_op, capacity_ops_s, get_p50_ms on tcp-read"},
	{"network.encode_allocs", "count", "lower", "allocs_per_op on tcp-read"},
	{"network.decode_allocs", "count", "lower", "allocs_per_op on tcp-read"},
	{"abd.ops_per_frame", "count", "higher", "capacity_ops_s, get/put p99 on tcp-read and durable-write"},
	{"abd.retries_per_kop", "count", "lower", "capacity_ops_s, get/put p99 on tcp-read and durable-write"},
	{"abd.hedges_per_kop", "count", "lower", "capacity_ops_s, get/put p99 on tcp-read and durable-write"},
	{"abd.sheds_per_kop", "count", "lower", "capacity_ops_s, get/put p99 on tcp-read and durable-write"},
	{"abd.restarts_per_kop", "count", "lower", "capacity_ops_s, get/put p99 on tcp-read and durable-write"},
	{"abd.useful_frac", "ratio", "higher", "capacity_ops_s on tcp-read and durable-write"},
	{"router.resolve_ns", "ns", "lower", "cpu_us_per_op on tcp-read and durable-write, sim_compression_x on sim-lookup"},
	{"router.resolve_allocs", "count", "lower", "allocs_per_op on every workload"},
	{"router.lookup_us", "us", "lower", "cpu_us_per_op on tcp-read and durable-write, sim_compression_x on sim-lookup"},
	{"router.unresolved_frac", "ratio", "lower", "op_fail_frac on every workload"},
	{"router.partial_view_frac", "ratio", "lower", "sim_compression_x on sim-lookup (work per lookup grows with the view); 0 on the 3-node workloads"},
	{"kvstore.wal_appends_per_put", "count", "lower", "put p50/p99, capacity_ops_s on durable-write"},
	{"kvstore.fsyncs_per_put", "count", "lower", "put p50/p99, capacity_ops_s on durable-write; 0 on tcp-read"},
	{"kvstore.wal_bytes_per_user_byte", "ratio", "lower", "put p50/p99, capacity_ops_s on durable-write"},
	{"kvstore.snapshots_per_kput", "count", "lower", "put p99 on durable-write"},
	{"kvstore.apply_durable_us_p50", "us", "lower", "put_p50_ms, capacity_ops_s on durable-write"},
	{"kvstore.apply_durable_us_p99", "us", "lower", "put_p99_ms on durable-write"},
	{"kvstore.apply_allocs", "count", "lower", "allocs_per_op on durable-write"},
	{"kvstore.read_ns", "ns", "lower", "get_p50_ms on tcp-read and durable-write"},
	{"kvstore.read_allocs", "count", "lower", "allocs_per_op on tcp-read"},
	{"kvstore.replay_records_per_s", "1/s", "higher", "recovery_s on durable-write"},
	{"timer.schedules_per_op", "count", "lower", "cpu_us_per_op on tcp-read and durable-write"},
	{"simulation.events", "count", "lower", "sim_compression_x on sim-lookup (exact per seed)"},
	{"simulation.ns_per_event", "ns", "lower", "sim_compression_x on sim-lookup"},
	{"simulation.execs_per_event", "count", "lower", "sim_compression_x on sim-lookup"},
	{"simulation.msgs_delivered", "count", "lower", "sim_compression_x on sim-lookup"},
	{"harness.gen_lag_p99_ms", "ms", "lower", "validity of get/put latencies on tcp-read and durable-write"},
	{"harness.backlog_end", "count", "lower", "validity of get/put latencies on tcp-read and durable-write"},
	{"tracing.overhead_frac", "ratio", "higher", "none: traced capacity over untraced capacity"},
	{"trace.op_self_us", "us", "lower", "get/put p50 on tcp-read and durable-write"},
	{"trace.wire_us_per_op", "us", "lower", "get/put p50 on tcp-read"},
}

func layerByName(name string) (layerMetric, bool) {
	for _, m := range perLayer {
		if m.name == name {
			return m, true
		}
	}
	return layerMetric{}, false
}

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.name
	}
	return out
}

// busyLayers maps a component's name to the layer its busy time counts
// toward.
var busyLayers = map[string]string{
	"net": "network", "abd": "abd", "router": "router", "timer": "timer",
	"ring": "ring", "fd": "fd", "cyclon": "cyclon", "handoff": "handoff",
}

type compCount struct {
	layer                      string
	handled, samples, sumNanos uint64
}

// counters is a snapshot of every counter the per-layer metrics read.
type counters struct {
	sched      core.SchedulerStats
	comps      map[string]compCount
	net        network.Metrics
	kv         kvstore.Metrics
	res        abd.ResilienceMetrics
	batches    uint64
	batchedOps uint64
	restarts   uint64
	tapMsgs    uint64
	timerReqs  uint64
	tapExecs   uint64 // work items the benchmark's own taps executed
}

func snapshotCounters(rt *core.Runtime, nodes []*cats.Node, tr *tracer) counters {
	snap := rt.MetricsSnapshot()
	c := counters{
		sched: snap.Scheduler,
		comps: make(map[string]compCount),
		net:   network.GlobalMetrics(),
		kv:    kvstore.GlobalMetrics(),
		res:   abd.GlobalResilienceMetrics(),
	}
	for _, cs := range snap.Components {
		name := cs.Path[strings.LastIndexByte(cs.Path, '/')+1:]
		if name == "nettap" || name == "timertap" {
			c.tapExecs += cs.Handled
		}
		if layer, ok := busyLayers[name]; ok {
			c.comps[cs.Path] = compCount{layer: layer, handled: cs.Handled, samples: cs.Latency.Samples, sumNanos: cs.Latency.SumNanos}
		}
	}
	for _, n := range nodes {
		b, bo := n.ABD.BatchStats()
		_, _, r := n.ABD.EpochStats()
		c.batches += b
		c.batchedOps += bo
		c.restarts += r
	}
	tr.mu.Lock()
	c.tapMsgs = tr.msgs
	c.timerReqs = tr.timerReqs + tr.periodReqs
	tr.mu.Unlock()
	return c
}

// busyUS returns each layer's busy time between two snapshots in µs: the
// handled-event count times the sampled mean handler time.
func busyUS(a, b counters) map[string]float64 {
	out := make(map[string]float64)
	for path, cb := range b.comps {
		ca := a.comps[path]
		handled := cb.handled - ca.handled
		samples, sum := cb.samples-ca.samples, cb.sumNanos-ca.sumNanos
		if samples == 0 { // too few events in the window: use the lifetime mean
			samples, sum = cb.samples, cb.sumNanos
		}
		if samples > 0 {
			out[cb.layer] += float64(handled) * float64(sum) / float64(samples) / 1e3
		}
	}
	return out
}

// windowLayers adds the counter-based per-layer metrics for a window of
// ops operations, of which puts were puts of putBytes user bytes each;
// busy is each layer's busy time in the window, in µs.
func windowLayers(rep *report, a, b counters, busy map[string]float64, ops, puts, putBytes int) {
	n := float64(max(ops, 1))
	perK := func(x uint64) float64 { return float64(x) * 1000 / n }
	execs := (b.sched.Executed - a.sched.Executed) - (b.tapExecs - a.tapExecs)
	rep.add("core.events_per_op", float64(execs)/n, "count", ops, "scheduler executions per op, taps excluded")
	rep.add("core.steals_per_kop", perK(b.sched.Steals-a.sched.Steals), "count", ops, "")
	rep.add("core.parks_per_kop", perK(b.sched.Parks-a.sched.Parks), "count", ops, "")
	for _, l := range []string{"network", "abd", "router", "timer", "ring", "fd", "cyclon", "handoff"} {
		rep.add(l+".busy_us_per_op", busy[l]/n, "us", ops, "")
	}
	msgs := b.tapMsgs - a.tapMsgs
	rep.add("network.msgs_per_op", float64(msgs)/n, "count", ops, "messages at the Network-port taps")
	rep.add("network.wire_bytes_per_op", float64(b.net.EncodedBytes-a.net.EncodedBytes)/n, "B", ops, "encoded payload bytes")
	enc := b.net.EncodedMsgs - a.net.EncodedMsgs
	rep.add("network.fallback_frac", ratio(b.net.CodecFallbacks-a.net.CodecFallbacks, enc), "ratio", int(enc), "codec fallbacks over encoded messages")

	frames := b.batches - a.batches
	rep.add("abd.ops_per_frame", ratio(b.batchedOps-a.batchedOps, frames), "count", int(frames), "phases per coalesced frame")
	rep.add("abd.retries_per_kop", perK(b.res.Retries-a.res.Retries), "count", ops, "")
	rep.add("abd.hedges_per_kop", perK(b.res.Hedges-a.res.Hedges), "count", ops, "")
	rep.add("abd.sheds_per_kop", perK(b.res.Sheds-a.res.Sheds), "count", ops, "")
	rep.add("abd.restarts_per_kop", perK(b.restarts-a.restarts), "count", ops, "")

	p := float64(max(puts, 1))
	rep.add("kvstore.wal_appends_per_put", float64(b.kv.WALAppends-a.kv.WALAppends)/p, "count", puts, "")
	rep.add("kvstore.fsyncs_per_put", float64(b.kv.WALSyncs-a.kv.WALSyncs)/p, "count", puts, "")
	rep.add("kvstore.wal_bytes_per_user_byte", float64(b.kv.WALBytes-a.kv.WALBytes)/float64(max(puts*putBytes, 1)), "ratio", puts, "")
	rep.add("kvstore.snapshots_per_kput", float64(b.kv.Snapshots-a.kv.Snapshots)*1000/p, "count", puts, "")
	rep.add("timer.schedules_per_op", float64(b.timerReqs-a.timerReqs)/n, "count", ops, "timer requests at the Timer-port taps")
}

// usefulFrac adds abd.useful_frac: ops completed over attempts, where each
// retry or epoch restart is one more attempt.
func usefulFrac(rep *report, a, b counters, issued, completed int) {
	attempts := uint64(issued) + (b.res.Retries - a.res.Retries) + (b.restarts - a.restarts)
	rep.add("abd.useful_frac", ratio(uint64(completed), attempts), "ratio", int(attempts), "completed ops over attempts")
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// inertChecks fails the run when a layer that should do no work on the
// workload did some: such a change alters what the workload measures.
func inertChecks(workload string, rep *report) {
	get := func(name string) float64 {
		x, _ := rep.value(name)
		return x.value
	}
	switch workload {
	case "tcp-read":
		if v := get("kvstore.fsyncs_per_put"); v != 0 {
			rep.fail("inert layer: kvstore.fsyncs_per_put is %v on tcp-read, want 0", v)
		}
	case "durable-write":
		if v := get("network.wire_bytes_per_op"); v != 0 {
			rep.fail("inert layer: network.wire_bytes_per_op is %v on durable-write, want 0", v)
		}
		if v := get("kvstore.fsyncs_per_put"); v <= 0 {
			rep.fail("kvstore.fsyncs_per_put is %v on durable-write, want > 0", v)
		}
	case "sim-lookup":
		if v := get("abd.ops_per_frame"); v != 0 {
			rep.fail("inert layer: abd.ops_per_frame is %v on sim-lookup, want 0", v)
		}
	}
}

// printSummary prints the traced run's span table: self time, counts and
// ratios per layer, each ratio with its base.
func printSummary(workload string, s spanSummary, tr *tracer) {
	fmt.Printf("\ntraced run summary, workload %s\n", workload)
	fmt.Printf("%-10s %10s %12s %14s %14s\n", "layer", "spans", "per op", "mean span us", "self us/op")
	ops := float64(max(s.ops, 1))
	fmt.Printf("%-10s %10d %12.3f %14.2f %14.2f\n", "op", s.ops, 1.0, s.opMeanUS, s.opSelfUS)
	fmt.Printf("%-10s %10d %12.3f %14.2f %14.2f\n", "wire", s.wireSpans, float64(s.wireSpans)/ops, s.wireMeanUS, s.wireCoverUS)
	fmt.Printf("%-10s %10d %12.3f %14.2f %14s\n", "timer", s.timerSpans, float64(s.timerSpans)/ops, s.timerMeanUS, "-")
	fmt.Printf("per op: base %d answered ops; wire spans serving an op: %d of %d; unmatched receipts: %d; one-shot timers fired: %d of %d\n",
		s.ops, s.wireAttributed, s.wireSpans, tr.unmatched, s.timerFired, s.timerSpans)
	fmt.Println("self time: op span minus the part its wire spans cover; wire spans have no children")
	fmt.Println()
}
