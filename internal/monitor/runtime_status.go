package monitor

import (
	"repro/internal/abd"
	"repro/internal/core"
	"repro/internal/handoff"
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/status"
	"repro/internal/tracing"
)

// RuntimeStatus is a Status producer that answers with the node's runtime
// telemetry — scheduler, component, routing-cache, trace, and network
// counters — flattened into the map[string]int64 wire form of
// status.Response. Attached next to a node's functional components, it makes
// every node's runtime internals visible in the monitor server's global view
// without the server knowing anything about the telemetry layer.
type RuntimeStatus struct {
	ctx  *core.Ctx
	port *core.Port
}

// NewRuntimeStatus creates a runtime-status component definition.
func NewRuntimeStatus() *RuntimeStatus { return &RuntimeStatus{} }

var _ core.Definition = (*RuntimeStatus)(nil)

// Setup declares the provided Status port.
func (r *RuntimeStatus) Setup(ctx *core.Ctx) {
	r.ctx = ctx
	r.port = ctx.Provides(status.PortType)
	core.Subscribe(ctx, r.port, r.handleRequest)
}

func (r *RuntimeStatus) handleRequest(req status.Request) {
	r.ctx.Trigger(status.Response{
		ReqID:     req.ReqID,
		Component: "runtime",
		Metrics:   FlattenRuntimeMetrics(r.ctx.Runtime().MetricsSnapshot(), network.GlobalMetrics()),
	}, r.port)
}

// FlattenRuntimeMetrics converts a telemetry snapshot plus the network
// counters into the flat map carried by status.Response. Per-component series
// are summed: the monitor view is a node-level rollup, the full breakdown
// stays on the node's own /metrics endpoint.
func FlattenRuntimeMetrics(s core.MetricsSnapshot, n network.Metrics) map[string]int64 {
	m := map[string]int64{
		"components.live":   s.LiveComponents,
		"components.total":  s.TotalComponents,
		"faults":            int64(s.Faults),
		"sched.workers":     int64(s.Scheduler.Workers),
		"sched.executed":    int64(s.Scheduler.Executed),
		"sched.local_pops":  int64(s.Scheduler.LocalPops),
		"sched.steals":      int64(s.Scheduler.Steals),
		"sched.steal_miss":  int64(s.Scheduler.StealMisses),
		"sched.stolen":      int64(s.Scheduler.Stolen),
		"sched.shrinks":     int64(s.Scheduler.StealShrinks),
		"sched.parks":       int64(s.Scheduler.Parks),
		"sched.max_depth":   s.Scheduler.MaxDequeDepth,
		"routecache.tables": int64(s.RouteCache.Tables),
		"routecache.plans":  int64(s.RouteCache.Plans),
		"routecache.builds": int64(s.RouteCache.Builds),
		"routecache.resets": int64(s.RouteCache.Resets),
		"net.sent":          int64(n.Sent),
		"net.received":      int64(n.Received),
		"net.dropped":       int64(n.DroppedFull),
		"net.send_errors":   int64(n.SendErrors),
		"net.reconnects":    int64(n.Reconnects),
		"net.requeued":      int64(n.Requeued),
		"net.abandoned":     int64(n.Abandoned),
		"net.traced":        int64(n.TracedFrames),
		"net.peers_up":      n.PeersUp,
		"net.peers_backoff": n.PeersBackoff,
	}
	var handled, triggers int64
	for _, c := range s.Components {
		handled += int64(c.Handled)
		triggers += int64(c.Triggers)
	}
	m["comps.handled"] = handled
	m["comps.triggers"] = triggers
	if s.Trace.Enabled {
		m["trace.records"] = int64(s.Trace.Records)
	}
	h := handoff.GlobalMetrics()
	m["handoff.keys"] = int64(h.Keys)
	m["handoff.bytes"] = int64(h.Bytes)
	m["handoff.transfers"] = int64(h.Transfers)
	m["group.epoch"] = int64(h.Epoch)
	k := kvstore.GlobalMetrics()
	m["kv.reads"] = int64(k.Reads)
	m["kv.applies"] = int64(k.Applies)
	m["kv.rejected"] = int64(k.Rejected)
	m["wal.appends"] = int64(k.WALAppends)
	m["wal.bytes"] = int64(k.WALBytes)
	m["wal.syncs"] = int64(k.WALSyncs)
	m["wal.replays"] = int64(k.WALReplays)
	m["wal.errors"] = int64(k.WALErrors)
	m["wal.snapshots"] = int64(k.Snapshots)
	m["wal.open_stores"] = int64(k.DurableStoresOpen)
	b := abd.GlobalBatchMetrics()
	m["abd.batches"] = int64(b.Batches)
	m["abd.batched_ops"] = int64(b.BatchedOps)
	res := abd.GlobalResilienceMetrics()
	m["abd.retries"] = int64(res.Retries)
	m["abd.hedges"] = int64(res.Hedges)
	m["abd.hedge_wins"] = int64(res.HedgeWins)
	m["abd.sheds"] = int64(res.Sheds)
	m["abd.redeliveries"] = int64(res.Redeliveries)
	recorded, dropped := tracing.Stats()
	m["spans.recorded"] = int64(recorded)
	m["spans.dropped"] = int64(dropped)
	return m
}
