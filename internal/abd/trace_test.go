package abd

import (
	"testing"
	"time"

	"repro/internal/tracing"
)

// withTracing swaps in always-on (or custom) sampling and a fresh private
// span ring for the duration of a test, restoring both afterwards.
func withTracing(t *testing.T, every, ringSize int) *tracing.Ring {
	t.Helper()
	prev := tracing.SetSampleEvery(every)
	ring := tracing.NewRing(ringSize)
	old := tracing.SwapDefault(ring)
	t.Cleanup(func() {
		tracing.SetSampleEvery(prev)
		tracing.SwapDefault(old)
	})
	return ring
}

// TestStaleNackRestartSpans is the event-stream assertion on the trace
// layer: a stale-epoch nack → restart must produce exactly one
// restart-linked child span per epoch restart (the new attempt linking
// back to the superseded one), and each replica's serve spans must honor
// monotone phase ordering — attempts never regress, and within an attempt
// no read phase is served after a write phase.
func TestStaleNackRestartSpans(t *testing.T) {
	ring := withTracing(t, 1, 1<<12)
	sim, _, nodes, _ := newReplicaWorld(t, 3, 34, nil)

	// Replicas 2 and 3 at epoch 4; coordinator 1 still at 0 → its first
	// attempt is stale-nacked and restarted against the hinted epoch.
	nodes[1].syncWindow(4, 1, true)
	nodes[2].syncWindow(4, 1, true)
	sim.Settle()
	nodes[0].put(1, "k", "v1")
	sim.Run(2 * time.Second)

	if len(nodes[0].puts) != 1 || nodes[0].puts[0].Err != "" {
		t.Fatalf("put through stale view: %+v", nodes[0].puts)
	}
	_, _, restarts := nodes[0].ABD.EpochStats()
	if restarts == 0 {
		t.Fatal("scenario produced no epoch restart")
	}

	tls := tracing.Assemble(ring.Snapshot())
	var put *tracing.Timeline
	for i := range tls {
		if tls[i].Name == "put" && tls[i].Key == "k" {
			put = &tls[i]
			break
		}
	}
	if put == nil {
		t.Fatalf("no assembled put timeline among %d timelines", len(tls))
	}

	// The restarted op keeps one trace: every span shares its ID, and the
	// timeline covers the coordinator plus at least one remote replica.
	if len(put.Nodes) < 2 {
		t.Fatalf("timeline nodes = %v, want spans from >=2 nodes", put.Nodes)
	}

	// Exactly one linked child span per epoch restart, each link resolving
	// to the superseded attempt span (outcome "restart").
	byID := map[uint64]tracing.Span{}
	for _, s := range put.Spans {
		byID[s.ID] = s
	}
	var linked []tracing.Span
	for _, s := range put.Spans {
		if s.Link != 0 {
			linked = append(linked, s)
		}
	}
	if len(linked) != int(restarts) {
		t.Fatalf("%d restart-linked spans for %d epoch restarts: %+v", len(linked), restarts, linked)
	}
	if put.Restarts != int(restarts) {
		t.Fatalf("timeline Restarts = %d, want %d", put.Restarts, restarts)
	}
	for _, s := range linked {
		if s.Name != "attempt" {
			t.Fatalf("restart link on non-attempt span %+v", s)
		}
		prev, ok := byID[s.Link]
		if !ok {
			t.Fatalf("restart link %x resolves to no span in the trace", s.Link)
		}
		if prev.Name != "attempt" || prev.Outcome != "restart" {
			t.Fatalf("restart link points at %+v, want superseded attempt with outcome restart", prev)
		}
		if s.Attempt != prev.Attempt+1 {
			t.Fatalf("linked attempt %d does not follow superseded attempt %d", s.Attempt, prev.Attempt)
		}
	}

	// Every non-root span's parent must exist inside the trace.
	for _, s := range put.Spans {
		if s.Parent == 0 {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Fatalf("span %+v has dangling parent %x", s, s.Parent)
		}
	}

	// Monotone phase ordering per replica: serve spans in record order
	// never regress in attempt, and within one attempt a read is never
	// served after a write.
	type replicaState struct {
		attempt  int
		wroteYet bool
	}
	perNode := map[string]*replicaState{}
	for _, s := range put.Spans { // Spans sorted by (Start, Seq)
		if s.Name != "serve.read" && s.Name != "serve.write" {
			continue
		}
		st := perNode[s.Node]
		if st == nil {
			st = &replicaState{}
			perNode[s.Node] = st
		}
		if s.Attempt < st.attempt {
			t.Fatalf("replica %s served attempt %d after attempt %d", s.Node, s.Attempt, st.attempt)
		}
		if s.Attempt > st.attempt {
			st.attempt, st.wroteYet = s.Attempt, false
		}
		if s.Name == "serve.write" && s.Outcome == "ok" {
			st.wroteYet = true
		}
		if s.Name == "serve.read" && st.wroteYet {
			t.Fatalf("replica %s served a read after a write within attempt %d", s.Node, s.Attempt)
		}
	}
	if len(perNode) == 0 {
		t.Fatal("no replica serve spans recorded")
	}

	// Coordinator phase spans inside one attempt appear in protocol order.
	order := map[string]int{"route": 1, "read": 2, "write": 3}
	lastPhase := map[int]int{}
	for _, s := range put.Spans {
		p, isPhase := order[s.Name]
		if !isPhase {
			continue
		}
		if prev := lastPhase[s.Attempt]; p < prev {
			t.Fatalf("attempt %d phase %q recorded after a later phase", s.Attempt, s.Name)
		} else if p > prev {
			lastPhase[s.Attempt] = p
		}
	}
}

// TestDisabledTracingRecordsNothing: with sampling off, a full op leaves
// the span ring untouched.
func TestDisabledTracingRecordsNothing(t *testing.T) {
	ring := withTracing(t, 0, 64)
	sim, _, nodes, _ := newReplicaWorld(t, 3, 37, nil)
	nodes[0].put(1, "k", "v")
	sim.Run(time.Second)
	if len(nodes[0].puts) != 1 || nodes[0].puts[0].Err != "" {
		t.Fatalf("put failed: %+v", nodes[0].puts)
	}
	if ring.Recorded() != 0 {
		t.Fatalf("disabled tracing recorded %d spans", ring.Recorded())
	}
}

// TestEpochChurnStressTraced re-runs the full epoch churn stress with
// always-on tracing: the span layer must not disturb op resolution, and
// (under -race) recording from the protocol path must be race-free.
func TestEpochChurnStressTraced(t *testing.T) {
	ring := withTracing(t, 1, 1<<14)
	epochChurnStress(t)
	if ring.Recorded() == 0 {
		t.Fatal("traced churn stress recorded no spans")
	}
	// Parent links must resolve within every assembled timeline (the ring
	// is sized to hold the whole run, so nothing was evicted).
	for _, tl := range tracing.Assemble(ring.Snapshot()) {
		byID := map[uint64]bool{}
		for _, s := range tl.Spans {
			byID[s.ID] = true
		}
		for _, s := range tl.Spans {
			if s.Parent != 0 && !byID[s.Parent] {
				t.Fatalf("trace %s: span %s/%s has dangling parent", tl.TraceHex, s.Node, s.Name)
			}
		}
	}
}
