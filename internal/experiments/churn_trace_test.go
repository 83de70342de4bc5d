package experiments

import (
	"testing"

	"repro/internal/tracing"
)

// TestChurnTraceAcceptance pins the tracing acceptance criterion for the
// chaos scenario: an operation that crosses an epoch restart (and the
// handoff window behind it) must assemble into ONE timeline carrying spans
// from at least two nodes with intact parent and restart links. The chaos
// gates in TestScenarios require such timelines to exist and replay
// identically from the seed.
func TestChurnTraceAcceptance(t *testing.T) {
	a := Churn(3, ChurnConfig{})
	// A clean run must not implicate anything.
	if v := a.ViolationTimelines(); len(v) != 0 {
		t.Fatalf("clean run cited %d violation timelines", len(v))
	}

	// Find a completed client op (not a handoff round) that restarted
	// across epochs AND touched >= 2 nodes, then check its structural
	// integrity. Only completed ("ok") ops are held to full link
	// integrity: an op cut off mid-flight by a crash can legitimately
	// leave dangling children.
	var hit *tracing.Timeline
	for i := range a.Timelines {
		tl := &a.Timelines[i]
		if (tl.Name == "put" || tl.Name == "get") &&
			tl.Restarts >= 1 && len(tl.Nodes) >= 2 && tl.Outcome == "ok" {
			hit = tl
			break
		}
	}
	if hit == nil {
		t.Fatalf("no completed cross-node timeline with an epoch restart among %d", len(a.Timelines))
	}
	checkTimelineIntegrity(t, *hit)
	t.Logf("acceptance timeline: trace=%s %s key=%s restarts=%d nodes=%v spans=%d",
		hit.TraceHex, hit.Name, hit.Key, hit.Restarts, hit.Nodes, len(hit.Spans))
}

// checkTimelineIntegrity verifies one assembled timeline's span tree:
// exactly one root, every parent and restart link resolves inside the
// timeline, restart links point at earlier sibling attempts, and span
// starts never precede their parent's start (monotone phase ordering).
func checkTimelineIntegrity(t *testing.T, tl tracing.Timeline) {
	t.Helper()
	byID := make(map[uint64]tracing.Span, len(tl.Spans))
	roots := 0
	for _, s := range tl.Spans {
		if s.Trace != tl.Trace {
			t.Errorf("span %016x from foreign trace %016x", s.ID, s.Trace)
		}
		byID[s.ID] = s
		if s.Parent == 0 {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("timeline %s has %d roots, want exactly 1", tl.TraceHex, roots)
	}
	for _, s := range tl.Spans {
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				t.Errorf("span %016x (%s) has dangling parent %016x", s.ID, s.Name, s.Parent)
				continue
			}
			if s.Start.Before(p.Start) {
				t.Errorf("span %016x (%s) starts before its parent %s", s.ID, s.Name, p.Name)
			}
		}
		if s.Link != 0 {
			prev, ok := byID[s.Link]
			if !ok {
				t.Errorf("span %016x (%s) has dangling restart link %016x", s.ID, s.Name, s.Link)
				continue
			}
			if prev.Name != s.Name {
				t.Errorf("restart link crosses span kinds: %s -> %s", s.Name, prev.Name)
			}
			if s.Start.Before(prev.Start) {
				t.Errorf("restarted %s starts before the attempt it supersedes", s.Name)
			}
		}
	}
}
