package experiments

import "testing"

// TestGraySurvivesStragglers runs the gray gate's other seeds.
func TestGraySurvivesStragglers(t *testing.T) {
	for _, seed := range []int64{77, 4242} {
		runScenario(t, "gray", seed)
	}
}

// TestHedgeBenchImproves pins the A/B result: with a gray-failing replica,
// hedging must strictly shorten the p99 tail, and the improvement must come
// from actual hedges (inert-gate detection).
func TestHedgeBenchImproves(t *testing.T) {
	r, err := HedgeBench(5)
	if err != nil {
		t.Fatal(err)
	}
	off, on := r.Arm("off"), r.Arm("on")
	if off.Done == off.Failed || on.Done == on.Failed {
		t.Fatalf("arm produced no measured ops: off=%d on=%d", off.Done-off.Failed, on.Done-on.Failed)
	}
	if off.Failed > 0 || on.Failed > 0 {
		t.Errorf("measured ops failed: off=%d on=%d", off.Failed, on.Failed)
	}
	if on.Counts["hedges"] == 0 {
		t.Fatalf("hedging arm fired no hedges — benchmark is inert")
	}
	if on.P99 >= off.P99 {
		t.Errorf("hedging did not improve p99: off=%v on=%v", off.P99, on.P99)
	}
	t.Logf("off: p50=%v p99=%v max=%v | on: p50=%v p99=%v max=%v | hedges=%d wins=%d improvement=%.1fx",
		off.P50, off.P99, off.Max, on.P50, on.P99, on.Max,
		on.Counts["hedges"], on.Counts["hedge_wins"], r.Metrics["improvement"])
}
