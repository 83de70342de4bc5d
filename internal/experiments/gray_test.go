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
	r := HedgeBench(5, HedgeBenchConfig{})
	if r.Off.Ops == 0 || r.On.Ops == 0 {
		t.Fatalf("arm produced no measured ops: off=%d on=%d", r.Off.Ops, r.On.Ops)
	}
	if r.Off.Failed > 0 || r.On.Failed > 0 {
		t.Errorf("measured ops failed: off=%d on=%d", r.Off.Failed, r.On.Failed)
	}
	if r.Hedges == 0 {
		t.Fatalf("hedging arm fired no hedges — benchmark is inert")
	}
	if r.On.P99 >= r.Off.P99 {
		t.Errorf("hedging did not improve p99: off=%v on=%v", r.Off.P99, r.On.P99)
	}
	t.Logf("off: p50=%v p99=%v max=%v | on: p50=%v p99=%v max=%v | hedges=%d wins=%d improvement=%.1fx",
		r.Off.P50, r.Off.P99, r.Off.Max, r.On.P50, r.On.P99, r.On.Max,
		r.Hedges, r.HedgeWins, r.P99Improvement)
}
