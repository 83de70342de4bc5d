package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the package doc's experiment list from the registry")

// arm returns a pointer to r's named arm, failing the test if it has none.
func arm(t *testing.T, r *experiments.Result, name string) *experiments.ArmResult {
	for i := range r.Arms {
		if r.Arms[i].Name == name {
			return &r.Arms[i]
		}
	}
	t.Fatalf("result has no arm %q", name)
	return nil
}

// TestGates checks every gated entry against its checked-in baseline with
// no cluster: a result equal to the baseline passes, and an inert, failed
// or below-floor result, or an empty baseline, fails.
func TestGates(t *testing.T) {
	cases := map[string]map[string]func(t *testing.T, r *experiments.Result){
		"million": {
			"failed op":   func(t *testing.T, r *experiments.Result) { arm(t, r, "million").Failed = 1 },
			"no shards":   func(t *testing.T, r *experiments.Result) { delete(arm(t, r, "million").Counts, "non_empty_shards") },
			"below floor": func(t *testing.T, r *experiments.Result) { arm(t, r, "million").OpsPS *= 0.89 },
		},
		"wal": {
			"no appends":  func(t *testing.T, r *experiments.Result) { delete(arm(t, r, "always").Counts, "wal_appends") },
			"no fsyncs":   func(t *testing.T, r *experiments.Result) { delete(arm(t, r, "always").Counts, "wal_syncs") },
			"below floor": func(t *testing.T, r *experiments.Result) { arm(t, r, "always").OpsPS *= 0.89 },
		},
		"hedge": {
			"no hedges":     func(t *testing.T, r *experiments.Result) { delete(arm(t, r, "on").Counts, "hedges") },
			"no wins":       func(t *testing.T, r *experiments.Result) { delete(arm(t, r, "on").Counts, "hedge_wins") },
			"failed off op": func(t *testing.T, r *experiments.Result) { arm(t, r, "off").Failed = 1 },
			"failed on op":  func(t *testing.T, r *experiments.Result) { arm(t, r, "on").Failed = 1 },
			"no p99 win":    func(t *testing.T, r *experiments.Result) { arm(t, r, "on").P99 = arm(t, r, "off").P99 },
			"below floor":   func(t *testing.T, r *experiments.Result) { r.Metrics["improvement"] *= 0.74 },
		},
	}
	gated := 0
	for _, e := range entries {
		if e.gate == nil {
			continue
		}
		gated++
		mutations, ok := cases[e.name]
		if !ok {
			t.Errorf("gated entry %q has no test cases", e.name)
			continue
		}
		raw, err := os.ReadFile("../../bench/BENCH_baseline_" + e.name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		// Each case mutates its own copy.
		baseline := func() experiments.Result {
			var r experiments.Result
			if err := json.Unmarshal(raw, &r); err != nil {
				t.Fatal(err)
			}
			return r
		}
		if fails, err := gate(e, baseline(), "../../bench"); err != nil || len(fails) > 0 {
			t.Errorf("%s: result equal to the baseline fails: %v %v", e.name, err, fails)
		}
		if fails := e.gate(baseline(), experiments.Result{}); len(fails) == 0 {
			t.Errorf("%s: passes against a baseline with no floor", e.name)
		}
		for name, mutate := range mutations {
			r := baseline()
			mutate(t, &r)
			if fails := e.gate(r, baseline()); len(fails) == 0 {
				t.Errorf("%s: %s result passes the gate", e.name, name)
			}
		}
	}
	if gated != len(cases) {
		t.Errorf("%d gated entries, %d with test cases", gated, len(cases))
	}
}

// TestPackageDoc pins the package doc's experiment list to the registry;
// -update rewrites it.
func TestPackageDoc(t *testing.T) {
	var want strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&want, "//\tcatsbench -exp %-9s # %s\n", e.name, e.doc)
	}
	want.WriteString("//\tcatsbench -exp all\n")

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "//\tcatsbench -exp "
	start := bytes.Index(src, []byte(prefix))
	end := bytes.LastIndex(src, []byte(prefix))
	if start < 0 {
		t.Fatal("main.go has no experiment list")
	}
	end += bytes.IndexByte(src[end:], '\n') + 1
	if string(src[start:end]) == want.String() {
		return
	}
	if !*update {
		t.Fatalf("package doc list is stale; run go test -run TestPackageDoc -update. Want:\n%s", want.String())
	}
	out := append(append(append([]byte(nil), src[:start]...), want.String()...), src[end:]...)
	if err := os.WriteFile("main.go", out, 0o644); err != nil {
		t.Fatal(err)
	}
}
