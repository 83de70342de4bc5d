package experiments

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// crashChildEnv, set to "<seed> <dir>", makes the test binary stand in for
// catssim's recovery crash-phase child.
const crashChildEnv = "RECOVERY_CRASH_CHILD"

func TestMain(m *testing.M) {
	if v := os.Getenv(crashChildEnv); v != "" {
		var seed int64
		var dir string
		if _, err := fmt.Sscan(v, &seed, &dir); err != nil {
			fmt.Fprintln(os.Stderr, crashChildEnv+":", err)
			os.Exit(2)
		}
		// Returning at all means the scheduled SIGKILL never fired.
		fmt.Fprintln(os.Stderr, RecoveryCrash(seed, RecoveryConfig{}, dir))
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// testParams sizes the sim scenario at about a third of the scenarios
// gate's sizing, which keeps its two runs short under -race, and runs the
// recovery crash phase in a re-executed test binary.
var testParams = Params{
	Boot: 16, Churn: 6, Lookups: 100, Ops: 40, Tail: 5 * time.Second,
	CrashCmd: func(seed int64, dir string) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d %s", crashChildEnv, seed, dir))
		return cmd
	},
}

// runScenario runs a registry scenario and fails the test on any of its
// gates.
func runScenario(t *testing.T, name string, seed int64) Outcome {
	t.Helper()
	sc, ok := ScenarioByName(name)
	if !ok {
		t.Fatalf("no scenario %q", name)
	}
	o, err := sc.Run(seed, testParams)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	for _, f := range o.Failures() {
		t.Errorf("%s seed %d: %s", name, seed, f)
	}
	return o
}

// TestScenarios runs every deterministic scenario in the registry twice on
// one seed: each run must pass its gates, and the two reports must be
// byte-identical.
func TestScenarios(t *testing.T) {
	seeds := map[string]int64{"sim": 7, "chaos": 3, "chaos-long": 11, "chaos-durable": 5, "gray": 3, "recovery": 3}
	for _, sc := range Scenarios {
		if !sc.Deterministic {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			seed, ok := seeds[sc.Name]
			if !ok {
				t.Fatalf("no test seed for scenario %s", sc.Name)
			}
			var a, b bytes.Buffer
			runScenario(t, sc.Name, seed).Report(&a)
			runScenario(t, sc.Name, seed).Report(&b)
			if a.String() != b.String() {
				t.Fatalf("same seed diverged:\n%s\n%s", a.String(), b.String())
			}
			t.Log("\n" + a.String())
		})
	}
}

// TestFailuresCatchInertRun pins that neither an inert nor a broken run
// can pass: a required counter that reads zero, a required counter the
// run never reported, and a non-linearizable history each fail it.
func TestFailuresCatchInertRun(t *testing.T) {
	sc := Scenario{Name: "inert", Require: []string{"hedges", "sheds", "missing"},
		run: func(int64, Params) (Outcome, error) {
			return Outcome{
				History:  &History{NonLinearizableKey: "k"},
				Counters: []Counter{{Name: "hedges"}, {Name: "sheds", Value: 3}, {Name: "retries"}},
			}, nil
		}}
	o, err := sc.Run(1, Params{})
	if err != nil {
		t.Fatal(err)
	}
	f := o.Failures()
	if len(f) != 3 || !strings.Contains(f[0], "not linearizable") ||
		!strings.HasPrefix(f[1], "hedges=0") || !strings.Contains(f[2], "missing") {
		t.Fatalf("failures = %q, want the history, hedges=0 and the missing counter", f)
	}
}

// TestChurnSurvivesChaos runs the chaos gate's other seeds.
func TestChurnSurvivesChaos(t *testing.T) {
	for _, seed := range []int64{77, 4242} {
		runScenario(t, "chaos", seed)
	}
}
