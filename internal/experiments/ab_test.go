package experiments

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// TestRunAB drives the runner with fake arms and no cluster. Arm i's
// round r reports ps[i][r] ops in one second, a latency of r+1 ms and one
// count under the arm's own name; the warm-up round reports a count no
// arm may see.
func TestRunAB(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rounds int
		warm   bool
		ps     [][]float64
		// wantOverhead is 1 - the median of ps[1][r]/ps[0][r], by hand.
		wantOverhead float64
	}{
		{name: "two arms", rounds: 4, warm: false,
			ps: [][]float64{{100, 100, 100, 100}, {50, 100, 200, 400}}, wantOverhead: -1},
		{name: "three arms with warm-up", rounds: 3, warm: true,
			// ratios 0.9, 0.75, 1.1: median 0.9.
			ps: [][]float64{{100, 200, 100}, {90, 150, 110}, {1, 1, 1}}, wantOverhead: 0.1},
		{name: "four arms, two cycles", rounds: 8, warm: true,
			ps: [][]float64{{10, 10, 10, 10, 10, 10, 10, 10}, {8, 8, 8, 8, 8, 8, 8, 8},
				{1, 1, 1, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1, 1, 1}}, wantOverhead: 0.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls []int // arm index of every round run, warm-up included
			roundOf := make([]int, len(tc.ps))
			arms := make([]arm, len(tc.ps))
			for i := range arms {
				i := i
				arms[i] = arm{fmt.Sprint("arm", i), func() (sample, error) {
					calls = append(calls, i)
					var s sample
					if tc.warm && len(calls) == 1 {
						s.count("warm-up", 1)
						s.lat = []time.Duration{time.Hour}
						return s, nil
					}
					r := roundOf[i]
					roundOf[i]++
					s.done = uint64(tc.ps[i][r])
					s.elapsed = time.Second
					s.lat = []time.Duration{time.Duration(r+1) * time.Millisecond}
					s.count(arms[i].name, 1)
					return s, nil
				}}
			}
			res, err := runAB(tc.rounds, tc.warm, arms...)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Arms

			rounds := calls
			if tc.warm {
				if calls[0] != 0 {
					t.Fatalf("warm-up ran arm %d, want arm 0", calls[0])
				}
				rounds = calls[1:]
			}
			n := len(arms)
			for cycle := 0; cycle+n <= tc.rounds; cycle += n {
				first := map[int]int{}
				for r := cycle; r < cycle+n; r++ {
					first[rounds[r*n]]++
				}
				if len(first) != n {
					t.Errorf("rounds %d-%d: first arms %v, want each arm once", cycle, cycle+n-1, first)
				}
			}

			for i, a := range got {
				if a.Name != arms[i].name {
					t.Fatalf("result %d is %q, want %q", i, a.Name, arms[i].name)
				}
				want := map[string]uint64{a.Name: uint64(tc.rounds)}
				if fmt.Sprint(a.Counts) != fmt.Sprint(want) {
					t.Errorf("%s counts %v, want %v (only its own rounds, no warm-up)", a.Name, a.Counts, want)
				}
				if a.Max != time.Duration(tc.rounds)*time.Millisecond {
					t.Errorf("%s max latency %v: the warm-up or another arm's sample leaked in", a.Name, a.Max)
				}
				for r, ps := range a.RoundPS {
					if ps != tc.ps[i][r] {
						t.Errorf("%s round %d ops/s %v, want %v", a.Name, r, ps, tc.ps[i][r])
					}
				}
			}
			if o := overhead(got[1], got[0]); math.Abs(o-tc.wantOverhead) > 1e-9 {
				t.Errorf("overhead %v, want %v", o, tc.wantOverhead)
			}
		})
	}
}
