// A/B harness. Every comparison catsbench runs is a list of named arms
// over runAB: each arm runs one round and returns a sample, and runAB
// interleaves the rounds, discards the optional warm-up and pools each
// arm's samples into one ArmResult. The result's shape is the one schema
// catsbench prints, writes as JSON and gates.
package experiments

import (
	"fmt"
	"sort"
	"time"
)

// sample is what one round of one arm measured.
type sample struct {
	// done counts every completed op; failed counts those that returned
	// an error.
	done, failed uint64
	// elapsed is the round's load time (zero for virtual-time rounds).
	elapsed time.Duration
	lat     []time.Duration
	// counts holds counter deltas the round produced, by name.
	counts map[string]uint64
}

// count records a nonzero counter delta.
func (s *sample) count(name string, v uint64) {
	if v == 0 {
		return
	}
	if s.counts == nil {
		s.counts = map[string]uint64{}
	}
	s.counts[name] += v
}

// arm is one configuration of an A/B comparison.
type arm struct {
	name  string
	round func() (sample, error)
}

// ArmResult pools every round one arm ran.
type ArmResult struct {
	Name   string  `json:"name"`
	Done   uint64  `json:"done,omitempty"`
	Failed uint64  `json:"failed,omitempty"`
	OpsPS  float64 `json:"ops_ps,omitempty"`
	// Latency percentiles over every op of every round.
	P50 time.Duration `json:"p50_ns,omitempty"`
	P99 time.Duration `json:"p99_ns,omitempty"`
	Max time.Duration `json:"max_ns,omitempty"`
	// RoundPS is the ops/s of each round, in round order.
	RoundPS []float64         `json:"round_ps,omitempty"`
	Counts  map[string]uint64 `json:"counts,omitempty"`
}

// Result is one bench experiment: its arms in declaration order and the
// figures derived from them.
type Result struct {
	Name    string             `json:"name"`
	Arms    []ArmResult        `json:"arms"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Arm returns the named arm's result, or a zero result naming no arm.
func (r Result) Arm(name string) ArmResult {
	for _, a := range r.Arms {
		if a.Name == name {
			return a
		}
	}
	return ArmResult{}
}

// runAB runs `rounds` rounds of every arm. Round r starts at arm
// r%len(arms), so each arm goes first once per len(arms) rounds and
// machine drift cancels instead of biasing one arm. With warm set, the
// first arm runs one extra round up front whose sample is discarded: a
// process's first round absorbs cold caches and any initial CPU-quota
// burst, which would otherwise be credited to whichever arm ran first.
func runAB(rounds int, warm bool, arms ...arm) (Result, error) {
	if warm {
		if _, err := arms[0].round(); err != nil {
			return Result{}, fmt.Errorf("warm-up: %w", err)
		}
	}
	samples := make([][]sample, len(arms))
	for r := 0; r < rounds; r++ {
		for i := range arms {
			a := (r + i) % len(arms)
			s, err := arms[a].round()
			if err != nil {
				return Result{}, fmt.Errorf("%s: %w", arms[a].name, err)
			}
			samples[a] = append(samples[a], s)
		}
	}
	res := Result{Arms: make([]ArmResult, len(arms))}
	for i, a := range arms {
		res.Arms[i] = pool(a.name, samples[i])
	}
	return res, nil
}

// pool folds one arm's samples into its result.
func pool(name string, samples []sample) ArmResult {
	res := ArmResult{Name: name}
	var elapsed time.Duration
	var lat []time.Duration
	for _, s := range samples {
		res.Done += s.done
		res.Failed += s.failed
		elapsed += s.elapsed
		lat = append(lat, s.lat...)
		res.RoundPS = append(res.RoundPS, opsPS(s.done, s.elapsed))
		for k, v := range s.counts {
			if res.Counts == nil {
				res.Counts = map[string]uint64{}
			}
			res.Counts[k] += v
		}
	}
	res.OpsPS = opsPS(res.Done, elapsed)
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		res.P50, res.P99, res.Max = lat[len(lat)/2], lat[len(lat)*99/100], lat[len(lat)-1]
	}
	return res
}

func opsPS(done uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(done) / elapsed.Seconds()
}

// overhead is 1 - the median over rounds of a's ops/s ÷ base's ops/s in
// the same round: positive means a is slower than base. Pairing within a
// round compares runs seconds apart, so slow machine drift across a
// multi-minute run cancels; the median discards rounds a noise spike
// ruined.
func overhead(a, base ArmResult) float64 {
	var ratios []float64
	for r, ps := range a.RoundPS {
		if r < len(base.RoundPS) && base.RoundPS[r] > 0 {
			ratios = append(ratios, ps/base.RoundPS[r])
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	sort.Float64s(ratios)
	return 1 - ratios[len(ratios)/2]
}
