package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// kvSpec describes one key-value workload. Every value here is recorded
// in the run's header line.
type kvSpec struct {
	name      string
	durable   bool    // durable stores under a data directory (see walSync)
	tcp       bool    // real TCP on 127.0.0.1 (else in-process loopback, no codec)
	readFrac  float64 // share of gets
	valueSize int     // bytes per put value
	keys      int     // key space
	zipf      float64 // Zipf exponent over the key space (0: uniform)
	rate      float64 // fixed-rate phase arrival rate, ops/s
	inflight  int     // closed-loop ops in flight
	warmOps   int     // closed-loop warm-up ops, discarded
	nominal   float64 // ops/s used to size the closed-loop phase's op count
}

var kvSpecs = map[string]kvSpec{
	"tcp-read": {
		name: "tcp-read", tcp: true,
		readFrac: 0.9, valueSize: 256, keys: 10000, zipf: 0.99,
		rate: 3000, inflight: 32, warmOps: 1500, nominal: 9000,
	},
	"durable-write": {
		name: "durable-write", durable: true,
		readFrac: 0.2, valueSize: 1024, keys: 50000,
		rate: 1500, inflight: 32, warmOps: 1000, nominal: 18000,
	},
}

func (s kvSpec) String() string {
	env := "loopback(no codec)"
	if s.tcp {
		env = "tcp(127.0.0.1, default codec)"
	}
	store := "memory"
	if s.durable {
		store = fmt.Sprintf("durable(wal %v every %v)", walSync, walSyncEvery)
	}
	dist := "uniform"
	if s.zipf > 0 {
		dist = fmt.Sprintf("zipf(%.2f)", s.zipf)
	}
	return fmt.Sprintf("nodes=%d env=%s store=%s gets=%.0f%% value=%dB keys=%d %s fixed_rate=%.0f/s inflight=%d warm_ops=%d",
		kvNodes, env, store, s.readFrac*100, s.valueSize, s.keys, dist, s.rate, s.inflight, s.warmOps)
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
)

func (k opKind) String() string {
	if k == opPut {
		return "put"
	}
	return "get"
}

// kvOp is one generated operation. Everything about it is fixed before
// timing starts; the load loop only reads it.
type kvOp struct {
	kind  opKind
	coord uint8
	key   int32
	putID int32         // index into schedule.puts (puts only)
	due   time.Duration // offset from the fixed-rate phase start
	value []byte        // puts only
}

// kvSchedule is a workload's whole op stream: warm-up, fixed-rate and
// closed-loop phases back to back in ops, plus the key strings.
type kvSchedule struct {
	spec     kvSpec
	keys     []string
	ops      []kvOp
	warmEnd  int     // ops[:warmEnd] is the warm-up
	fixedEnd int     // ops[warmEnd:fixedEnd] is the fixed-rate phase
	puts     []int32 // putID → op index
	fixedDur time.Duration
	audit    []int32 // keys checked with the linearizability checker
}

// genKV generates the op stream for spec from seed: fixedDur of Poisson
// arrivals at spec.rate, and a closed-loop phase of capOps ops.
func genKV(spec kvSpec, seed int64, fixedDur time.Duration, capOps int) *kvSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := &kvSchedule{spec: spec, fixedDur: fixedDur}
	s.keys = make([]string, spec.keys)
	for i := range s.keys {
		s.keys[i] = fmt.Sprintf("k%06d", i)
	}
	pick := keyPicker(rng, spec.keys, spec.zipf)
	add := func(due time.Duration) {
		op := kvOp{kind: opGet, coord: uint8(rng.Intn(kvNodes)), key: pick(), due: due}
		if rng.Float64() >= spec.readFrac {
			op.kind = opPut
			op.putID = int32(len(s.puts))
			s.puts = append(s.puts, int32(len(s.ops)))
		}
		s.ops = append(s.ops, op)
	}
	for i := 0; i < spec.warmOps; i++ {
		add(0)
	}
	s.warmEnd = len(s.ops)
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / spec.rate * float64(time.Second))
		if t >= fixedDur {
			break
		}
		add(t)
	}
	s.fixedEnd = len(s.ops)
	for i := 0; i < capOps; i++ {
		add(0)
	}

	// Values: one backing array, one segment per put. The first 12 bytes
	// name the put and its key so a get's answer identifies its writer;
	// the rest is seeded filler the checker compares byte for byte.
	buf := make([]byte, len(s.puts)*spec.valueSize)
	rng.Read(buf)
	for id, oi := range s.puts {
		v := buf[id*spec.valueSize : (id+1)*spec.valueSize : (id+1)*spec.valueSize]
		binary.BigEndian.PutUint64(v[0:8], uint64(id))
		binary.BigEndian.PutUint32(v[8:12], uint32(s.ops[oi].key))
		s.ops[oi].value = v
	}
	s.audit = pickAuditKeys(s, 4)
	return s
}

// keyPicker returns a sampler over [0, n): uniform for zipf == 0, else
// Zipf with exponent zipf over a seeded permutation of the keys, so the
// hot keys differ between seeds.
func keyPicker(rng *rand.Rand, n int, zipf float64) func() int32 {
	if zipf == 0 {
		return func() int32 { return int32(rng.Intn(n)) }
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), zipf)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	perm := rng.Perm(n)
	return func() int32 {
		i := sort.SearchFloat64s(cdf, rng.Float64())
		if i >= n {
			i = n - 1
		}
		return int32(perm[i])
	}
}

// pickAuditKeys chooses up to max keys whose whole history is small
// enough for the exhaustive linearizability checker and has a put.
func pickAuditKeys(s *kvSchedule, max int) []int32 {
	count := make(map[int32]int)
	puts := make(map[int32]int)
	for _, op := range s.ops {
		count[op.key]++
		if op.kind == opPut {
			puts[op.key]++
		}
	}
	var out []int32
	for k := int32(0); int(k) < len(s.keys) && len(out) < max; k++ {
		if c := count[k]; c >= 3 && c <= 40 && puts[k] > 0 && puts[k] < c {
			out = append(out, k)
		}
	}
	return out
}
