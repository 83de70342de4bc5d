package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/handoff"
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/tracing"
)

// kvClusterConfig returns relaxed node timings for the real-time KV
// benchmarks: background protocol periods are slow so the measurement
// reflects the operation path.
func kvClusterConfig() cats.NodeConfig {
	return cats.NodeConfig{
		ReplicationDegree: 3,
		// The benchmark clusters are faultless, so the failure detector only
		// adds noise: on a small machine a CPU-heavy phase (e.g. preloading a
		// million registers) can delay ping handlers past the suspicion
		// threshold, and one false eviction cascades into reconfiguration +
		// full-store handoff that poisons the measurement. Make suspicion
		// need ~30s of silence.
		FDInterval:           5 * time.Second,
		FDSuspectAfterMisses: 6,
		StabilizePeriod:      time.Second,
		CyclonPeriod:         2 * time.Second,
		// Short per-attempt timeout: an op that catches a replica mid-epoch-
		// sync (Busy nack) only retries on timeout, and a multi-second
		// straggler would dominate the round's wall-clock in both variants.
		OpTimeout: 500 * time.Millisecond,
	}
}

// bootKVCluster boots a real-time loopback cluster of n nodes with full
// per-message marshalling (the realistic framed-transport cost) and waits
// for ring convergence. A non-empty dataRoot gives every node a durable
// store under it. The caller must Shutdown the returned runtime.
func bootKVCluster(n int, cfg cats.NodeConfig, dataRoot string) (*core.Runtime, *cats.Simulator, *core.Port) {
	registry := network.NewLoopbackRegistry(network.WithSerialization())
	host := cats.NewSimulator(cats.LoopbackEnv{Registry: registry}, cfg)
	host.DataDirRoot = dataRoot
	rt := core.New(core.WithFaultPolicy(core.LogAndContinue))
	exp := bootHost(rt, "Main", host)
	rt.WaitQuiescence(5 * time.Second)
	for _, k := range spreadKeys(n) {
		_ = core.TriggerOn(exp, cats.JoinNode{Key: k})
		time.Sleep(10 * time.Millisecond)
	}
	waitForRing(rt, host, n, 30*time.Second)
	time.Sleep(500 * time.Millisecond) // membership tables settle
	return rt, host, exp
}

// kvRound boots a fresh 3-node cluster at replication degree 3 (every
// key maps to the same replica set), runs one closed-loop load of `ops`
// ops from `clients` clients over 64 keys of 256 B values, and returns
// it as a sample counting the coordinators' quorum frames and the phases
// they carried, and the process-wide WAL counter deltas.
func kvRound(cfg cats.NodeConfig, dataRoot string, clients, ops int, readFraction float64) sample {
	kv0 := kvstore.GlobalMetrics()
	rt, host, exp := bootKVCluster(3, cfg, dataRoot)
	defer rt.Shutdown()
	_ = core.TriggerOn(exp, cats.StartLoad{
		Clients:      clients,
		TotalOps:     ops,
		ValueSize:    256,
		ReadFraction: readFraction,
		Keys:         64,
	})
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) && int(host.Metrics().LoadDone) < ops {
		time.Sleep(2 * time.Millisecond)
	}
	rt.WaitQuiescence(5 * time.Second)

	m := host.Metrics()
	kv := kvstore.GlobalMetrics()
	s := sample{
		done:    m.LoadDone,
		failed:  m.GetsFailed + m.PutsFailed,
		elapsed: m.LoadEnd.Sub(m.LoadStart),
		lat:     m.OpLatencies,
	}
	for _, ref := range host.AliveNodes() {
		if p, ok := host.Peer(ref.Key); ok && p.Node != nil {
			b, bo := p.Node.ABD.BatchStats()
			s.count("batches", b)
			s.count("batched_ops", bo)
		}
	}
	s.count("wal_appends", kv.WALAppends-kv0.WALAppends)
	s.count("wal_bytes", kv.WALBytes-kv0.WALBytes)
	s.count("wal_syncs", kv.WALSyncs-kv0.WALSyncs)
	s.count("snapshots", kv.Snapshots-kv0.Snapshots)
	return s
}

// QuorumTraceAB measures the cost of the span layer on kvRound's
// same-replica-set workload, half reads, at three sampling rates: off, the default 1 in 64,
// and every op. Each round records into a fresh private span ring
// (counted as "spans"); the process sampling rate and ring are restored
// after it. Metrics "sampled_overhead" and "always_overhead" are the
// paired per-round overheads against tracing off (see overhead).
func QuorumTraceAB(clients, opsPerRound, rounds int) (Result, error) {
	round := func(every int) func() (sample, error) {
		return func() (sample, error) {
			ring := tracing.NewRing(1 << 15)
			prevRing := tracing.SwapDefault(ring)
			prevSample := tracing.SetSampleEvery(every)
			s := kvRound(kvClusterConfig(), "", clients, opsPerRound, 0.5)
			tracing.SetSampleEvery(prevSample)
			tracing.SwapDefault(prevRing)
			s.count("spans", ring.Recorded())
			return s, nil
		}
	}
	res, err := runAB(rounds, true, arm{"off", round(0)}, arm{"1-in-64", round(64)}, arm{"always", round(1)})
	if a := res.Arms; err == nil {
		res.Metrics = map[string]float64{
			"sampled_overhead": overhead(a[1], a[0]),
			"always_overhead":  overhead(a[2], a[0]),
		}
	}
	return res, err
}

// WALBench measures the throughput cost of the durability layer: the same
// write-heavy kvRound (a quarter reads: durability sits on the put path)
// against the in-memory store ("mem") and against the WAL under each sync
// policy. Every durable round gets a fresh data directory, so no arm pays
// replay costs for another's data. Metrics "durability_cost" and
// "interval_cost" are 1 - that arm's ops/s ÷ mem's.
func WALBench(clients, opsPerRound, rounds int) (Result, error) {
	mem := arm{"mem", func() (sample, error) {
		return kvRound(kvClusterConfig(), "", clients, opsPerRound, 0.25), nil
	}}
	durable := func(name string, sync kvstore.SyncPolicy) arm {
		return arm{name, func() (sample, error) {
			dir, err := os.MkdirTemp("", "walbench-"+name+"-*")
			if err != nil {
				return sample{}, err
			}
			defer os.RemoveAll(dir)
			cfg := kvClusterConfig()
			cfg.WALSync = sync
			cfg.WALSyncEvery = 2 * time.Millisecond
			cfg.WALSnapshotBytes = 8 << 20 // large: measure the log path, not snapshot churn
			return kvRound(cfg, dir, clients, opsPerRound, 0.25), nil
		}}
	}
	res, err := runAB(rounds, true, mem, durable("never", kvstore.SyncNever),
		durable("interval", kvstore.SyncInterval), durable("always", kvstore.SyncAlways))
	if a := res.Arms; err == nil && a[0].OpsPS > 0 {
		res.Metrics = map[string]float64{
			"durability_cost": 1 - a[3].OpsPS/a[0].OpsPS,
			"interval_cost":   1 - a[2].OpsPS/a[0].OpsPS,
		}
	}
	return res, err
}

// MillionKV preloads every replica's sharded store with `keys` distinct
// registers (directly through the store — populating through quorum writes
// would measure the protocol, not the store) and then drives an open-loop
// read-heavy workload at ratePS operations per second against the full
// keyspace. Its one arm reports completed throughput and latency (open
// loop: the issue rate does not adapt to completions, so latencies include
// any queueing the store layer causes) and counts one replica's per-shard
// occupancy; metrics report the allocation rate and the live heap before
// and after the load.
func MillionKV(keys, ops, ratePS int) Result {
	const nodes = 3 // degree 3: every replica covers the whole keyspace
	rt, host, exp := bootKVCluster(nodes, kvClusterConfig(), "")
	defer rt.Shutdown()

	// Preload each replica's store directly, identically (version-gated
	// Apply makes the stores canonical).
	val := make([]byte, 64)
	for _, ref := range host.AliveNodes() {
		p, ok := host.Peer(ref.Key)
		if !ok || p.Node == nil {
			continue
		}
		st := p.Node.ABD.Store()
		for i := 0; i < keys; i++ {
			st.Apply(millionKey(i), kvstore.Version{Seq: 1, Writer: 1}, val)
		}
	}

	// Wait out any reconfiguration the preload provoked: if an epoch bump
	// slipped in, replicas may be mid-handoff (Busy-nacking every op) for
	// as long as the sync round over the big store takes. Measure only
	// once epochs and handoff volume have been still for a few seconds.
	waitForEpochQuiescence(host, 3*time.Second, 2*time.Minute)

	// Double GC: pooled buffers (codec scratch from any handoff round the
	// preload provoked) survive one collection and would inflate the
	// before-measurement.
	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&msBefore)

	// Open-loop issue at a fixed rate across the whole keyspace.
	rng := rand.New(rand.NewSource(1))
	interval := time.Second / time.Duration(ratePS)
	opVal := make([]byte, 128)
	coordinators := spreadKeys(nodes)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		key := millionKey(rng.Intn(keys))
		node := coordinators[rng.Intn(nodes)]
		if rng.Float64() < 0.9 {
			_ = core.TriggerOn(exp, cats.OpGet{NodeKey: node, Key: key})
		} else {
			_ = core.TriggerOn(exp, cats.OpPut{NodeKey: node, Key: key, Value: opVal})
		}
	}
	deadline := time.Now().Add(2 * time.Minute)
	var m cats.Metrics
	for time.Now().Before(deadline) {
		m = host.Metrics()
		if m.GetsOK+m.GetsFailed+m.PutsOK+m.PutsFailed >= uint64(ops) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := sample{
		failed:  m.GetsFailed + m.PutsFailed,
		elapsed: time.Since(start),
		lat:     m.OpLatencies,
	}
	s.done = m.GetsOK + m.PutsOK + s.failed

	// GC before the after-measurement so the after heap is live occupancy
	// (the preloaded store plus whatever the load retained), not transient
	// message garbage. Mallocs is cumulative and unaffected.
	runtime.GC()
	runtime.ReadMemStats(&msAfter)
	metrics := map[string]float64{
		"heap_before_mb": float64(msBefore.HeapAlloc) / (1 << 20),
		"heap_after_mb":  float64(msAfter.HeapAlloc) / (1 << 20),
	}
	if s.done > 0 {
		metrics["allocs_per_op"] = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(s.done)
	}

	s.count("keys", uint64(keys))
	if refs := host.AliveNodes(); len(refs) > 0 {
		if p, ok := host.Peer(refs[0].Key); ok && p.Node != nil {
			st := p.Node.ABD.Store().Stats()
			lo, hi := st.PerShard[0], st.PerShard[0]
			for _, n := range st.PerShard[1:] {
				lo, hi = min(lo, n), max(hi, n)
			}
			s.count("shard_keys", uint64(st.Keys))
			s.count("non_empty_shards", uint64(st.NonEmptyShards))
			s.count("min_shard_keys", uint64(lo))
			s.count("max_shard_keys", uint64(hi))
		}
	}
	return Result{Arms: []ArmResult{pool("million", []sample{s})}, Metrics: metrics}
}

// waitForEpochQuiescence blocks until no node's replica-group epoch and no
// process-wide handoff counter has changed for `still`, or until `max`
// elapses. Quiesced epochs mean no replica is inside a sync window.
func waitForEpochQuiescence(host *cats.Simulator, still, max time.Duration) {
	type snap struct {
		epochs  []uint64
		keys    uint64
		syncing bool
	}
	take := func() snap {
		s := snap{keys: handoff.GlobalMetrics().Keys}
		for _, ref := range host.AliveNodes() {
			if p, ok := host.Peer(ref.Key); ok && p.Node != nil {
				s.epochs = append(s.epochs, p.Node.ABD.Epoch())
				s.syncing = s.syncing || p.Node.ABD.Syncing()
			}
		}
		return s
	}
	eq := func(a, b snap) bool {
		// A replica inside a sync window is never quiet: the handoff keys
		// counter only moves when the round completes, so an in-flight
		// round would otherwise look still.
		return !a.syncing && !b.syncing && a.keys == b.keys && slices.Equal(a.epochs, b.epochs)
	}
	deadline := time.Now().Add(max)
	last, lastChange := take(), time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(200 * time.Millisecond)
		cur := take()
		if !eq(cur, last) {
			last, lastChange = cur, time.Now()
			continue
		}
		if time.Since(lastChange) >= still {
			return
		}
	}
}

// millionKey names the i-th preloaded register.
func millionKey(i int) string { return fmt.Sprintf("m-%d", i) }
