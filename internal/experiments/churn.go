package experiments

import (
	"math/rand"
	"strconv"
	"time"

	"repro/internal/cats"
	"repro/internal/handoff"
	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/simulation"
)

// ChurnConfig parameterizes the chaos scenario: a simulated CATS cluster
// serving quorum reads and writes while nodes crash and restart and links
// flap and heal underneath it.
type ChurnConfig struct {
	Nodes     int           // cluster size (default 6)
	Keys      int           // distinct data keys under test (default 6)
	OpsPerKey int           // put/get operations per key, excluding the final audit read (default 10)
	Crashes   int           // sequential crash→restart cycles (default 3)
	Flaps     int           // symmetric link flaps (default 4)
	CrashDown time.Duration // how long a crashed node stays off the network (default 8s)
	FlapDown  time.Duration // how long a flapped link stays down (default 900ms)
	OpWindow  time.Duration // virtual-time window the workload and churn are spread over (default 60s)
	Tail      time.Duration // settle time after the window before the audit reads (default 25s)

	// DataDir, when non-empty, runs every node on a durable store
	// (per-node WAL + snapshots under this root, sync=always) so the
	// chaos scenario also exercises the write-ahead path under churn.
	// For a deterministic two-run diff the directory must start empty
	// each run — recovery replay of a previous run's state shifts the
	// WAL counters.
	DataDir string
}

func (c *ChurnConfig) applyDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 6
	}
	if c.Keys <= 0 {
		c.Keys = 6
	}
	if c.OpsPerKey <= 0 {
		c.OpsPerKey = 10
	}
	if c.Crashes <= 0 {
		c.Crashes = 3
	}
	if c.Flaps <= 0 {
		c.Flaps = 4
	}
	if c.CrashDown <= 0 {
		// Longer than the 6s suspicion threshold (FDInterval 2s × 3
		// misses): crashed nodes ARE evicted, groups reconfigure, and the
		// epoch/handoff machinery must carry state across — the case the
		// scenario exists to prove.
		c.CrashDown = 8 * time.Second
	}
	if c.FlapDown <= 0 {
		c.FlapDown = 900 * time.Millisecond
	}
	if c.OpWindow <= 0 {
		c.OpWindow = 60 * time.Second
	}
	if c.Tail <= 0 {
		c.Tail = 25 * time.Second
	}
}

// LongOutageChurnConfig is the chaos variant with outages double the
// suspicion threshold: fewer, longer crash windows, so evicted nodes sit
// dark long enough for several stabilization rounds to repair the ring
// around them before they rejoin and pull state back.
func LongOutageChurnConfig() ChurnConfig {
	return ChurnConfig{
		Crashes:   2,
		CrashDown: 12 * time.Second,
		OpWindow:  60 * time.Second,
		Tail:      30 * time.Second,
	}
}

// churnNodeConfig is the node template the churn and recovery scenarios
// share. Suspicion takes 3 consecutive silent 2s rounds; crash windows
// (8s by default) overlap more than three round starts, so crashed nodes
// are genuinely evicted and must hand state off and rejoin. Durable
// stores fsync before every ack — the scenarios' promise is "no acked
// write lost" — and snapshot past snapshotBytes per shard.
func churnNodeConfig(snapshotBytes int64) cats.NodeConfig {
	cfg := simNodeConfig()
	cfg.FDInterval = 2 * time.Second
	cfg.FDSuspectAfterMisses = 3
	cfg.WALSync = kvstore.SyncAlways
	cfg.WALSnapshotBytes = snapshotBytes
	return cfg
}

// Churn runs the chaos scenario: quorum puts/gets over a simulated CATS
// cluster while the network emulator injects crash-restart churn and link
// flaps, all in virtual time from one seed. Its Outcome carries the
// recorded history's verdict from the shared audit: linearizability, and
// that after every fault heals a final read per key observes some
// acknowledged value.
//
// Default fault windows EXCEED the failure detector's suspicion threshold
// (FDInterval × SuspectAfterMisses = 6s): the ring evicts the crashed
// node, replica groups reconfigure into a new epoch, and the handoff
// component pulls the covered ranges before the survivors ack in it. The
// zero-lost-acked-writes audit therefore exercises the full
// reconfiguration path — epoch fencing, state transfer, and rejoin of the
// evicted node — not just transport resilience.
func Churn(seed int64, cfg ChurnConfig) Outcome {
	cfg.applyDefaults()
	ring, stopTracing := traceAll()
	defer stopTracing()
	exec := newExecDigest()

	// A durable run snapshots aggressively so even a short run truncates
	// logs under churn.
	nodeCfg := churnNodeConfig(1 << 12)
	handoffBefore := handoff.GlobalMetrics()
	kvBefore := kvstore.GlobalMetrics()
	sim, emu, host, exp := buildSimCluster(seed, spreadKeys(cfg.Nodes), nodeCfg, cfg.DataDir, nil,
		simulation.WithTraceSink(exec))

	refs := host.AliveNodes()
	rng := rand.New(rand.NewSource(seed ^ 0x6368726e)) // "chrn"
	keys := make([]string, cfg.Keys)
	for k := range keys {
		keys[k] = "churn-" + string(rune('a'+k%26)) + "-" + strconv.Itoa(k)
	}
	scheduleWorkload(sim, exp, rng, keys, cfg.OpsPerKey, cfg.OpWindow, 0.5, "")
	scheduleCrashes(sim, emu, rng, refs, cfg.Crashes, cfg.OpWindow, cfg.CrashDown)

	// Link flaps: symmetric src↔dst outages that heal by virtual-time
	// expiry, plus one partition that is explicitly healed.
	for i := 0; i < cfg.Flaps; i++ {
		at := time.Duration(rng.Int63n(int64(cfg.OpWindow)))
		a := refs[rng.Intn(len(refs))].Addr
		b := refs[rng.Intn(len(refs))].Addr
		if a == b {
			continue
		}
		down := cfg.FlapDown
		sim.ScheduleAt(at, "churn:flap", func() {
			emu.FlapLink(a, b, down)
			emu.FlapLink(b, a, down)
		})
	}
	partAt := cfg.OpWindow / 2
	isolated := refs[rng.Intn(len(refs))].Addr
	sim.ScheduleAt(partAt, "churn:partition", func() { emu.Partition(1, isolated) })
	sim.ScheduleAt(partAt+cfg.FlapDown, "churn:heal", func() { emu.Heal() })

	o := Outcome{Sim: sim.Run(cfg.OpWindow + cfg.Tail)}

	// Audit phase: every fault has healed and in-flight ops have resolved
	// or timed out; one read per key must observe some acknowledged value.
	preAudit := len(host.OpHistory())
	o.Sim = addStats(o.Sim, auditReads(sim, exp, keys,
		func(int) ident.Key { return ident.Key(rng.Uint64()) }, nodeCfg.OpTimeout*3))
	o.auditHistory(host.OpHistory(), host.UnresolvedOps(), preAudit, keys)

	crashes, restarts, flaps, dropped := emu.ChurnStats()
	if restarts != crashes {
		o.fail("restarts=%d, want crashes=%d", restarts, crashes)
	}
	o.count("crashes", crashes)
	o.count("restarts", restarts)
	o.count("flaps", flaps)
	o.count("churn_dropped", dropped)
	handoffAfter := handoff.GlobalMetrics()
	o.count("handoff_keys", handoffAfter.Keys-handoffBefore.Keys)
	o.count("handoff_bytes", handoffAfter.Bytes-handoffBefore.Bytes)
	o.count("handoff_transfers", handoffAfter.Transfers-handoffBefore.Transfers)
	o.count("max_epoch", handoffAfter.Epoch)

	// Survivor stores after the audit: convergence must leave them
	// populated and spread across shards (not collapsed into one by a
	// broken hash split).
	var storeKeys, shardsInUse uint64
	for _, ref := range host.AliveNodes() {
		if p, ok := host.Peer(ref.Key); ok && p.Node != nil {
			st := p.Node.ABD.Store().Stats()
			storeKeys += uint64(st.Keys)
			shardsInUse += uint64(st.NonEmptyShards)
		}
	}
	o.count("store_keys", storeKeys)
	o.count("store_shards_in_use", shardsInUse)

	// WAL activity: all zero unless DataDir is set.
	kvAfter := kvstore.GlobalMetrics()
	o.count("wal_appends", kvAfter.WALAppends-kvBefore.WALAppends)
	o.count("wal_syncs", kvAfter.WALSyncs-kvBefore.WALSyncs)
	o.count("wal_snapshots", kvAfter.Snapshots-kvBefore.Snapshots)
	o.count("wal_replays", kvAfter.WALReplays-kvBefore.WALReplays)
	o.count("wal_errors", kvAfter.WALErrors-kvBefore.WALErrors)

	o.addTrace(ring)
	o.setExec(exec)
	return o
}
