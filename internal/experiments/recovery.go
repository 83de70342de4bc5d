// The recovery scenario: proof that durability actually survives death.
// It runs in two phases in two processes (catssim -scenario recovery runs
// the crash phase as a child catssim with -dir, then the recover phase
// itself):
//
// Phase 1 (crash) boots a simulated CATS cluster whose nodes carry
// durable stores (per-node WAL + snapshot directories under one root,
// sync=always), drives a put/get workload through crash-restart churn,
// and then — at a scheduled virtual-time point, mid-churn — SIGKILLs its
// own process. A real SIGKILL, not a simulated one: no deferred flushes,
// no atexit hooks. Every operation invocation and completion is streamed
// to an fsynced history log before the next event runs, so the kill
// cannot retroactively erase the record of an acknowledged write.
//
// Phase 2 (recover) starts from nothing but the data directory: it
// discovers the node keys from the per-node WAL directories, boots a
// fresh cluster over the same stores (each node replaying snapshot + WAL
// tail before serving), lets the ring and handoff converge, audits one
// read per key, and checks the combined phase-1 + phase-2 history for
// linearizability and lost acknowledged writes.
//
// Both phases are driven by the deterministic simulation, and phase 1
// writes files at virtual-time-ordered points, so a (phase 1; phase 2)
// pair from one seed produces a byte-identical phase-2 report.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cats"
	"repro/internal/handoff"
	"repro/internal/ident"
	"repro/internal/simulation"
)

// RecoveryConfig parameterizes the crash-restart recovery scenario.
type RecoveryConfig struct {
	Nodes     int           // cluster size (default 5)
	Keys      int           // distinct data keys (default 8)
	OpsPerKey int           // operations per key scheduled in phase 1 (default 10)
	ValuePad  int           // padding bytes per value, so WALs grow enough to snapshot (default 256)
	OpWindow  time.Duration // window the workload and churn spread over (default 40s)
	KillAt    time.Duration // virtual time of the whole-process SIGKILL (default 24s — mid-churn)
	Crashes   int           // individual node crash→restart cycles before the kill (default 2)
	CrashDown time.Duration // node outage length; exceeds suspicion so groups reconfigure (default 8s)
	Tail      time.Duration // phase-2 settle time before the audit reads (default 25s)

	// SnapshotBytes is the per-shard WAL size triggering a snapshot in
	// phase 1 (default 1 KiB — small, so the short scenario exercises the
	// snapshot + truncate + recover path, not just WAL replay).
	SnapshotBytes int64
}

func (c *RecoveryConfig) applyDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 5
	}
	if c.Keys <= 0 {
		c.Keys = 8
	}
	if c.OpsPerKey <= 0 {
		c.OpsPerKey = 10
	}
	if c.ValuePad <= 0 {
		c.ValuePad = 256
	}
	if c.OpWindow <= 0 {
		c.OpWindow = 40 * time.Second
	}
	if c.KillAt <= 0 {
		c.KillAt = 24 * time.Second
	}
	if c.Crashes <= 0 {
		c.Crashes = 2
	}
	if c.CrashDown <= 0 {
		c.CrashDown = 8 * time.Second
	}
	if c.Tail <= 0 {
		c.Tail = 25 * time.Second
	}
	if c.SnapshotBytes == 0 {
		c.SnapshotBytes = 1 << 10
	}
}

// RecoveryCrash runs phase 1. On the happy path it does not return: the
// scheduled SIGKILL tears the process down mid-churn. Returning (with an
// error) means the kill never fired — callers must treat that as
// scenario failure.
func RecoveryCrash(seed int64, cfg RecoveryConfig, dir string) error {
	cfg.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	histLog, err := openHistoryLog(filepath.Join(dir, "history.log"))
	if err != nil {
		return err
	}

	sim, emu, host, exp := buildSimCluster(seed, spreadKeys(cfg.Nodes), churnNodeConfig(cfg.SnapshotBytes),
		dir, histLog.append)
	refs := host.AliveNodes()
	rng := rand.New(rand.NewSource(seed ^ 0x72656376)) // "recv"

	// Workload: put-biased, so most keys accumulate several acked
	// versions before the kill. Values carry padding so shard WALs cross
	// the snapshot threshold during the run.
	keys := make([]string, cfg.Keys)
	for k := range keys {
		keys[k] = "rec-" + string(rune('a'+k%26)) + "-" + strconv.Itoa(k)
	}
	scheduleWorkload(sim, exp, rng, keys, cfg.OpsPerKey, cfg.OpWindow, 0.6, "-"+strings.Repeat("x", cfg.ValuePad))
	// Individual-node churn before the kill, so the full-process restart
	// lands on a cluster already mid-reconfiguration.
	scheduleCrashes(sim, emu, rng, refs, cfg.Crashes, cfg.KillAt, cfg.CrashDown)

	// The point of the exercise: kill the whole cluster — every node
	// lives in this process — with no warning and no cleanup. Everything
	// the disk has at this virtual-time point (fsynced WAL appends,
	// renamed snapshots, the history log) is all phase 2 gets.
	// A history log that failed to write or fsync breaks that promise, so
	// the kill is skipped and the latched error returned instead.
	sim.ScheduleAt(cfg.KillAt, "recovery:sigkill", func() {
		if histLog.err != nil {
			return
		}
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable: SIGKILL cannot be caught or outrun
	})

	sim.Run(cfg.OpWindow + cfg.Tail)
	if histLog.err != nil {
		return histLog.err
	}
	return fmt.Errorf("recovery: scheduled SIGKILL at %v never fired (ran %v)", cfg.KillAt, cfg.OpWindow+cfg.Tail)
}

// RecoveryRecover runs phase 2 against the data directory a killed
// phase 1 left behind.
func RecoveryRecover(seed int64, cfg RecoveryConfig, dir string) (Outcome, error) {
	cfg.applyDefaults()
	resolved, unresolved, err := readHistoryLog(filepath.Join(dir, "history.log"))
	if err != nil {
		return Outcome{}, err
	}
	nodeKeys, err := discoverNodeDirs(dir)
	if err != nil {
		return Outcome{}, err
	}
	if len(nodeKeys) == 0 {
		return Outcome{}, fmt.Errorf("recovery: no node-* directories under %s", dir)
	}

	handoffBefore := handoff.GlobalMetrics()
	exec := newExecDigest()
	// Phase 2 keeps sync=always for symmetry (cheap at audit volume);
	// recovery itself is policy-independent.
	nodeCfg := churnNodeConfig(cfg.SnapshotBytes)
	sim, _, host, exp := buildSimCluster(seed^0x7265636f, nodeKeys, nodeCfg, dir, nil, // "reco"
		simulation.WithTraceSink(exec))

	// Sum what Open rebuilt, per node, before any audit traffic.
	var snapshots, snapshotEntries, walReplayed, tornTails, recoveredKeys int
	for _, ref := range host.AliveNodes() {
		p, ok := host.Peer(ref.Key)
		if !ok || p.Node == nil || p.Node.Store() == nil {
			continue
		}
		rec := p.Node.Store().Recovery()
		snapshots += rec.SnapshotsLoaded
		snapshotEntries += rec.SnapshotEntries
		walReplayed += rec.WALEntries
		tornTails += rec.TornTails
		recoveredKeys += rec.Keys
	}

	// Audit: one read per key the phase-1 history touched.
	keySet := map[string]bool{}
	for _, r := range append(resolved, unresolved...) {
		keySet[r.Key] = true
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng := rand.New(rand.NewSource(seed ^ 0x61756474)) // "audt"
	o := Outcome{Sim: auditReads(sim, exp, keys,
		func(int) ident.Key { return ident.Key(rng.Uint64()) }, nodeCfg.OpTimeout*3)}

	// Combined history. The two phases run on separate virtual clocks,
	// but phase 2 is strictly after phase 1 in real causality, so its
	// timestamps are shifted past every phase-1 response. Unresolved
	// phase-1 puts stay time-unconstrained: the kill may or may not have
	// let them take effect, and either is legal.
	audit := host.OpHistory()
	var maxEnd1 int64 = math.MinInt64
	for _, r := range resolved {
		maxEnd1 = max(maxEnd1, r.End.UnixNano())
	}
	var minStart2 int64 = math.MaxInt64
	for _, r := range audit {
		minStart2 = min(minStart2, r.Start.UnixNano())
	}
	var offset time.Duration
	if len(audit) > 0 && maxEnd1 > math.MinInt64 {
		offset = time.Duration(maxEnd1-minStart2) + time.Hour
	}
	records := append([]cats.OpRecord(nil), resolved...)
	for _, r := range audit {
		r.Start, r.End = r.Start.Add(offset), r.End.Add(offset)
		records = append(records, r)
	}

	o.count("nodes", uint64(len(nodeKeys)))
	o.count("keys", uint64(len(keys)))
	o.auditHistory(records, unresolved, len(resolved), keys)
	o.count("snapshots_loaded", uint64(snapshots))
	o.count("snapshot_entries", uint64(snapshotEntries))
	o.count("wal_replayed", uint64(walReplayed))
	o.count("torn_tails", uint64(tornTails))
	o.count("recovered_keys", uint64(recoveredKeys))
	handoffAfter := handoff.GlobalMetrics()
	o.count("handoff_keys", handoffAfter.Keys-handoffBefore.Keys)
	o.count("handoff_transfers", handoffAfter.Transfers-handoffBefore.Transfers)
	o.count("max_epoch", handoffAfter.Epoch)
	o.setExec(exec)
	return o, nil
}

// discoverNodeDirs lists the node keys that have durable state under
// root — phase 2's only source of cluster membership.
func discoverNodeDirs(root string) ([]ident.Key, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var keys []ident.Key
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "node-") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimPrefix(e.Name(), "node-"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("recovery: bad node directory %q: %w", e.Name(), err)
		}
		keys = append(keys, ident.Key(n))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, nil
}

// historyLog streams op events to disk, fsyncing each line: after a
// SIGKILL, every event appended before the kill is readable. The first
// write or fsync error is latched in err, and nothing is appended after
// it.
type historyLog struct {
	f   *os.File
	err error
}

func openHistoryLog(path string) (*historyLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &historyLog{f: f}, nil
}

// append writes one op event. A record with zero End is an invocation;
// with non-zero End, a completion. Keys and values contain no
// whitespace, but both are quoted anyway so the format cannot silently
// break if that changes.
func (l *historyLog) append(r cats.OpRecord) {
	tag := "res"
	if r.End.IsZero() {
		tag = "inv"
	}
	if l.err != nil {
		return
	}
	if _, err := fmt.Fprintf(l.f, "%s %s %s %s %t %t %d %d\n",
		tag, r.Kind, strconv.Quote(r.Key), strconv.Quote(r.Value),
		r.OK, r.Found, r.Start.UnixNano(), r.End.UnixNano()); err != nil {
		l.err = fmt.Errorf("recovery: history log write: %w", err)
	} else if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("recovery: history log fsync: %w", err)
	}
}

// readHistoryLog reconstructs the phase-1 history: completions, plus the
// invocations that never completed (matched by kind+key+start, value too
// for puts — gets resolve with the value they read).
func readHistoryLog(path string) (resolved, unresolved []cats.OpRecord, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	type invKey struct {
		kind, key, value string
		start            int64
	}
	pending := make(map[invKey]int)
	var order []cats.OpRecord // invocation order, for deterministic output
	for ln, line := range strings.Split(string(b), "\n") {
		if line == "" {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 8 {
			return nil, nil, fmt.Errorf("recovery: history line %d: %d fields", ln+1, len(parts))
		}
		key, err1 := strconv.Unquote(parts[2])
		value, err2 := strconv.Unquote(parts[3])
		ok, err3 := strconv.ParseBool(parts[4])
		found, err4 := strconv.ParseBool(parts[5])
		startNs, err5 := strconv.ParseInt(parts[6], 10, 64)
		endNs, err6 := strconv.ParseInt(parts[7], 10, 64)
		for _, e := range []error{err1, err2, err3, err4, err5, err6} {
			if e != nil {
				return nil, nil, fmt.Errorf("recovery: history line %d: %v", ln+1, e)
			}
		}
		r := cats.OpRecord{
			Kind: parts[1], Key: key, Value: value, OK: ok, Found: found,
			Start: time.Unix(0, startNs),
		}
		ik := invKey{kind: r.Kind, key: r.Key, start: startNs}
		if r.Kind == "put" {
			ik.value = r.Value
		}
		switch parts[0] {
		case "inv":
			pending[ik]++
			order = append(order, r)
		case "res":
			r.End = time.Unix(0, endNs)
			resolved = append(resolved, r)
			if pending[ik] > 0 {
				pending[ik]--
			}
		default:
			return nil, nil, fmt.Errorf("recovery: history line %d: tag %q", ln+1, parts[0])
		}
	}
	for _, r := range order {
		ik := invKey{kind: r.Kind, key: r.Key, start: r.Start.UnixNano()}
		if r.Kind == "put" {
			ik.value = r.Value
		}
		if pending[ik] > 0 {
			pending[ik]--
			unresolved = append(unresolved, r)
		}
	}
	return resolved, unresolved, nil
}
