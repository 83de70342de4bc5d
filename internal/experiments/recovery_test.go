package experiments

import (
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/kvstore"
)

// TestRecoveryFullClusterRestart is the in-process (tier-1) slice of the
// recovery gate: a durable cluster takes acked writes, EVERY node is
// destroyed (no leave protocol — queues dropped, stores closed by the
// Stop cascade), and a brand-new cluster built over the same data
// directories must recover the registers from snapshot + WAL and answer
// reads. The recovery scenario (catssim -scenario recovery, and
// TestScenarios) additionally proves this across a SIGKILL with no clean
// Close at all.
func TestRecoveryFullClusterRestart(t *testing.T) {
	root := t.TempDir()
	keys := spreadKeys(4)

	cfg := churnNodeConfig(1 << 10)
	sim, _, host, exp := buildSimCluster(11, keys, cfg, root, nil)

	const nkeys = 6
	for k := 0; k < nkeys; k++ {
		for seq := 0; seq < 3; seq++ {
			key, val := "restart-"+strconv.Itoa(k), []byte("val-"+strconv.Itoa(k)+"-"+strconv.Itoa(seq))
			kk, ss := k, seq
			sim.ScheduleAt(time.Duration(k*300+seq*900)*time.Millisecond, "test:put", func() {
				_ = core.TriggerOn(exp, cats.OpPut{
					NodeKey: ident.Key(uint64(kk*7+ss) * 1e15),
					Key:     key, Value: val,
				})
			})
		}
	}
	sim.Run(20 * time.Second)
	if m := host.Metrics(); m.PutsOK == 0 {
		t.Fatalf("no put was acked before the restart: %+v", m)
	}
	acked := host.Metrics().PutsOK

	// Whole-cluster stop: destroy every node. The Stop cascade closes
	// each durable store, releasing the WAL files for the next cluster.
	for _, ref := range host.AliveNodes() {
		_ = core.TriggerOn(exp, cats.FailNode{Key: ref.Key})
	}
	sim.Run(time.Second)
	if host.AliveCount() != 0 {
		t.Fatalf("cluster still has %d alive nodes after destroy-all", host.AliveCount())
	}

	// A different process would discover membership from the directories;
	// do the same here.
	nodeKeys, err := discoverNodeDirs(root)
	if err != nil || len(nodeKeys) != len(keys) {
		t.Fatalf("discoverNodeDirs = %v, %v; want %d keys", nodeKeys, err, len(keys))
	}

	sim2, _, host2, exp2 := buildSimCluster(12, nodeKeys, cfg, root, nil)
	recoveredKeys, walReplayed, snapEntries := 0, 0, 0
	for _, ref := range host2.AliveNodes() {
		p, ok := host2.Peer(ref.Key)
		if !ok || p.Node == nil {
			t.Fatalf("no peer for recovered node %v", ref)
		}
		rec := p.Node.Store().Recovery()
		recoveredKeys += rec.Keys
		walReplayed += rec.WALEntries
		snapEntries += rec.SnapshotEntries
		if rec.TornTails != 0 {
			t.Errorf("node %v recovered %d torn tails from a cleanly closed log", ref, rec.TornTails)
		}
	}
	if recoveredKeys == 0 || walReplayed+snapEntries == 0 {
		t.Fatalf("second cluster recovered nothing: keys=%d wal=%d snap=%d (acked %d puts)",
			recoveredKeys, walReplayed, snapEntries, acked)
	}

	for k := 0; k < nkeys; k++ {
		key := "restart-" + strconv.Itoa(k)
		kk := k
		sim2.ScheduleAt(0, "test:get", func() {
			_ = core.TriggerOn(exp2, cats.OpGet{NodeKey: ident.Key(uint64(kk) * 1e17), Key: key})
		})
	}
	sim2.Run(10 * time.Second)
	m2 := host2.Metrics()
	if m2.GetsOK != nkeys || m2.GetsFailed != 0 {
		t.Fatalf("audit after restart: gets ok=%d failed=%d, want %d/0", m2.GetsOK, m2.GetsFailed, nkeys)
	}
}

// TestHistoryLogRoundtrip pins the fsynced history log format: every
// completion comes back verbatim, and invocations without a matching
// completion come back as unresolved.
func TestHistoryLogRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.log")
	l, err := openHistoryLog(path)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(0, 1000)
	t1 := time.Unix(0, 2000)
	// put a=1 invoked and acked; put a=2 invoked, never resolved (the
	// SIGKILL case); get invoked and resolved.
	l.append(cats.OpRecord{Kind: "put", Key: "a", Value: "1", Start: t0})
	l.append(cats.OpRecord{Kind: "put", Key: "a", Value: "1", OK: true, Start: t0, End: t1})
	l.append(cats.OpRecord{Kind: "put", Key: "a", Value: "2", Start: t1})
	l.append(cats.OpRecord{Kind: "get", Key: "a", Start: t0})
	l.append(cats.OpRecord{Kind: "get", Key: "a", Value: "1", OK: true, Found: true, Start: t0, End: t1})

	resolved, unresolved, err := readHistoryLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) != 2 {
		t.Fatalf("resolved = %+v, want 2 records", resolved)
	}
	if r := resolved[0]; r.Kind != "put" || r.Key != "a" || r.Value != "1" || !r.OK || r.End != t1 {
		t.Fatalf("resolved put = %+v", r)
	}
	if r := resolved[1]; r.Kind != "get" || r.Value != "1" || !r.Found {
		t.Fatalf("resolved get = %+v", r)
	}
	if len(unresolved) != 1 || unresolved[0].Value != "2" || !unresolved[0].End.IsZero() {
		t.Fatalf("unresolved = %+v, want the in-flight put a=2", unresolved)
	}
}

// TestHistoryLogLatchesWriteError pins that a failed append is not silent:
// the crash phase returns the latched error instead of dying by SIGKILL.
func TestHistoryLogLatchesWriteError(t *testing.T) {
	l, err := openHistoryLog(filepath.Join(t.TempDir(), "history.log"))
	if err != nil {
		t.Fatal(err)
	}
	l.f.Close()
	l.append(cats.OpRecord{Kind: "put", Key: "a", Value: "1", Start: time.Unix(0, 1000)})
	if l.err == nil {
		t.Fatal("append after close latched no error")
	}
}

// TestRecoverySyncPolicyFlagRoundtrip pins the catsnode flag spellings.
func TestRecoverySyncPolicyFlagRoundtrip(t *testing.T) {
	for _, p := range []kvstore.SyncPolicy{kvstore.SyncAlways, kvstore.SyncInterval, kvstore.SyncNever} {
		got, err := kvstore.ParseSyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := kvstore.ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
}
