package abd

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestBatchStaleOpNacksAloneRestAcks is the coalescing event-stream
// oracle: a mixed-epoch frame is served per op and answered by exactly
// one reply frame — the stale ops come back as nack entries with the
// replica's epoch as hint, every current-epoch op as an ack entry.
func TestBatchStaleOpNacksAloneRestAcks(t *testing.T) {
	sim, _, nodes, probe := newReplicaWorld(t, 3, 41, nil)
	r := nodes[0]
	r.syncWindow(3, 1, true) // replica now at epoch 3
	sim.Settle()

	probe.send(r.self.Addr, opBatchMsg{
		Reads: []readPhase{
			{OpID: 1, Attempt: 1, Epoch: 3, Key: "a"},
			{OpID: 2, Attempt: 1, Epoch: 1, Key: "b"}, // stale
		},
		Writes: []writePhase{
			{OpID: 3, Attempt: 1, Epoch: 3, Key: "c", Version: Version{Seq: 1, Writer: 9}, Value: []byte("v3")},
			{OpID: 4, Attempt: 1, Epoch: 2, Key: "d", Version: Version{Seq: 1, Writer: 9}, Value: []byte("v4")}, // stale
		},
	})
	sim.Run(50 * time.Millisecond)

	want := []answer{
		{kind: "readAck", op: 1, epoch: 3},
		{kind: "writeAck", op: 3, epoch: 3},
		{kind: "nack", op: 2, epoch: 3},
		{kind: "nack", op: 4, epoch: 3},
	}
	if probe.frames != 1 || !slices.Equal(probe.answers, want) {
		t.Fatalf("%d reply frames carrying %+v, want one frame carrying %+v", probe.frames, probe.answers, want)
	}
	// The served write landed; the stale one did not.
	if _, val, ok := r.ABD.Store().Read("c"); !ok || string(val) != "v3" {
		t.Fatalf("served batch write missing: %q ok=%v", val, ok)
	}
	if _, _, ok := r.ABD.Store().Read("d"); ok {
		t.Fatal("stale-epoch write inside a batch mutated the store")
	}
}

// TestBatchAllStaleNoAck: when every op of a frame is refused the reply
// carries no ack entry — one frame of nacks only, each hinting the
// replica's epoch.
func TestBatchAllStaleNoAck(t *testing.T) {
	sim, _, nodes, probe := newReplicaWorld(t, 3, 42, nil)
	r := nodes[0]
	r.syncWindow(5, 1, true)
	sim.Settle()

	probe.send(r.self.Addr, opBatchMsg{
		Reads: []readPhase{
			{OpID: 1, Attempt: 1, Epoch: 2, Key: "a"},
			{OpID: 2, Attempt: 1, Epoch: 3, Key: "b"},
		},
	})
	sim.Run(50 * time.Millisecond)

	want := []answer{{kind: "nack", op: 1, epoch: 5}, {kind: "nack", op: 2, epoch: 5}}
	if probe.frames != 1 || !slices.Equal(probe.answers, want) {
		t.Fatalf("%d reply frames carrying %+v, want one nacks-only frame carrying %+v", probe.frames, probe.answers, want)
	}
}

// TestBatchBusyMidSyncNacksIndividually: a frame arriving inside a sync
// window is refused Busy per op — the coordinator learns about each op
// separately, in the frame's one reply.
func TestBatchBusyMidSyncNacksIndividually(t *testing.T) {
	sim, _, nodes, probe := newReplicaWorld(t, 3, 43, nil)
	r := nodes[0]
	r.syncWindow(4, 1, false) // window stays open
	sim.Settle()

	probe.send(r.self.Addr, opBatchMsg{
		Reads:  []readPhase{{OpID: 1, Attempt: 1, Epoch: 4, Key: "a"}},
		Writes: []writePhase{{OpID: 2, Attempt: 1, Epoch: 4, Key: "b", Version: Version{Seq: 1, Writer: 9}, Value: []byte("v")}},
	})
	sim.Run(50 * time.Millisecond)

	if probe.frames != 1 || len(probe.answers) != 2 {
		t.Fatalf("%d reply frames carrying %+v, want one frame of 2 busy nacks", probe.frames, probe.answers)
	}
	seen := map[uint64]bool{}
	for _, a := range probe.answers {
		if a.kind != "nack" || !a.busy {
			t.Fatalf("mid-sync answer %+v, want busy nack", a)
		}
		seen[a.op] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("busy nacks for ops %v, want 1 and 2", seen)
	}
	if _, _, ok := r.ABD.Store().Read("b"); ok {
		t.Fatal("mid-sync batch write reached the store")
	}
}

// TestCoordinatorCoalescesConcurrentOps: operations started in the same
// scheduling wave ride the same frames, and the coalesced flow still
// completes every op with linearizable results.
func TestCoordinatorCoalescesConcurrentOps(t *testing.T) {
	sim, _, nodes, _ := newReplicaWorld(t, 3, 44, nil)
	coord := nodes[0]

	const ops = 16
	sim.ScheduleAt(0, "test:burst", func() {
		for i := 0; i < ops; i++ {
			coord.put(uint64(i+1), fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		}
	})
	sim.Run(5 * time.Second)

	if len(coord.puts) != ops {
		t.Fatalf("resolved %d puts, want %d", len(coord.puts), ops)
	}
	for _, p := range coord.puts {
		if p.Err != "" {
			t.Fatalf("put failed: %+v", p)
		}
	}
	batches, batched := coord.ABD.BatchStats()
	if batched <= batches {
		t.Fatalf("burst of %d ops coalesced nothing: batches=%d ops=%d", ops, batches, batched)
	}
	// Reads see the writes through the same coalesced path.
	sim.ScheduleAt(0, "test:verify", func() {
		for i := 0; i < ops; i++ {
			coord.get(uint64(100+i), fmt.Sprintf("k%d", i))
		}
	})
	sim.Run(5 * time.Second)
	if len(coord.gets) != ops {
		t.Fatalf("resolved %d gets, want %d", len(coord.gets), ops)
	}
	for i, g := range coord.gets {
		if g.Err != "" || !g.Found {
			t.Fatalf("get %d failed: %+v", i, g)
		}
	}
}

// TestBatchChurnStress mixes coalesced bursts with rolling sync windows
// (mid-handoff Busy nacks land inside batch flows) and a crashing replica.
// Every op must resolve and nothing may leak; with -race this doubles as
// the concurrency check on the coalescing machinery.
func TestBatchChurnStress(t *testing.T) {
	sim, emu, nodes, _ := newReplicaWorld(t, 5, 46, nil)
	rng := rand.New(rand.NewSource(46))

	epoch := uint64(1)
	rounds := make([]uint64, len(nodes))
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * 200 * time.Millisecond
		victim := rng.Intn(len(nodes))
		c := rng.Float64() < 0.7
		sim.ScheduleAt(at, "stress:sync", func() {
			rounds[victim]++
			nodes[victim].syncWindow(epoch, rounds[victim], c)
			epoch++
		})
	}
	sim.ScheduleAt(2*time.Second, "stress:crash", func() { emu.Crash(nodes[4].self.Addr) })
	sim.ScheduleAt(4*time.Second, "stress:restart", func() { emu.Restart(nodes[4].self.Addr) })

	// Bursts: several ops per scheduling wave so per-peer batches form.
	const bursts, perBurst = 12, 6
	total := 0
	for b := 0; b < bursts; b++ {
		at := time.Duration(rng.Int63n(int64(7 * time.Second)))
		node := nodes[rng.Intn(4)]
		base := uint64(1000 * (b + 1))
		sim.ScheduleAt(at, "stress:burst", func() {
			for i := 0; i < perBurst; i++ {
				key := fmt.Sprintf("k%d", (int(base)+i)%9)
				if i%2 == 0 {
					node.put(base+uint64(i), key, fmt.Sprintf("v%d-%d", b, i))
				} else {
					node.get(base+uint64(i), key)
				}
			}
		})
		total += perBurst
	}
	sim.ScheduleAt(8*time.Second, "stress:quiesce", func() {
		for i, nd := range nodes {
			rounds[i]++
			nd.syncWindow(epoch, rounds[i], true)
			epoch++
		}
	})
	sim.Run(25 * time.Second)

	resolved := 0
	batches, batched := uint64(0), uint64(0)
	for i, nd := range nodes {
		resolved += len(nd.puts) + len(nd.gets)
		if nd.ABD.InFlight() != 0 {
			t.Errorf("node %d leaked %d in-flight ops", i+1, nd.ABD.InFlight())
		}
		b, bo := nd.ABD.BatchStats()
		batches += b
		batched += bo
	}
	if resolved != total {
		t.Fatalf("resolved %d of %d ops", resolved, total)
	}
	if batched <= batches {
		t.Fatalf("stress run never coalesced: %d phases in %d frames", batched, batches)
	}
}
