package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/network"
)

// Replay microbenchmarks: each times one layer through its public
// functions on inputs captured from the workload, and reports ns/op and
// allocs/op. They run after the cluster has stopped, so nothing else
// allocates meanwhile.

// allocsDuring returns the heap allocations f makes.
func allocsDuring(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// microMin is the least time a replay loop runs, repeating its input.
const microMin = 200 * time.Millisecond

// repeatFor runs f(round) until at least microMin has passed and returns
// the elapsed time and the number of rounds.
func repeatFor(f func()) (time.Duration, int) {
	t0 := time.Now()
	rounds := 0
	for time.Since(t0) < microMin {
		f()
		rounds++
	}
	return time.Since(t0), rounds
}

// pingPort is the ping-pong microbench's port: Ping one way, Pong back.
var pingPort = core.NewPortType("perfbenchPing", core.Request[ping](), core.Indication[pong]())

type ping struct{}
type pong struct{}

type ponger struct{}

func (ponger) Setup(ctx *core.Ctx) {
	p := ctx.Provides(pingPort)
	core.Subscribe(ctx, p, func(ping) { ctx.Trigger(pong{}, p) })
}

type pinger struct {
	n    int
	done chan struct{}
}

func (pg *pinger) Setup(ctx *core.Ctx) {
	p := ctx.Requires(pingPort)
	left := pg.n
	core.Subscribe(ctx, p, func(pong) {
		left--
		if left == 0 {
			close(pg.done)
			return
		}
		ctx.Trigger(ping{}, p)
	})
	core.Subscribe(ctx, ctx.Control(), func(core.Start) { ctx.Trigger(ping{}, p) })
}

// corePingPong times n round trips between two components over the public
// core API and returns ns and allocations per dispatched event.
func corePingPong(n int) (nsPerEvent, allocsPerEvent float64) {
	rt := core.New()
	defer rt.Shutdown()
	pg := &pinger{n: n, done: make(chan struct{})}
	var elapsed time.Duration
	allocs := allocsDuring(func() {
		t0 := time.Now()
		rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
			a := ctx.Create("ping", pg)
			b := ctx.Create("pong", ponger{})
			ctx.Connect(a.Required(pingPort), b.Provided(pingPort))
		}))
		<-pg.done
		elapsed = time.Since(t0)
	})
	events := float64(2 * n)
	return float64(elapsed) / events, float64(allocs) / events
}

// codecReplay encodes and decodes the captured message mix through the
// TCP transport's default codec.
func codecReplay(msgs []network.Message) (encNS, decNS, encAllocs, decAllocs float64, n int) {
	codec := network.NewTCP(network.Address{}).PeerCodec(network.Address{})
	var payloads [][]byte
	for _, m := range msgs {
		p, err := codec.Encode(m)
		if err == nil {
			msgs[len(payloads)] = m
			payloads = append(payloads, p)
		}
	}
	msgs = msgs[:len(payloads)]
	if len(msgs) == 0 {
		return 0, 0, 0, 0, 0
	}
	var buf []byte
	encode := func() {
		for _, m := range msgs {
			buf, _ = codec.EncodeAppend(buf[:0], m)
		}
	}
	decode := func() {
		for _, p := range payloads {
			_, _ = codec.Decode(p)
		}
	}
	encode() // warm the buffer
	el, rounds := repeatFor(encode)
	encNS = float64(el) / float64(rounds*len(msgs))
	encAllocs = float64(allocsDuring(encode)) / float64(len(msgs))
	el, rounds = repeatFor(decode)
	decNS = float64(el) / float64(rounds*len(msgs))
	decAllocs = float64(allocsDuring(decode)) / float64(len(msgs))
	return encNS, decNS, encAllocs, decAllocs, len(msgs)
}

// kvReplayResult is the store replay's outcome.
type kvReplayResult struct {
	p50US, p99US, applyAllocs float64
	readNS, readAllocs        float64
	puts, gets                int
}

// kvReplay replays the puts of ops[lo:hi] through ApplyDurable on a store
// with the workload's sync policy (opened under dir when durable), then
// the gets through Read.
func kvReplay(s *kvSchedule, lo, hi int, durable bool, dir string) (res kvReplayResult, err error) {
	st := kvstore.New()
	if durable {
		if st, err = kvstore.Open(dir, kvstore.Options{Sync: walSync, SyncEvery: walSyncEvery}); err != nil {
			return res, err
		}
		defer st.Close()
	}
	type put struct {
		key   string
		v     kvstore.Version
		value []byte
	}
	seq := make(map[int32]uint64)
	var puts []put
	var getKeys []string
	for i := lo; i < hi; i++ {
		op := s.ops[i]
		key := s.keys[op.key]
		if op.kind == opGet {
			getKeys = append(getKeys, key)
			continue
		}
		seq[op.key]++
		puts = append(puts, put{key, kvstore.Version{Seq: seq[op.key], Writer: 1}, op.value})
	}
	lat := make([]float64, 0, len(puts))
	allocs := allocsDuring(func() {
		for _, p := range puts {
			t0 := time.Now()
			_, err = st.ApplyDurable(p.key, p.v, p.value)
			lat = append(lat, float64(time.Since(t0))/1e3)
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return res, err
	}
	sort.Float64s(lat)
	res = kvReplayResult{p50US: quantile(lat, 0.5), p99US: quantile(lat, 0.99), puts: len(puts), gets: len(getKeys)}
	res.applyAllocs = float64(allocs) / float64(max(len(puts), 1))
	if len(getKeys) > 0 {
		read := func() {
			for _, k := range getKeys {
				st.Read(k)
			}
		}
		el, rounds := repeatFor(read)
		res.readNS = float64(el) / float64(rounds*len(getKeys))
		res.readAllocs = float64(allocsDuring(read)) / float64(len(getKeys))
	}
	return res, nil
}

// routerResolve times what the router does per lookup at a membership of
// the given nodes: sort the membership by key, then pick the replica
// group of a key.
func routerResolve(nodes []ident.NodeRef, seed int64) (ns, allocs float64) {
	rng := rand.New(rand.NewSource(seed))
	shuffled := append([]ident.NodeRef(nil), nodes...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	keys := make([]ident.Key, 1024)
	for i := range keys {
		keys[i] = ident.Key(rng.Uint64())
	}
	scratch := make([]ident.NodeRef, len(nodes))
	round := func() {
		for _, k := range keys {
			copy(scratch, shuffled)
			ident.SortByKey(scratch)
			_ = ident.SuccessorsOf(scratch, k, 3)
		}
	}
	el, rounds := repeatFor(round)
	ns = float64(el) / float64(rounds*len(keys))
	allocs = float64(allocsDuring(round)) / float64(len(keys))
	return ns, allocs
}

// microLayers runs the replays every workload shares and adds their rows.
func microLayers(rep *report, captured []network.Message, members []ident.NodeRef, seed int64) {
	ns, al := corePingPong(200000)
	rep.add("core.dispatch_ns", ns, "ns", 400000, "ping-pong over the public core API")
	rep.add("core.dispatch_allocs", al, "count", 400000, "ping-pong over the public core API")
	enc, dec, encA, decA, n := codecReplay(captured)
	rep.add("network.encode_ns", enc, "ns", n, "captured message mix, default TCP codec")
	rep.add("network.decode_ns", dec, "ns", n, "captured message mix, default TCP codec")
	rep.add("network.encode_allocs", encA, "count", n, "")
	rep.add("network.decode_allocs", decA, "count", n, "")
	rns, ral := routerResolve(members, seed)
	rep.add("router.resolve_ns", rns, "ns", len(members), "SortByKey + SuccessorsOf at this membership size")
	rep.add("router.resolve_allocs", ral, "count", len(members), "")
}
