package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/abd"
	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/timer"
)

// kvNodes is the key-value cluster size: with replication degree 3 every
// node replicates every key.
const kvNodes = 3

// reqBase keeps the benchmark's request IDs apart from the IDs the nodes
// mint for their own clients.
const reqBase = uint64(1) << 40

// lookupBase is the first request ID of the benchmark's Router lookups.
const lookupBase = uint64(1) << 41

// walSync and walSyncEvery are the durable stores' fsync policy: group
// commit every 100 ms. With an fsync per append the closed-loop rate
// follows the shared disk's fsync latency, which was measured moving
// between 80 and 250 µs from minute to minute on the benchmark's host, and
// at the store's default 5 ms period the syncers issue thousands of
// fsyncs a second, with the same effect. Every put still appends to the
// WAL and every dirty shard is still fsynced.
const (
	walSync      = kvstore.SyncInterval
	walSyncEvery = 100 * time.Millisecond
)

// kvNodeConfig relaxes the background protocol periods, as the repo's
// key-value experiments do, so a saturated two-core host does not raise
// false suspicions that would reconfigure the cluster mid-measurement.
func kvNodeConfig(spec kvSpec) cats.NodeConfig {
	cfg := cats.NodeConfig{
		ReplicationDegree:    3,
		FDInterval:           5 * time.Second,
		FDSuspectAfterMisses: 6,
		StabilizePeriod:      time.Second,
		CyclonPeriod:         2 * time.Second,
		OpTimeout:            500 * time.Millisecond,
	}
	if spec.durable {
		cfg.WALSync = walSync
		cfg.WALSyncEvery = walSyncEvery
	}
	return cfg
}

// opRec is what the benchmark observed of one op. Times are nanoseconds
// since the cluster's epoch; end == 0 means no answer arrived.
type opRec struct {
	due, issue, end int64
	ok, found       bool
	value           []byte // a get's answer
}

// kvCluster is one running key-value cluster and the host component that
// drives it.
type kvCluster struct {
	rt   *core.Runtime
	host *kvHost
}

// kvHost is the root component: it creates the nodes, subscribes to their
// PutGet and Router ports, and records each answer in recs.
type kvHost struct {
	env   cats.Env
	cfg   cats.NodeConfig
	refs  []ident.NodeRef
	dirs  []string
	tr    *tracer // nil: untraced nodes built by cats.NewPeer
	epoch time.Time

	ctx     *core.Ctx
	created chan struct{} // one send per joined node; orders nodes, pg and route

	nodes []*cats.Node
	pg    []*core.Port
	route []*core.Port

	recs      []opRec
	completed atomic.Int64
	done      chan int32 // op indices as they complete; capacity len(recs)

	lookups chan lookupAnswer
}

type lookupAnswer struct {
	at    time.Time
	group []ident.NodeRef
}

func (h *kvHost) Setup(ctx *core.Ctx) {
	h.ctx = ctx
	core.Subscribe(ctx, ctx.Provides(hostPort), h.join)
}

// join creates and starts node j.i; the first node founds the ring and the
// others join through it.
func (h *kvHost) join(j joinCmd) {
	i := j.i
	cfg := h.cfg
	cfg.Self = h.refs[i]
	if i > 0 {
		cfg.Seeds = h.refs[:1]
	}
	if h.dirs != nil {
		cfg.DataDir = h.dirs[i]
	}
	var comp *core.Component
	if h.tr == nil {
		p := cats.NewPeer(h.env, cfg)
		comp = h.ctx.Create(fmt.Sprintf("peer%d", i), p)
		h.nodes = append(h.nodes, p.Node)
	} else {
		p := &tracedPeer{env: h.env, cfg: cfg, tr: h.tr}
		comp = h.ctx.Create(fmt.Sprintf("peer%d", i), p)
		h.nodes = append(h.nodes, p.node)
	}
	pg := comp.Provided(abd.PutGetPortType)
	rp := comp.Provided(router.PortType)
	h.pg = append(h.pg, pg)
	h.route = append(h.route, rp)
	core.Subscribe(h.ctx, pg, h.onGet)
	core.Subscribe(h.ctx, pg, h.onPut)
	core.Subscribe(h.ctx, rp, h.onFound)
	h.ctx.Start(comp)
	h.created <- struct{}{}
}

func (h *kvHost) slot(reqID uint64) (int32, bool) {
	i := reqID - reqBase
	if reqID < reqBase || i >= uint64(len(h.recs)) {
		return 0, false
	}
	return int32(i), true
}

func (h *kvHost) onGet(r abd.GetResponse) {
	i, ok := h.slot(r.ReqID)
	if !ok {
		return
	}
	rec := &h.recs[i]
	rec.end = int64(time.Since(h.epoch))
	rec.ok = r.Err == ""
	rec.found = r.Found
	rec.value = r.Value
	h.complete(i)
}

func (h *kvHost) onPut(r abd.PutResponse) {
	i, ok := h.slot(r.ReqID)
	if !ok {
		return
	}
	rec := &h.recs[i]
	rec.end = int64(time.Since(h.epoch))
	rec.ok = r.Err == ""
	h.complete(i)
}

// complete signals op i's answer to the load loop. done holds one slot per
// op, so it never fills unless an op is answered twice; a repeat answer is
// dropped rather than allowed to block the host.
func (h *kvHost) complete(i int32) {
	h.completed.Add(1)
	select {
	case h.done <- i:
	default:
	}
}

func (h *kvHost) onFound(f router.FoundSuccessor) {
	// The node's own lookups surface on this port too; keep ours only.
	if f.ReqID < lookupBase {
		return
	}
	select {
	case h.lookups <- lookupAnswer{at: time.Now(), group: f.Group}:
	default: // an answer nobody waits for any more
	}
}

// issue triggers op i of sched at its coordinator.
func (h *kvHost) issue(s *kvSchedule, i int) {
	op := &s.ops[i]
	id := reqBase + uint64(i)
	key := s.keys[op.key]
	if h.tr != nil {
		h.tr.opIssued(int32(i), h.refs[op.coord].Addr, key)
	}
	h.recs[i].issue = int64(time.Since(h.epoch))
	var err error
	if op.kind == opGet {
		err = core.TriggerOn(h.pg[op.coord], abd.GetRequest{ReqID: id, Key: key})
	} else {
		err = core.TriggerOn(h.pg[op.coord], abd.PutRequest{ReqID: id, Key: key, Value: op.value})
	}
	if err != nil {
		panic(err) // the port type allows both requests; only a bug lands here
	}
}

// freePorts reserves n loopback TCP ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	var ports []int
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startCluster boots a kvNodes-node cluster for spec with room for nOps
// recorded ops, and waits until it has converged. round names the data
// directories of a durable cluster.
func startCluster(spec kvSpec, workdir string, round int, nOps int, tr *tracer) (*kvCluster, error) {
	var env cats.Env
	refs := make([]ident.NodeRef, kvNodes)
	step := ^uint64(0)/kvNodes + 1
	if spec.tcp {
		ports, err := freePorts(kvNodes)
		if err != nil {
			return nil, err
		}
		env = cats.TCPEnv{}
		for i := range refs {
			refs[i] = ident.NodeRef{Key: ident.Key(uint64(i)*step + 977), Addr: network.Address{Host: "127.0.0.1", Port: uint16(ports[i])}}
		}
	} else {
		env = cats.LoopbackEnv{Registry: network.NewLoopbackRegistry()}
		for i := range refs {
			refs[i] = ident.NodeRef{Key: ident.Key(uint64(i)*step + 977), Addr: network.Address{Host: "node", Port: uint16(7000 + i)}}
		}
	}
	var dirs []string
	if spec.durable {
		for i := range refs {
			dirs = append(dirs, filepath.Join(workdir, fmt.Sprintf("round%d-node%d", round, i)))
		}
	}
	h := &kvHost{
		env: env, cfg: kvNodeConfig(spec), refs: refs, dirs: dirs, tr: tr,
		epoch: time.Now(),
		recs:  make([]opRec, nOps),
		done:  make(chan int32, nOps),
		// One lookup is outstanding at a time.
		lookups: make(chan lookupAnswer, 1),
		created: make(chan struct{}),
	}
	c := &kvCluster{host: h, rt: core.New(core.WithFaultPolicy(core.LogAndContinue))}
	join := c.rt.MustBootstrap("Main", h).Provided(hostPort)
	// Nodes join one at a time, each once the ring it joins exists, so
	// convergence does not depend on which node's timers fire first.
	for i := range refs {
		if err := core.TriggerOn(join, joinCmd{i: i}); err != nil {
			c.stop()
			return nil, err
		}
		<-h.created
		if err := c.await(func() bool { return h.nodes[i].Ring.Joined() }, 10*time.Second); err != nil {
			c.stop()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	if err := c.converge(30 * time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// converge waits until every node has joined the ring, knows every member
// and is outside a handoff sync window.
func (c *kvCluster) converge(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	stableSince := time.Time{}
	for time.Now().Before(deadline) {
		ready := true
		for _, n := range c.host.nodes {
			if !n.Ring.Joined() || len(n.Router.Members()) != kvNodes || n.ABD.Syncing() {
				ready = false
				break
			}
		}
		switch {
		case !ready:
			stableSince = time.Time{}
		case stableSince.IsZero():
			stableSince = time.Now()
		case time.Since(stableSince) >= 200*time.Millisecond:
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("cluster did not converge within %v", timeout)
}

// await polls cond until it holds or timeout passes.
func (c *kvCluster) await(cond func() bool, timeout time.Duration) error {
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready within %v", timeout)
		}
	}
	return nil
}

// stop passivates every component (closing sockets and stores) and stops
// the scheduler.
func (c *kvCluster) stop() {
	_ = core.TriggerOn(c.rt.Root().Control(), core.Stop{})
	c.rt.WaitQuiescence(2 * time.Second)
	c.rt.Shutdown()
}

// tracedPeer is cats.Peer assembled by the benchmark: the environment's
// transport and timer, a CATS node, and tap components on the Network and
// Timer ports between them.
type tracedPeer struct {
	env  cats.Env
	cfg  cats.NodeConfig
	tr   *tracer
	node *cats.Node
}

func (p *tracedPeer) Setup(ctx *core.Ctx) {
	pg := ctx.Provides(abd.PutGetPortType)
	rp := ctx.Provides(router.PortType)
	tr := ctx.Create("net", p.env.NewTransport(p.cfg.Self.Addr))
	tm := ctx.Create("timer", p.env.NewTimer())
	nt := ctx.Create("nettap", &netTap{tr: p.tr})
	tt := ctx.Create("timertap", &timerTap{tr: p.tr})
	p.node = cats.NewNode(p.cfg)
	nodeC := ctx.Create("node", p.node)

	ctx.Connect(nt.Required(network.PortType), tr.Provided(network.PortType))
	ctx.Connect(nodeC.Required(network.PortType), nt.Provided(network.PortType))
	ctx.Connect(tt.Required(timer.PortType), tm.Provided(timer.PortType))
	ctx.Connect(nodeC.Required(timer.PortType), tt.Provided(timer.PortType))
	ctx.Connect(pg, nodeC.Provided(abd.PutGetPortType))
	ctx.Connect(rp, nodeC.Provided(router.PortType))
}
