package cats

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/abd"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
)

// freeTCPAddr reserves a loopback port from the OS.
func freeTCPAddr(t *testing.T) network.Address {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	_ = ln.Close()
	return network.Address{Host: "127.0.0.1", Port: uint16(port)}
}

// tcpClient drives PutGet against a peer over channels.
type tcpClient struct {
	target *core.Port
	ctx    *core.Ctx
	gets   chan abd.GetResponse
	puts   chan abd.PutResponse
}

func (c *tcpClient) Setup(ctx *core.Ctx) {
	c.ctx = ctx
	c.target = ctx.Requires(abd.PutGetPortType)
	core.Subscribe(ctx, c.target, func(g abd.GetResponse) { c.gets <- g })
	core.Subscribe(ctx, c.target, func(p abd.PutResponse) { c.puts <- p })
}

// TestProductionTCPCluster runs a 3-node CATS cluster over real TCP
// sockets on localhost — the full production path: dial-on-demand
// connection management, length-prefixed framing, the binary wire codec
// for every message (join, stabilization, failure detection, gossip,
// quorum phases) — and performs linearizable puts and gets across
// coordinators. No encode may be refused for a missing wire tag and no
// inbound payload may fail to decode.
func TestProductionTCPCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	const n = 3
	refs := make([]ident.NodeRef, n)
	for i := range refs {
		refs[i] = ident.NodeRef{Key: ident.Key(uint64(i+1) << 60), Addr: freeTCPAddr(t)}
	}

	before := network.GlobalMetrics()
	rt := core.New(core.WithFaultPolicy(core.LogAndContinue))
	defer rt.Shutdown()
	env := TCPEnv{}
	peers := make([]*Peer, n)
	clients := make([]*tcpClient, n)
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		for i := range refs {
			cfg := NodeConfig{
				Self:              refs[i],
				ReplicationDegree: 3,
				FDInterval:        200 * time.Millisecond,
				StabilizePeriod:   100 * time.Millisecond,
				CyclonPeriod:      200 * time.Millisecond,
				OpTimeout:         2 * time.Second,
			}
			if i > 0 {
				cfg.Seeds = []ident.NodeRef{refs[0]}
			}
			peers[i] = NewPeer(env, cfg)
			comp := ctx.Create(refs[i].Addr.String(), peers[i])
			clients[i] = &tcpClient{
				gets: make(chan abd.GetResponse, 4),
				puts: make(chan abd.PutResponse, 4),
			}
			cl := ctx.Create("client-"+refs[i].Addr.String(), clients[i])
			ctx.Connect(comp.Provided(abd.PutGetPortType), cl.Required(abd.PutGetPortType))
		}
	}))

	// Wait for ring convergence over real sockets.
	deadline := time.Now().Add(30 * time.Second)
	for {
		joined := 0
		for _, p := range peers {
			if p.Node != nil && p.Node.Ring.Joined() && len(p.Node.Ring.Succs()) > 0 {
				joined++
			}
		}
		if joined == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring did not converge over TCP: %d/%d joined", joined, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(time.Second) // membership tables

	// Put via each node, get each key via the next node.
	for i := 0; i < 6; i++ {
		put, get := clients[i%n], clients[(i+1)%n]
		key, value := fmt.Sprintf("tcp-key-%d", i), fmt.Sprintf("over-sockets-%d", i)
		put.ctx.Trigger(abd.PutRequest{ReqID: NextReqID(), Key: key, Value: []byte(value)}, put.target)
		select {
		case resp := <-put.puts:
			if resp.Err != "" {
				t.Fatalf("put %s: %s", key, resp.Err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("put %s timed out", key)
		}
		get.ctx.Trigger(abd.GetRequest{ReqID: NextReqID(), Key: key}, get.target)
		select {
		case resp := <-get.gets:
			if resp.Err != "" || !resp.Found || string(resp.Value) != value {
				t.Fatalf("get %s: %+v", key, resp)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("get %s timed out", key)
		}
	}

	after := network.GlobalMetrics()
	if after.EncodedMsgs == before.EncodedMsgs || after.DecodedMsgs == before.DecodedMsgs {
		t.Fatal("no message crossed the wire codec")
	}
	if refused := after.CodecFallbacks - before.CodecFallbacks; refused != 0 {
		t.Fatalf("%d encodes refused for a missing wire tag", refused)
	}
	if bad := after.DecodeErrors - before.DecodeErrors; bad != 0 {
		t.Fatalf("%d inbound payloads failed to decode", bad)
	}
}
