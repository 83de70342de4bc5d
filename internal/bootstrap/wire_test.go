package bootstrap

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/network/wiretest"
)

func wireSamples() []network.WireMessage {
	h := network.NewHeader(network.Address{Host: "10.0.0.1", Port: 7000}, network.Address{Host: "10.0.0.2", Port: 7001})
	a := ident.NodeRef{Key: 10, Addr: network.Address{Host: "10.0.0.3", Port: 7002}}
	b := ident.NodeRef{Key: 20, Addr: network.Address{Host: "10.0.0.4", Port: 7003}}
	return []network.WireMessage{
		getPeersMsg{Header: h, Node: a},
		peersMsg{Header: h, Peers: []ident.NodeRef{a, b}},
		keepaliveMsg{Header: h, Node: b},
	}
}

func TestBootstrapWireRoundTrip(t *testing.T) {
	wiretest.Check(t, "bootstrap.", wireSamples()...)
}

func FuzzBootstrapWire(f *testing.F) {
	wiretest.Seed(f, wireSamples()...)
	f.Fuzz(wiretest.Fuzz)
}
