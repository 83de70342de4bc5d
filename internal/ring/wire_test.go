package ring

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
		joinReqMsg{Header: h, Node: a},
		joinRespMsg{Header: h, Members: []ident.NodeRef{a, b}, Epoch: 5},
		stabilizeReqMsg{Header: h},
		stabilizeRespMsg{Header: h, Pred: a, Succs: []ident.NodeRef{b, a}, Epoch: 6},
		notifyMsg{Header: h, Node: b, Epoch: 7},
	}
}

func TestRingWireRoundTrip(t *testing.T) {
	wiretest.Check(t, "ring.", wireSamples()...)
}

func FuzzRingWire(f *testing.F) {
	wiretest.Seed(f, wireSamples()...)
	f.Fuzz(wiretest.Fuzz)
}
