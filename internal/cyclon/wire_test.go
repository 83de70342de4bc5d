package cyclon

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/network/wiretest"
)

func wireSamples() []network.WireMessage {
	h := network.NewHeader(network.Address{Host: "10.0.0.1", Port: 7000}, network.Address{Host: "10.0.0.2", Port: 7001})
	entries := []descriptor{
		{Node: ident.NodeRef{Key: 10, Addr: network.Address{Host: "10.0.0.3", Port: 7002}}, Age: 3},
		{Node: ident.NodeRef{Key: 20, Addr: network.Address{Host: "10.0.0.4", Port: 7003}}, Age: 0},
	}
	return []network.WireMessage{
		shuffleMsg{Header: h, Entries: entries},
		shuffleReplyMsg{Header: h, Entries: entries[1:]},
	}
}

func TestCyclonWireRoundTrip(t *testing.T) {
	wiretest.Check(t, "cyclon.", wireSamples()...)
}

func FuzzCyclonWire(f *testing.F) {
	wiretest.Seed(f, wireSamples()...)
	f.Fuzz(wiretest.Fuzz)
}
