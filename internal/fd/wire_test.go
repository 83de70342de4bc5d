package fd

import (
	"testing"

	"repro/internal/network"
	"repro/internal/network/wiretest"
)

func wireSamples() []network.WireMessage {
	h := network.NewHeader(network.Address{Host: "10.0.0.1", Port: 7000}, network.Address{Host: "10.0.0.2", Port: 7001})
	return []network.WireMessage{
		pingMsg{Header: h, Seq: 17},
		pongMsg{Header: h, Seq: 18},
	}
}

func TestFDWireRoundTrip(t *testing.T) {
	wiretest.Check(t, "fd.", wireSamples()...)
}

func FuzzFDWire(f *testing.F) {
	wiretest.Seed(f, wireSamples()...)
	f.Fuzz(wiretest.Fuzz)
}
