package monitor

import (
	"testing"

	"repro/internal/network"
	"repro/internal/network/wiretest"
	"repro/internal/status"
)

func wireSamples() []network.WireMessage {
	h := network.NewHeader(network.Address{Host: "10.0.0.1", Port: 7000}, network.Address{Host: "10.0.0.2", Port: 7200})
	return []network.WireMessage{
		reportMsg{Header: h, Node: "node-1", MetricsURL: "10.0.0.1:8080", Snapshots: []status.Response{
			{ReqID: 3, Component: "abd", Metrics: map[string]int64{"gets": 12, "puts": -1}},
			{ReqID: 3, Component: "ring", Metrics: map[string]int64{"epoch": 4}},
		}},
	}
}

func TestMonitorWireRoundTrip(t *testing.T) {
	wiretest.Check(t, "monitor.", wireSamples()...)
}

func FuzzMonitorWire(f *testing.F) {
	wiretest.Seed(f, wireSamples()...)
	f.Fuzz(wiretest.Fuzz)
}
