package fd

import "repro/internal/network"

// Wire forms of the ping/pong probes. Tags 0x20–0x21.
const (
	wireTagPing byte = 0x20
	wireTagPong byte = 0x21
)

func init() {
	network.RegisterWire(wireTagPing, "fd.ping", func(r *network.WireReader) network.Message {
		return pingMsg{Header: r.Header(), Seq: r.U64()}
	})
	network.RegisterWire(wireTagPong, "fd.pong", func(r *network.WireReader) network.Message {
		return pongMsg{Header: r.Header(), Seq: r.U64()}
	})
}

func (m pingMsg) WireTag() byte { return wireTagPing }

func (m pingMsg) AppendWire(dst []byte) []byte {
	return network.AppendU64(network.AppendHeader(dst, m.Header), m.Seq)
}

func (m pongMsg) WireTag() byte { return wireTagPong }

func (m pongMsg) AppendWire(dst []byte) []byte {
	return network.AppendU64(network.AppendHeader(dst, m.Header), m.Seq)
}
