package bootstrap

import (
	"repro/internal/ident"
	"repro/internal/network"
)

// Wire forms of the bootstrap protocol messages. Tags 0x50–0x52.
const (
	wireTagGetPeers  byte = 0x50
	wireTagPeers     byte = 0x51
	wireTagKeepalive byte = 0x52
)

func init() {
	network.RegisterWire(wireTagGetPeers, "bootstrap.getPeers", func(r *network.WireReader) network.Message {
		return getPeersMsg{Header: r.Header(), Node: ident.ReadNodeRef(r)}
	})
	network.RegisterWire(wireTagPeers, "bootstrap.peers", func(r *network.WireReader) network.Message {
		return peersMsg{Header: r.Header(), Peers: ident.ReadNodeRefs(r)}
	})
	network.RegisterWire(wireTagKeepalive, "bootstrap.keepalive", func(r *network.WireReader) network.Message {
		return keepaliveMsg{Header: r.Header(), Node: ident.ReadNodeRef(r)}
	})
}

func (m getPeersMsg) WireTag() byte { return wireTagGetPeers }

func (m getPeersMsg) AppendWire(dst []byte) []byte {
	return ident.AppendNodeRef(network.AppendHeader(dst, m.Header), m.Node)
}

func (m peersMsg) WireTag() byte { return wireTagPeers }

func (m peersMsg) AppendWire(dst []byte) []byte {
	return ident.AppendNodeRefs(network.AppendHeader(dst, m.Header), m.Peers)
}

func (m keepaliveMsg) WireTag() byte { return wireTagKeepalive }

func (m keepaliveMsg) AppendWire(dst []byte) []byte {
	return ident.AppendNodeRef(network.AppendHeader(dst, m.Header), m.Node)
}
