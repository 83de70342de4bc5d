package ring

import (
	"repro/internal/ident"
	"repro/internal/network"
)

// Wire forms of the join and stabilization messages. Tags 0x30–0x34.
const (
	wireTagJoinReq       byte = 0x30
	wireTagJoinResp      byte = 0x31
	wireTagStabilizeReq  byte = 0x32
	wireTagStabilizeResp byte = 0x33
	wireTagNotify        byte = 0x34
)

func init() {
	network.RegisterWire(wireTagJoinReq, "ring.joinReq", func(r *network.WireReader) network.Message {
		return joinReqMsg{Header: r.Header(), Node: ident.ReadNodeRef(r)}
	})
	network.RegisterWire(wireTagJoinResp, "ring.joinResp", func(r *network.WireReader) network.Message {
		return joinRespMsg{Header: r.Header(), Members: ident.ReadNodeRefs(r), Epoch: r.U64()}
	})
	network.RegisterWire(wireTagStabilizeReq, "ring.stabilizeReq", func(r *network.WireReader) network.Message {
		return stabilizeReqMsg{Header: r.Header()}
	})
	network.RegisterWire(wireTagStabilizeResp, "ring.stabilizeResp", func(r *network.WireReader) network.Message {
		return stabilizeRespMsg{Header: r.Header(), Pred: ident.ReadNodeRef(r), Succs: ident.ReadNodeRefs(r), Epoch: r.U64()}
	})
	network.RegisterWire(wireTagNotify, "ring.notify", func(r *network.WireReader) network.Message {
		return notifyMsg{Header: r.Header(), Node: ident.ReadNodeRef(r), Epoch: r.U64()}
	})
}

func (m joinReqMsg) WireTag() byte { return wireTagJoinReq }

func (m joinReqMsg) AppendWire(dst []byte) []byte {
	return ident.AppendNodeRef(network.AppendHeader(dst, m.Header), m.Node)
}

func (m joinRespMsg) WireTag() byte { return wireTagJoinResp }

func (m joinRespMsg) AppendWire(dst []byte) []byte {
	dst = ident.AppendNodeRefs(network.AppendHeader(dst, m.Header), m.Members)
	return network.AppendU64(dst, m.Epoch)
}

func (m stabilizeReqMsg) WireTag() byte { return wireTagStabilizeReq }

func (m stabilizeReqMsg) AppendWire(dst []byte) []byte {
	return network.AppendHeader(dst, m.Header)
}

func (m stabilizeRespMsg) WireTag() byte { return wireTagStabilizeResp }

func (m stabilizeRespMsg) AppendWire(dst []byte) []byte {
	dst = ident.AppendNodeRef(network.AppendHeader(dst, m.Header), m.Pred)
	dst = ident.AppendNodeRefs(dst, m.Succs)
	return network.AppendU64(dst, m.Epoch)
}

func (m notifyMsg) WireTag() byte { return wireTagNotify }

func (m notifyMsg) AppendWire(dst []byte) []byte {
	dst = ident.AppendNodeRef(network.AppendHeader(dst, m.Header), m.Node)
	return network.AppendU64(dst, m.Epoch)
}
