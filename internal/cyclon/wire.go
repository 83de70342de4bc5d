package cyclon

import (
	"repro/internal/ident"
	"repro/internal/network"
)

// Wire forms of the shuffle exchange. Tags 0x40–0x41.
const (
	wireTagShuffle      byte = 0x40
	wireTagShuffleReply byte = 0x41
)

func init() {
	network.RegisterWire(wireTagShuffle, "cyclon.shuffle", func(r *network.WireReader) network.Message {
		return shuffleMsg{Header: r.Header(), Entries: readDescriptors(r)}
	})
	network.RegisterWire(wireTagShuffleReply, "cyclon.shuffleReply", func(r *network.WireReader) network.Message {
		return shuffleReplyMsg{Header: r.Header(), Entries: readDescriptors(r)}
	})
}

// descriptorMinWire is the smallest encoded descriptor: a NodeRef with an
// empty host (key, host length, port) and the age.
const descriptorMinWire = 8 + 4 + 2 + 8

func appendDescriptors(dst []byte, ds []descriptor) []byte {
	dst = network.AppendU32(dst, uint32(len(ds)))
	for _, d := range ds {
		dst = ident.AppendNodeRef(dst, d.Node)
		dst = network.AppendI64(dst, int64(d.Age))
	}
	return dst
}

func readDescriptors(r *network.WireReader) []descriptor {
	n := r.Count(descriptorMinWire)
	if n == 0 {
		return nil
	}
	ds := make([]descriptor, n)
	for i := range ds {
		ds[i] = descriptor{Node: ident.ReadNodeRef(r), Age: int(r.I64())}
	}
	return ds
}

func (m shuffleMsg) WireTag() byte { return wireTagShuffle }

func (m shuffleMsg) AppendWire(dst []byte) []byte {
	return appendDescriptors(network.AppendHeader(dst, m.Header), m.Entries)
}

func (m shuffleReplyMsg) WireTag() byte { return wireTagShuffleReply }

func (m shuffleReplyMsg) AppendWire(dst []byte) []byte {
	return appendDescriptors(network.AppendHeader(dst, m.Header), m.Entries)
}
