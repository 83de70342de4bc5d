package monitor

import (
	"repro/internal/network"
	"repro/internal/status"
)

// Wire form of the status report. Tag 0x60. Every string is copied out of
// the frame: the server keeps reports in its global view.
const wireTagReport byte = 0x60

// Smallest encoded snapshot (request ID, empty component, metric count)
// and metric (empty name, value).
const (
	snapshotMinWire = 8 + 4 + 4
	metricMinWire   = 4 + 8
)

func init() {
	network.RegisterWire(wireTagReport, "monitor.report", decodeReport)
}

func (m reportMsg) WireTag() byte { return wireTagReport }

func (m reportMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	dst = network.AppendString(dst, m.Node)
	dst = network.AppendString(dst, m.MetricsURL)
	dst = network.AppendU32(dst, uint32(len(m.Snapshots)))
	for _, s := range m.Snapshots {
		dst = network.AppendU64(dst, s.ReqID)
		dst = network.AppendString(dst, s.Component)
		dst = network.AppendU32(dst, uint32(len(s.Metrics)))
		for name, v := range s.Metrics {
			dst = network.AppendString(dst, name)
			dst = network.AppendI64(dst, v)
		}
	}
	return dst
}

func decodeReport(r *network.WireReader) network.Message {
	m := reportMsg{Header: r.Header(), Node: r.OwnedString(), MetricsURL: r.OwnedString()}
	if n := r.Count(snapshotMinWire); n > 0 {
		m.Snapshots = make([]status.Response, n)
		for i := range m.Snapshots {
			s := &m.Snapshots[i]
			s.ReqID = r.U64()
			s.Component = r.OwnedString()
			if k := r.Count(metricMinWire); k > 0 {
				s.Metrics = make(map[string]int64, k)
				for j := 0; j < k; j++ {
					name := r.OwnedString()
					s.Metrics[name] = r.I64()
				}
			}
		}
	}
	return m
}
