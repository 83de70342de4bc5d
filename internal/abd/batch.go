package abd

import (
	"time"

	"repro/internal/network"
	"repro/internal/timer"
	"repro/internal/tracing"
)

// The quorum protocol is one frame pair. A coordinator under load runs many
// operations against the same replica set concurrently; sending each
// read/impose phase as its own frame would pay per-message codec and
// transport overhead N times for traffic that is all going to the same
// peers. Instead every phase is queued into a per-peer batch, and the
// batches are flushed on a zero-delay timer event: every phase generated
// while the flush event sits in the component's queue rides in the same
// opBatchMsg, mirroring the per-worker fanoutBatch idiom in the forwarding
// layer. A replica serves a frame in one handler execution and answers it
// with exactly one opBatchAckMsg. The epoch gate stays strictly per op, so
// a stale operation inside a frame comes back as a nack entry while the
// rest of the frame acks.
//
// Every phase carries the coordinator's group-view epoch; replicas refuse
// epochs behind their own (consistent quorums: an attempt's acks all come
// from one epoch, never straddling two memberships).

// readPhase is one phase-1 query. The embedded trace context is per-op:
// each sampled operation inside a frame keeps its own identity.
type readPhase struct {
	tracing.Context
	OpID    uint64
	Attempt int
	Epoch   uint64
	Key     string
}

// writePhase is one phase-2 impose.
type writePhase struct {
	tracing.Context
	OpID    uint64
	Attempt int
	Epoch   uint64
	Key     string
	Version Version
	Value   []byte
}

// opBatchMsg carries every phase a coordinator owed one replica at flush
// time, one or many. The envelope's trace context is the first sampled
// entry's — it annotates the transport frame (net.send spans) without the
// transport having to look inside the batch.
type opBatchMsg struct {
	network.Header
	tracing.Context
	Reads  []readPhase
	Writes []writePhase
}

// readAckEntry acknowledges one served readPhase.
type readAckEntry struct {
	OpID    uint64
	Attempt int
	Version Version
	Value   []byte
	Found   bool
}

// writeAckEntry acknowledges one served writePhase.
type writeAckEntry struct {
	OpID    uint64
	Attempt int
}

// nackEntry refuses one phase. Busy means the replica cannot serve right
// now; with RetryAfter zero it is mid-handoff (state for the new view
// still in flight) and the coordinator just waits, with RetryAfter set the
// replica shed the phase under load and the coordinator re-offers it after
// the hint (plus jitter). A non-Busy nack means the coordinator's epoch
// was stale and Epoch is the hint to restart the attempt against a fresh
// view. Epoch is the replica's view at the refusal, which can trail the
// frame's Epoch when a later entry of the same frame merged a newer one.
type nackEntry struct {
	OpID       uint64
	Attempt    int
	Epoch      uint64
	Busy       bool
	RetryAfter time.Duration
}

// opBatchAckMsg answers one opBatchMsg: an ack for every phase the replica
// served and a nack for every phase it refused. A write whose WAL append
// failed gets neither, so it times out at the coordinator. Epoch is the
// replica's post-merge view epoch.
type opBatchAckMsg struct {
	network.Header
	Epoch     uint64
	ReadAcks  []readAckEntry
	WriteAcks []writeAckEntry
	Nacks     []nackEntry
}

// flushTimeout drains the coordinator's pending per-peer batches. It is
// scheduled with zero delay: in the deterministic simulation it fires at
// the current virtual time after already-queued handler executions, and
// under the real timer it fires on the next pass through the component
// queue — in both cases long enough for concurrently arriving operations
// to pile into the same flush.
type flushTimeout struct {
	timer.Timeout
}

// peerBatch accumulates the phases owed to one replica until the next
// flush. The slices are handed to the outgoing message at flush time and
// never reused: triggered messages are owned by the transport from then on.
type peerBatch struct {
	reads  []readPhase
	writes []writePhase
}

// pendFor returns (creating if needed) the pending batch for dst and arms
// the flush timer. Peer order is insertion order — map iteration order
// would break run-to-run determinism of the simulation trace.
func (a *ABD) pendFor(dst network.Address) *peerBatch {
	if b, ok := a.pend[dst]; ok {
		return b
	}
	b := &peerBatch{}
	a.pend[dst] = b
	a.pendOrder = append(a.pendOrder, dst)
	if !a.flushArmed {
		a.flushArmed = true
		a.ctx.Trigger(timer.ScheduleTimeout{
			Delay:   0,
			Timeout: flushTimeout{Timeout: timer.Timeout{ID: timer.NextID()}},
		}, a.tmr)
	}
	return b
}

// sendRead queues one phase-1 query for dst's next frame.
func (a *ABD) sendRead(dst network.Address, r readPhase) {
	b := a.pendFor(dst)
	b.reads = append(b.reads, r)
}

// sendWrite queues one phase-2 impose for dst's next frame.
func (a *ABD) sendWrite(dst network.Address, w writePhase) {
	b := a.pendFor(dst)
	b.writes = append(b.writes, w)
}

// handleFlush drains every pending batch, one frame per peer.
func (a *ABD) handleFlush(flushTimeout) {
	a.flushArmed = false
	for _, dst := range a.pendOrder {
		b := a.pend[dst]
		delete(a.pend, dst)
		n := len(b.reads) + len(b.writes)
		a.statBatchesSent++
		a.statBatchedOps += uint64(n)
		observeBatch(n)
		// The frame-level context is the first sampled op's: enough for
		// transport-layer send spans to attach to some trace in the batch.
		var fc tracing.Context
		for _, r := range b.reads {
			if r.TraceID != 0 {
				fc = r.Context
				break
			}
		}
		if fc.TraceID == 0 {
			for _, w := range b.writes {
				if w.TraceID != 0 {
					fc = w.Context
					break
				}
			}
		}
		a.ctx.Trigger(opBatchMsg{
			Header:  network.NewHeader(a.cfg.Self.Addr, dst),
			Context: fc,
			Reads:   b.reads,
			Writes:  b.writes,
		}, a.net)
	}
	a.pendOrder = a.pendOrder[:0]
}

// sized returns s, or an empty slice with room for n entries when s is
// still nil: each reply slice is allocated at most once, sized to the
// frame, and only if the frame needs it.
func sized[T any](s []T, n int) []T {
	if s == nil {
		return make([]T, 0, n)
	}
	return s
}

// --- replica side ---------------------------------------------------------------

// handleOpBatch serves one frame and answers it with one opBatchAckMsg.
// Every op passes the epoch gate individually: stale, mid-sync and shed
// ops become nack entries, the rest are served. Serving merges newer
// epochs as it goes, so ops later in the frame are gated against the
// freshest view the frame itself revealed.
func (a *ABD) handleOpBatch(m opBatchMsg) {
	ack := opBatchAckMsg{Header: network.Reply(m)}
	frame := len(m.Reads) + len(m.Writes)
	for _, r := range m.Reads {
		if n, ok := a.serveEpoch(r.Context, "serve.read", r.OpID, r.Attempt, r.Epoch); !ok {
			ack.Nacks = append(sized(ack.Nacks, frame), n)
			continue
		}
		ver, val, found := a.store.Read(r.Key)
		a.recordServe(r.Context, "serve.read", r.OpID, r.Attempt, "ok")
		ack.ReadAcks = append(sized(ack.ReadAcks, len(m.Reads)), readAckEntry{
			OpID:    r.OpID,
			Attempt: r.Attempt,
			Version: ver,
			Value:   val,
			Found:   found,
		})
	}
	for _, w := range m.Writes {
		if n, ok := a.serveEpoch(w.Context, "serve.write", w.OpID, w.Attempt, w.Epoch); !ok {
			ack.Nacks = append(sized(ack.Nacks, frame), n)
			continue
		}
		// The ack is the durability promise: on a durable store
		// ApplyDurable returns only after the write is in the shard's WAL
		// (fsynced under sync=always). A WAL failure therefore withholds
		// the ack — the coordinator retries or fails the op, but never
		// reports a write stored that a restart would lose.
		if _, err := a.store.ApplyDurable(w.Key, w.Version, w.Value); err != nil {
			a.recordServe(w.Context, "serve.write", w.OpID, w.Attempt, "wal-error")
			a.ctx.Log().Warn("abd: wal append failed; write not acked", "key", w.Key, "err", err)
			continue
		}
		a.recordServe(w.Context, "serve.write", w.OpID, w.Attempt, "ok")
		ack.WriteAcks = append(sized(ack.WriteAcks, len(m.Writes)), writeAckEntry{OpID: w.OpID, Attempt: w.Attempt})
	}
	if len(ack.ReadAcks)+len(ack.WriteAcks)+len(ack.Nacks) == 0 {
		return // every write failed its WAL append: nothing to answer
	}
	ack.Epoch = a.localEpoch
	a.ctx.Trigger(ack, a.net)
}

// handleOpBatchAck fans one replica answer back into the per-op quorum
// state machines, nacks first. Phase-2 imposes generated while ingesting
// read acks are queued into the pending batches, so they coalesce into
// the next flush.
func (a *ABD) handleOpBatchAck(m opBatchAckMsg) {
	src := m.Source()
	for _, n := range m.Nacks {
		a.ingestNack(src, n)
	}
	for _, r := range m.ReadAcks {
		a.ingestReadAck(src, r)
	}
	for _, w := range m.WriteAcks {
		a.ingestWriteAck(src, w)
	}
}
