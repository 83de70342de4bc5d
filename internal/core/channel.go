package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Channel is a first-class binding between two complementary port halves of
// the same port type. Channels forward events in both directions in FIFO
// order and support the four reconfiguration commands of the paper (§2.6):
// Hold, Resume, Unplug, and Plug. Held channels queue events in both
// directions without dropping any; Resume flushes the queue in FIFO order
// and then resumes pass-through forwarding.
type Channel struct {
	typ *PortType

	// pass caches the two live endpoints for lock-free pass-through
	// forwarding. It is non-nil exactly while the channel is a plain pipe —
	// both ends plugged, not held, and nothing queued or being drained —
	// and nil whenever any reconfiguration state forces the locked slow
	// path. Mutators republish it under mu (updatePassLocked), so the
	// broadcast hot path costs one atomic load and a pointer compare per
	// channel instead of a mutex round trip.
	pass atomic.Pointer[chanEnds]

	// inflight counts deliveries that passed the channel but have not yet
	// reached their destination queues: fast-path forwards between their
	// pass load and the enqueue (for batched fan-out, until the batch is
	// flushed), and slow-path or drain deliveries made outside mu. Hold and
	// Unplug wait for it to reach zero, so once they return no event can
	// still land at the old endpoint.
	inflight atomic.Int64

	mu       sync.Mutex
	ends     [2]*Port // endpoint halves; an unplugged end is nil
	held     bool
	draining bool // a drainLocked loop is delivering queued events
	// queue holds events that arrived while the channel was held, drained,
	// or while the destination end was unplugged, in arrival order. dstEnd
	// records which endpoint slot each event was heading to; queued counts
	// the entries per slot.
	queue  []queuedEvent
	queued [2]int
}

// chanEnds is an immutable snapshot of a live channel's endpoints. Port
// handles are canonical (see portPair.halves), so endpoint identity is a
// pointer compare.
type chanEnds struct{ a, b *Port }

// otherOf returns the endpoint opposite half from, or nil when from is not
// an endpoint of this snapshot (a racing unplug: take the slow path).
func (ce *chanEnds) otherOf(from *Port) *Port {
	if ce.a == from {
		return ce.b
	}
	if ce.b == from {
		return ce.a
	}
	return nil
}

type queuedEvent struct {
	event  Event
	dstEnd int
}

// Connect creates a channel between two complementary port halves. The
// halves must have the same port type and opposite polarity: one
// provider-like half (the outer half of a provided port, or the inner half
// of a required port) and one requirer-like half. This covers the three
// legal composition shapes: sibling connections, provided pass-through
// (parent's provided port to a child's provided port), and required
// pass-through (a child's required port to the parent's required port).
func Connect(a, b *Port) (*Channel, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("core: Connect: nil port")
	}
	if a.Type() != b.Type() {
		return nil, fmt.Errorf("core: Connect: port type mismatch: %s vs %s", a, b)
	}
	if a.providerLike() == b.providerLike() {
		return nil, fmt.Errorf("core: Connect: ports are not complementary: %s and %s", a, b)
	}
	if a.pair == b.pair {
		return nil, fmt.Errorf("core: Connect: cannot connect the two halves of the same port %s", a)
	}
	ch := &Channel{typ: a.Type()}
	ch.ends[0] = a
	ch.ends[1] = b
	ch.pass.Store(&chanEnds{a: a, b: b})
	a.pair.attachChannel(a.face, ch)
	b.pair.attachChannel(b.face, ch)
	return ch, nil
}

// MustConnect is Connect but panics on error. It is intended for static
// architecture wiring in component Setup code, where a connection error is
// a programming bug.
func MustConnect(a, b *Port) *Channel {
	ch, err := Connect(a, b)
	if err != nil {
		panic(err)
	}
	return ch
}

// Type returns the port type the channel carries.
func (ch *Channel) Type() *PortType { return ch.typ }

// Ends returns the two endpoint halves; an unplugged end is nil.
func (ch *Channel) Ends() (a, b *Port) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.ends[0], ch.ends[1]
}

// forward carries an event that just crossed into half `from` onward to the
// opposite endpoint. If the channel is held, or the destination end is
// currently unplugged, the event is queued instead of dropped. hint is the
// scheduler locality hint of the originating trigger, threaded through the
// synchronous forwarding chain (see Port.deliver).
func (ch *Channel) forward(ev Event, from *Port, hint *worker) {
	ch.inflight.Add(1)
	if ce := ch.pass.Load(); ce != nil {
		if dst := ce.otherOf(from); dst != nil {
			dst.deliver(ev, hint)
			ch.inflight.Add(-1)
			return
		}
	}
	ch.inflight.Add(-1)
	ch.forwardSlow(ev, from, hint, nil)
}

// forwardInto is forward inside an ongoing batch collection: the far side's
// fan-out joins the same batch, which keeps the channel's in-flight count
// until it is flushed.
func (ch *Channel) forwardInto(ev Event, from *Port, hint *worker, b *fanoutBatch) {
	ch.inflight.Add(1)
	if ce := ch.pass.Load(); ce != nil {
		if dst := ce.otherOf(from); dst != nil {
			dst.deliverInto(ev, hint, b)
			b.pins = append(b.pins, ch)
			return
		}
	}
	ch.inflight.Add(-1)
	ch.forwardSlow(ev, from, hint, b)
}

// forwardSlice carries a homogeneous event slice across the channel as one
// atomic batch: a live channel forwards it whole; a held channel (or one
// whose destination end is unplugged) buffers the whole slice in order
// under a single lock acquisition, so no concurrent forward can interleave
// inside the batch and Resume replays it contiguously.
func (ch *Channel) forwardSlice(evs []Event, from *Port, hint *worker, b *fanoutBatch) {
	ch.inflight.Add(1)
	if ce := ch.pass.Load(); ce != nil {
		if dst := ce.otherOf(from); dst != nil {
			dst.deliverSliceInto(evs, hint, b)
			b.pins = append(b.pins, ch)
			return
		}
	}
	ch.inflight.Add(-1)
	ch.mu.Lock()
	dstEnd := ch.slowDstEndLocked(from)
	if ch.mustQueueLocked(dstEnd) {
		for _, ev := range evs {
			ch.queue = append(ch.queue, queuedEvent{event: ev, dstEnd: dstEnd})
		}
		ch.queued[dstEnd] += len(evs)
		ch.mu.Unlock()
		return
	}
	dst := ch.ends[dstEnd]
	ch.inflight.Add(1)
	ch.mu.Unlock()
	dst.deliverSliceInto(evs, hint, b)
	b.pins = append(b.pins, ch)
}

// forwardSlow is the locked forwarding path, taken whenever the channel is
// not a plain live pipe (held, partially unplugged, draining, or racing a
// reconfig). When b is non-nil the delivery joins that batch.
func (ch *Channel) forwardSlow(ev Event, from *Port, hint *worker, b *fanoutBatch) {
	ch.mu.Lock()
	dstEnd := ch.slowDstEndLocked(from)
	if ch.mustQueueLocked(dstEnd) {
		ch.queue = append(ch.queue, queuedEvent{event: ev, dstEnd: dstEnd})
		ch.queued[dstEnd]++
		ch.mu.Unlock()
		return
	}
	dst := ch.ends[dstEnd]
	ch.inflight.Add(1)
	ch.mu.Unlock()
	if b != nil {
		dst.deliverInto(ev, hint, b)
		b.pins = append(b.pins, ch)
	} else {
		dst.deliver(ev, hint)
		ch.inflight.Add(-1)
	}
}

// mustQueueLocked reports whether an event heading to slot dstEnd has to
// wait in the queue: the channel is held, the end is unplugged, or earlier
// events are still queued or being drained — delivering it directly would
// overtake them. Called with ch.mu held.
func (ch *Channel) mustQueueLocked(dstEnd int) bool {
	return ch.held || ch.draining || ch.ends[dstEnd] == nil || ch.queued[dstEnd] > 0
}

// awaitInflight waits until every delivery that already passed the
// channel has reached its destination queue.
func (ch *Channel) awaitInflight() {
	for ch.inflight.Load() != 0 {
		runtime.Gosched()
	}
}

// slowDstEndLocked resolves which endpoint slot an event entering from half
// `from` is heading to. Called with ch.mu held.
func (ch *Channel) slowDstEndLocked(from *Port) int {
	dstEnd := ch.endIndexOfOther(from)
	if dstEnd < 0 {
		// The 'from' half is no longer an endpoint (racing unplug): the
		// event was emitted while we were attached, so deliver toward the
		// remaining end to honor the no-drop guarantee.
		if ch.ends[0] != nil {
			dstEnd = 0
		} else {
			dstEnd = 1
		}
	}
	return dstEnd
}

// updatePassLocked republishes the lock-free pass-through snapshot after a
// state mutation. Called with ch.mu held.
func (ch *Channel) updatePassLocked() {
	if !ch.held && !ch.draining && len(ch.queue) == 0 && ch.ends[0] != nil && ch.ends[1] != nil {
		ch.pass.Store(&chanEnds{a: ch.ends[0], b: ch.ends[1]})
	} else {
		ch.pass.Store(nil)
	}
}

// endIndexOfOther returns the slot index of the endpoint opposite to half p,
// or -1 if p is not currently an endpoint.
func (ch *Channel) endIndexOfOther(p *Port) int {
	if ch.ends[0] != nil && ch.ends[0].pair == p.pair && ch.ends[0].face == p.face {
		return 1
	}
	if ch.ends[1] != nil && ch.ends[1].pair == p.pair && ch.ends[1].face == p.face {
		return 0
	}
	return -1
}

// Hold puts the channel on hold: it stops forwarding events and starts
// queueing them in both directions. It returns once every event that had
// already passed the channel sits in its destination's queue, so nothing
// forwarded before the hold can reach an endpoint afterwards.
func (ch *Channel) Hold() {
	ch.mu.Lock()
	ch.held = true
	ch.updatePassLocked()
	ch.mu.Unlock()
	ch.awaitInflight()
}

// Held reports whether the channel is currently on hold.
func (ch *Channel) Held() bool {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.held
}

// QueuedLen returns the number of events currently queued in the channel.
func (ch *Channel) QueuedLen() int {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return len(ch.queue)
}

// Resume takes the channel off hold: it first forwards all queued events,
// in both directions, in their original FIFO order, and then keeps
// forwarding events as usual. Events destined for a still-unplugged end
// remain queued.
func (ch *Channel) Resume() {
	ch.mu.Lock()
	ch.held = false
	ch.drainLocked()
}

// drainLocked flushes deliverable queued events and then republishes the
// pass-through snapshot. It is called with ch.mu held and releases it
// before returning. Delivery happens outside the lock (present may
// re-enter forward on this same channel via port graphs); while the drain
// runs, concurrent forwards append behind the queue instead of delivering
// directly, so FIFO per direction holds, and only the empty queue
// republishes the lock-free path. Maximal consecutive runs headed to the
// same end are replayed as one batch, so a batch that was buffered whole by
// a held channel leaves it whole, in order, on Resume. A second caller
// while a drain is under way returns at once: the running drain picks up
// everything queued behind it.
func (ch *Channel) drainLocked() {
	if ch.draining {
		ch.mu.Unlock()
		return
	}
	ch.draining = true
	var run []Event // drain-local scratch; reconfig path, allocation is fine
	for !ch.held && len(ch.queue) > 0 {
		// Find the first deliverable event (its destination end plugged).
		idx := -1
		for i, qe := range ch.queue {
			if ch.ends[qe.dstEnd] != nil {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		dstEnd := ch.queue[idx].dstEnd
		end := idx + 1
		for end < len(ch.queue) && ch.queue[end].dstEnd == dstEnd {
			end++
		}
		run = run[:0]
		for _, qe := range ch.queue[idx:end] {
			run = append(run, qe.event)
		}
		ch.queue = append(ch.queue[:idx:idx], ch.queue[end:]...)
		ch.queued[dstEnd] -= len(run)
		dst := ch.ends[dstEnd]
		ch.inflight.Add(1)
		ch.mu.Unlock()
		dst.deliverSlice(run, nil)
		ch.inflight.Add(-1)
		ch.mu.Lock()
	}
	ch.draining = false
	ch.updatePassLocked()
	ch.mu.Unlock()
}

// Unplug detaches the channel from endpoint half p. Events heading to the
// unplugged end are queued until a new half is plugged in. It returns an
// error if p is not a current endpoint.
func (ch *Channel) Unplug(p *Port) error {
	if p == nil {
		return fmt.Errorf("core: Unplug: nil port")
	}
	ch.mu.Lock()
	slot := -1
	for i, e := range ch.ends {
		if e != nil && e.pair == p.pair && e.face == p.face {
			slot = i
			break
		}
	}
	if slot < 0 {
		ch.mu.Unlock()
		return fmt.Errorf("core: Unplug: %s is not an endpoint of this channel", p)
	}
	ch.ends[slot] = nil
	ch.updatePassLocked()
	ch.mu.Unlock()
	ch.awaitInflight()
	p.pair.detachChannel(p.face, ch)
	return nil
}

// Plug attaches the channel's free end to half p, which must be
// complementary to the remaining endpoint, then flushes any events queued
// for that end (unless the channel is held).
func (ch *Channel) Plug(p *Port) error {
	if p == nil {
		return fmt.Errorf("core: Plug: nil port")
	}
	ch.mu.Lock()
	slot := -1
	other := -1
	for i, e := range ch.ends {
		if e == nil {
			slot = i
		} else {
			other = i
		}
	}
	if slot < 0 {
		ch.mu.Unlock()
		return fmt.Errorf("core: Plug: channel has no free end")
	}
	if other >= 0 {
		o := ch.ends[other]
		if o.Type() != p.Type() {
			ch.mu.Unlock()
			return fmt.Errorf("core: Plug: port type mismatch: %s vs %s", o, p)
		}
		if o.providerLike() == p.providerLike() {
			ch.mu.Unlock()
			return fmt.Errorf("core: Plug: ports are not complementary: %s and %s", o, p)
		}
		if o.pair == p.pair {
			ch.mu.Unlock()
			return fmt.Errorf("core: Plug: cannot connect the two halves of the same port %s", p)
		}
	} else if p.Type() != ch.typ {
		ch.mu.Unlock()
		return fmt.Errorf("core: Plug: port type mismatch: channel carries %s, port is %s", ch.typ.Name(), p)
	}
	ch.ends[slot] = p
	ch.updatePassLocked()
	p.pair.attachChannel(p.face, ch)
	ch.drainLocked()
	return nil
}

// Disconnect detaches the channel from both endpoints, dropping any queued
// events. Use Hold+Unplug+Plug+Resume to move a live channel without loss.
func (ch *Channel) Disconnect() {
	ch.mu.Lock()
	var ends [2]*Port
	copy(ends[:], ch.ends[:])
	ch.ends[0], ch.ends[1] = nil, nil
	ch.queue = nil
	ch.queued = [2]int{}
	ch.updatePassLocked()
	ch.mu.Unlock()
	for _, e := range ends {
		if e != nil {
			e.pair.detachChannel(e.face, ch)
		}
	}
}
