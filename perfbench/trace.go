package main

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/timer"
)

// The traced run records spans in memory from the benchmark's own tap
// components: one per message crossing the Network port (sender's tap to
// receiver's tap) and one per one-shot timer request (request to firing or
// cancel). Op spans come from the load loop's own records. Spans of one op
// share the op's index: a wire span is attributed to the ops whose ABD
// phases the message carries.

type spanKind uint8

const (
	spanWire spanKind = iota
	spanTimer
)

// span is one recorded interval, in nanoseconds since the tracer's epoch
// on the runtime's clock (virtual time under simulation).
type span struct {
	kind       spanKind
	start, end int64
	opLo, opHi int32 // tracer.spanOps[opLo:opHi] are the ops it served
	label      string
	fired      bool // timer spans: fired (true) or cancelled
}

// bgWire aggregates the wire spans of background messages (failure
// detector, ring, overlay): kept as counts and summed durations, since on
// the simulated workload they number about seventy per op.
type bgWire struct {
	n   int
	sum int64
}

type pendingSend struct {
	at         int64
	opLo, opHi int32
	label      string
}

type link struct{ src, dst network.Address }

type opKey struct {
	coord network.Address
	key   string
}

type abdKey struct {
	coord network.Address
	id    uint64
}

type pendingTimer struct {
	at    int64
	label string
}

// tracer is shared by every tap of one traced cluster.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu       sync.Mutex
	waiting  map[opKey][]int32 // issued ops whose first ABD phase is not yet on the wire
	abdOps   map[abdKey]int32  // coordinator's ABD op ID → benchmark op
	inFlight map[link][]pendingSend
	timers   map[timer.ID]pendingTimer
	spans    []span
	spanOps  []int32
	bg       map[string]*bgWire // wire spans serving no op, by message type
	captured []network.Message

	msgs, unmatched       uint64
	timerReqs, periodReqs uint64
}

// captureEvery and captureMax bound the message mix kept for the codec
// replay: every 4th message sent while tracing, at most 4096.
const (
	captureEvery = 4
	captureMax   = 4096
)

func newTracer(epoch time.Time) *tracer {
	return &tracer{
		epoch:    epoch,
		waiting:  make(map[opKey][]int32),
		abdOps:   make(map[abdKey]int32),
		inFlight: make(map[link][]pendingSend),
		timers:   make(map[timer.ID]pendingTimer),
		bg:       make(map[string]*bgWire),
	}
}

// opIssued notes that op was triggered at coord for key, so the first ABD
// phase carrying (coord, key) can be attributed to it.
func (t *tracer) opIssued(op int32, coord network.Address, key string) {
	if !t.on.Load() {
		return
	}
	k := opKey{coord, key}
	t.mu.Lock()
	t.waiting[k] = append(t.waiting[k], op)
	t.mu.Unlock()
}

// phaseRef is one ABD phase a message carries: the coordinator's op ID
// and, on requests, the key.
type phaseRef struct {
	id     uint64
	key    string
	hasKey bool
}

// msgInfo caches, per message type, where its ABD phase fields sit.
type msgInfo struct {
	name   string
	opID   []int // field index of OpID, nil if absent
	key    []int
	slices [][]int // slice fields of structs carrying OpID
	elemID map[int][]int
	elemK  map[int][]int
}

var msgInfos sync.Map // reflect.Type → *msgInfo

func infoOf(typ reflect.Type) *msgInfo {
	if v, ok := msgInfos.Load(typ); ok {
		return v.(*msgInfo)
	}
	mi := &msgInfo{name: typ.String(), elemID: map[int][]int{}, elemK: map[int][]int{}}
	if typ.Kind() == reflect.Struct {
		if f, ok := typ.FieldByName("OpID"); ok && f.Type.Kind() == reflect.Uint64 {
			mi.opID = f.Index
			if k, ok := typ.FieldByName("Key"); ok && k.Type.Kind() == reflect.String {
				mi.key = k.Index
			}
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Type.Kind() != reflect.Slice || f.Type.Elem().Kind() != reflect.Struct {
				continue
			}
			el := f.Type.Elem()
			id, ok := el.FieldByName("OpID")
			if !ok || id.Type.Kind() != reflect.Uint64 {
				continue
			}
			n := len(mi.slices)
			mi.slices = append(mi.slices, f.Index)
			mi.elemID[n] = id.Index
			if k, ok := el.FieldByName("Key"); ok && k.Type.Kind() == reflect.String {
				mi.elemK[n] = k.Index
			}
		}
	}
	msgInfos.Store(typ, mi)
	return mi
}

// phases lists the ABD phases m carries.
func phases(mi *msgInfo, m network.Message) []phaseRef {
	if mi.opID == nil && len(mi.slices) == 0 {
		return nil
	}
	v := reflect.ValueOf(m)
	var out []phaseRef
	if mi.opID != nil {
		p := phaseRef{id: v.FieldByIndex(mi.opID).Uint()}
		if mi.key != nil {
			p.key, p.hasKey = v.FieldByIndex(mi.key).String(), true
		}
		out = append(out, p)
	}
	for n, idx := range mi.slices {
		sl := v.FieldByIndex(idx)
		for i := 0; i < sl.Len(); i++ {
			e := sl.Index(i)
			p := phaseRef{id: e.FieldByIndex(mi.elemID[n]).Uint()}
			if k, ok := mi.elemK[n]; ok {
				p.key, p.hasKey = e.FieldByIndex(k).String(), true
			}
			out = append(out, p)
		}
	}
	return out
}

// sent records a message leaving a node's Network port.
func (t *tracer) sent(now time.Time, m network.Message) {
	if !t.on.Load() {
		return
	}
	mi := infoOf(reflect.TypeOf(m))
	ps := phases(mi, m)
	at := int64(now.Sub(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.msgs++
	if t.msgs%captureEvery == 0 && len(t.captured) < captureMax {
		t.captured = append(t.captured, m)
	}
	lo := int32(len(t.spanOps))
	for _, p := range ps {
		// Requests carry the key and travel from the coordinator;
		// acks and nacks travel back to it.
		coord := m.Destination()
		if p.hasKey {
			coord = m.Source()
		}
		ak := abdKey{coord, p.id}
		op, ok := t.abdOps[ak]
		if !ok && p.hasKey {
			k := opKey{coord, p.key}
			if q := t.waiting[k]; len(q) > 0 {
				op, ok = q[0], true
				t.waiting[k] = q[1:]
				t.abdOps[ak] = op
			}
		}
		if ok {
			t.spanOps = append(t.spanOps, op)
		}
	}
	l := link{m.Source(), m.Destination()}
	t.inFlight[l] = append(t.inFlight[l], pendingSend{at: at, opLo: lo, opHi: int32(len(t.spanOps)), label: mi.name})
}

// received closes the span of the oldest message in flight on its link:
// each transport delivers one sender's messages to one receiver in order.
func (t *tracer) received(now time.Time, m network.Message) {
	if !t.on.Load() {
		return
	}
	at := int64(now.Sub(t.epoch))
	l := link{m.Source(), m.Destination()}
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.inFlight[l]
	if len(q) == 0 {
		t.unmatched++
		return
	}
	p := q[0]
	t.inFlight[l] = q[1:]
	if p.opHi == p.opLo {
		b := t.bg[p.label]
		if b == nil {
			b = &bgWire{}
			t.bg[p.label] = b
		}
		b.n++
		b.sum += at - p.at
		return
	}
	t.spans = append(t.spans, span{kind: spanWire, start: p.at, end: at, opLo: p.opLo, opHi: p.opHi, label: p.label})
}

func (t *tracer) timerScheduled(now time.Time, id timer.ID, label string) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.timerReqs++
	t.timers[id] = pendingTimer{at: int64(now.Sub(t.epoch)), label: label}
	t.mu.Unlock()
}

func (t *tracer) timerPeriodic() {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.periodReqs++
	t.mu.Unlock()
}

func (t *tracer) timerEnded(now time.Time, id timer.ID, fired bool) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	if p, ok := t.timers[id]; ok {
		delete(t.timers, id)
		t.spans = append(t.spans, span{kind: spanTimer, start: p.at, end: int64(now.Sub(t.epoch)), label: p.label, fired: fired})
	}
	t.mu.Unlock()
}

// netTap sits between a node and its transport on the Network port and
// forwards every event unchanged, recording sends and receipts.
type netTap struct {
	tr *tracer
}

func (n *netTap) Setup(ctx *core.Ctx) {
	up := ctx.Provides(network.PortType)
	down := ctx.Requires(network.PortType)
	core.Subscribe(ctx, up, func(m network.Message) {
		n.tr.sent(ctx.Now(), m)
		ctx.Trigger(m, down)
	})
	core.Subscribe(ctx, down, func(m network.Message) {
		n.tr.received(ctx.Now(), m)
		ctx.Trigger(m, up)
	})
	core.Subscribe(ctx, down, func(s network.PeerStatus) { ctx.Trigger(s, up) })
}

// timerTap sits between a node and its timer on the Timer port.
type timerTap struct {
	tr *tracer
}

func (tt *timerTap) Setup(ctx *core.Ctx) {
	up := ctx.Provides(timer.PortType)
	down := ctx.Requires(timer.PortType)
	core.Subscribe(ctx, up, func(r timer.ScheduleTimeout) {
		tt.tr.timerScheduled(ctx.Now(), r.Timeout.TimeoutID(), reflect.TypeOf(r.Timeout).String())
		ctx.Trigger(r, down)
	})
	core.Subscribe(ctx, up, func(r timer.SchedulePeriodic) {
		tt.tr.timerPeriodic()
		ctx.Trigger(r, down)
	})
	core.Subscribe(ctx, up, func(r timer.CancelTimeout) {
		tt.tr.timerEnded(ctx.Now(), r.ID, false)
		ctx.Trigger(r, down)
	})
	core.Subscribe(ctx, up, func(r timer.CancelPeriodic) { ctx.Trigger(r, down) })
	core.Subscribe(ctx, down, func(e timer.TimeoutEvent) {
		tt.tr.timerEnded(ctx.Now(), e.TimeoutID(), true)
		ctx.Trigger(e, up)
	})
}

// opSpan is one op as the load loop saw it, from trigger to answer.
type opSpan struct {
	op         int32
	start, end int64
	label      string
}

// spanSummary is the traced run's per-layer self time, counts and ratios.
type spanSummary struct {
	ops            int
	opMeanUS       float64
	opSelfUS       float64 // op span minus the part its wire spans cover
	wireCoverUS    float64 // per op: the part of it covered by wire spans
	wireSpans      int
	wireMeanUS     float64
	wireAttributed int // wire spans serving at least one op
	timerSpans     int
	timerFired     int
	timerMeanUS    float64
}

// summarize computes self times. The tracer must be quiescent.
func (t *tracer) summarize(ops []opSpan) spanSummary {
	var s spanSummary
	children := make(map[int32][]int)
	var wireSum, timerSum float64
	for i, sp := range t.spans {
		switch sp.kind {
		case spanWire:
			s.wireSpans++
			wireSum += float64(sp.end - sp.start)
			if sp.opHi > sp.opLo {
				s.wireAttributed++
			}
			for _, op := range t.spanOps[sp.opLo:sp.opHi] {
				children[op] = append(children[op], i)
			}
		case spanTimer:
			s.timerSpans++
			timerSum += float64(sp.end - sp.start)
			if sp.fired {
				s.timerFired++
			}
		}
	}
	for _, b := range t.bg {
		s.wireSpans += b.n
		wireSum += float64(b.sum)
	}
	if s.wireSpans > 0 {
		s.wireMeanUS = wireSum / float64(s.wireSpans) / 1e3
	}
	if s.timerSpans > 0 {
		s.timerMeanUS = timerSum / float64(s.timerSpans) / 1e3
	}
	var durSum, selfSum, coverSum float64
	for _, o := range ops {
		if o.end <= o.start {
			continue
		}
		s.ops++
		cover := covered(o.start, o.end, children[o.op], t.spans)
		durSum += float64(o.end - o.start)
		coverSum += float64(cover)
		selfSum += float64(o.end - o.start - cover)
	}
	if s.ops > 0 {
		n := float64(s.ops) * 1e3
		s.opMeanUS, s.opSelfUS, s.wireCoverUS = durSum/n, selfSum/n, coverSum/n
	}
	return s
}

// covered returns how much of [lo, hi) the union of the given spans covers.
func covered(lo, hi int64, idx []int, spans []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, i := range idx {
		a, b := max(spans[i].start, lo), min(spans[i].end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	first := true
	for _, x := range ivs {
		switch {
		case first:
			curA, curB, first = x.a, x.b, false
		case x.a > curB:
			sum += curB - curA
			curA, curB = x.a, x.b
		case x.b > curB:
			curB = x.b
		}
	}
	if !first {
		sum += curB - curA
	}
	return sum
}

// writeSpans writes every span as CSV: kind, start_ns, end_ns, label,
// ops (space-separated op indices). Background wire spans are written as
// one "wire-background" line per message type, with the count in start_ns
// and the summed duration in end_ns.
func (t *tracer) writeSpans(path string, ops []opSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,start_ns,end_ns,label,ops")
	for _, o := range ops {
		fmt.Fprintf(w, "op,%d,%d,%s,%d\n", o.start, o.end, o.label, o.op)
	}
	for _, sp := range t.spans {
		kind, label := "wire", sp.label
		if sp.kind == spanTimer {
			kind = "timer"
			if sp.fired {
				label += " fired"
			} else {
				label += " cancelled"
			}
		}
		fmt.Fprintf(w, "%s,%d,%d,%s,", kind, sp.start, sp.end, label)
		for i, op := range t.spanOps[sp.opLo:sp.opHi] {
			if i > 0 {
				w.WriteByte(' ')
			}
			fmt.Fprint(w, op)
		}
		w.WriteByte('\n')
	}
	labels := make([]string, 0, len(t.bg))
	for l := range t.bg {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(w, "wire-background,%d,%d,%s,\n", t.bg[l].n, t.bg[l].sum, l)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
