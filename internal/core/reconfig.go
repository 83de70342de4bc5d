package core

import "fmt"

// State transfer interfaces for component hot-swap (§2.6 of the paper: "c2
// is initialized with the state dumped by c1").

// StateDumper is implemented by component definitions whose state can be
// captured for transfer into a replacement component.
type StateDumper interface {
	DumpState() any
}

// StateLoader is implemented by component definitions that can be
// initialized from a predecessor's dumped state. LoadState runs after Setup
// and before the replacement is started.
type StateLoader interface {
	LoadState(state any)
}

// Swap replaces subcomponent old with a fresh instance of def, following
// the paper's reconfiguration recipe: every channel connected to old's
// ports (in the parent's scope) is put on hold; old is passivated and
// whatever handler it is running completes; the channels are unplugged; the
// new component is created and the channels are plugged
// into its corresponding ports and resumed; state is transferred when both
// definitions support it (old implements StateDumper, def implements
// StateLoader); the new component is started and old is destroyed.
//
// No event is dropped: events that arrive during the swap wait in the held
// channels and are delivered to the replacement, in order, on resume.
// Events already executed by old are reflected in the transferred state.
// For a fully quiescent swap, put the channels on hold and drain old before
// calling Swap; Swap itself is safe against concurrent traffic.
//
// The replacement must provide/require at least the port types old had
// channels connected to; otherwise Swap fails and the original wiring is
// restored.
func (x *Ctx) Swap(old *Component, name string, def Definition) (*Component, error) {
	if old == nil || old.parent != x.c {
		return nil, fmt.Errorf("core: Swap: %v is not a subcomponent of %s", old, x.c.Path())
	}

	var moves []movedChannel

	// 1. Hold every channel attached to old's outer halves. Hold returns
	// once nothing forwarded earlier is still on its way to old.
	old.mu.Lock()
	type portEntry struct {
		pp       *portPair
		provided bool
	}
	var entries []portEntry
	for _, pp := range old.provided {
		entries = append(entries, portEntry{pp, true})
	}
	for _, pp := range old.required {
		entries = append(entries, portEntry{pp, false})
	}
	old.mu.Unlock()

	for _, e := range entries {
		e.pp.mu.RLock()
		chans := append([]*Channel(nil), e.pp.chans[outer-1]...)
		e.pp.mu.RUnlock()
		for _, ch := range chans {
			ch.Hold()
			moves = append(moves, movedChannel{ch: ch, half: e.pp.half(outer), pt: e.pp.typ, provided: e.provided})
		}
	}

	// 2. Passivate the old component and wait out a handler it may be
	// running on another worker. Events that handler triggers still reach
	// the held channels, which are plugged into old until step 3, so they
	// queue instead of vanishing; and the state dumped below includes them.
	old.passivate()

	// 3. Unplug the held channels from old.
	for i, m := range moves {
		if err := m.ch.Unplug(m.half); err != nil {
			x.undoSwapHolds(moves[:i], moves[i:], old)
			return nil, fmt.Errorf("core: Swap: unplug: %w", err)
		}
	}

	// 4. Create the replacement and replug the channels.
	repl := x.Create(name, def)
	for _, m := range moves {
		var half *Port
		if m.provided {
			half = repl.Provided(m.pt)
		} else {
			half = repl.Required(m.pt)
		}
		if half == nil {
			x.Destroy(repl)
			x.undoSwapHolds(moves, nil, old)
			return nil, fmt.Errorf("core: Swap: replacement %s lacks %s port %s",
				name, kindWord(m.provided), m.pt.Name())
		}
		if err := m.ch.Plug(half); err != nil {
			x.Destroy(repl)
			x.undoSwapHolds(moves, nil, old)
			return nil, fmt.Errorf("core: Swap: plug: %w", err)
		}
	}

	// 5. Transfer state when supported.
	if dumper, ok := old.def.(StateDumper); ok {
		if loader, ok := repl.def.(StateLoader); ok {
			loader.LoadState(dumper.DumpState())
		}
	}

	// 6. Migrate events still queued at old (delivered before the hold but
	// not yet executed) to the replacement's corresponding ports, in FIFO
	// order. The replacement is still passive, so migrated events land in
	// its queue ahead of the channel flush from Resume — preserving the
	// original delivery order end to end.
	for _, it := range old.stealMainQueue() {
		if it.via == nil || it.via.pair.owner != old {
			continue // event for a port of old's (doomed) subtree
		}
		var np *Port
		if it.via.pair.provided {
			np = repl.Provided(it.via.pair.typ)
		} else {
			np = repl.Required(it.via.pair.typ)
		}
		if np == nil {
			continue
		}
		// Re-present at the half opposite the one the event had crossed
		// into, so it crosses into the same-role half of the replacement.
		np.pair.half(it.via.face.twin()).present(it.event)
	}

	// 7. Resume traffic (flushes events queued during the swap, FIFO),
	// start the replacement, destroy the old component.
	for _, m := range moves {
		m.ch.Resume()
	}
	x.Start(repl)
	old.destroy()
	return repl, nil
}

// movedChannel records one channel detached from the component being
// swapped out, so it can be replugged into the replacement (or back into
// the original on failure).
type movedChannel struct {
	ch       *Channel
	half     *Port // old's outer half the channel was attached to
	pt       *PortType
	provided bool
}

// undoSwapHolds replugs the unplugged channels back into old, resumes
// them and the merely held ones, and reactivates old, restoring the
// pre-Swap state after a failure. (Presenting Start to an already-active
// component is a no-op.)
func (x *Ctx) undoSwapHolds(unplugged, held []movedChannel, old *Component) {
	for _, m := range unplugged {
		var half *Port
		if m.provided {
			half = old.Provided(m.pt)
		} else {
			half = old.Required(m.pt)
		}
		if half != nil {
			_ = m.ch.Plug(half)
		}
		m.ch.Resume()
	}
	for _, m := range held {
		m.ch.Resume()
	}
	old.Control().present(Start{})
}

func kindWord(provided bool) string {
	if provided {
		return "provided"
	}
	return "required"
}
