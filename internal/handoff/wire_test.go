package handoff

import (
	"bytes"
	"testing"

	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/network/wiretest"
	"repro/internal/tracing"
)

func wireHeader() network.Header {
	return network.NewHeader(
		network.Address{Host: "10.0.0.1", Port: 7000},
		network.Address{Host: "10.0.0.2", Port: 7001},
	)
}

// TestHandoffWireRoundTrip holds the handoff chunk messages, edge cases
// included, to the wire contract (see wiretest.Check).
func TestHandoffWireRoundTrip(t *testing.T) {
	wiretest.Check(t, "handoff.", wireSamples()...)
}

// TestHandoffWireCorruptCount pins the item-count guard against frames
// promising more entries than the body holds.
func TestHandoffWireCorruptCount(t *testing.T) {
	payload, err := (network.Codec{}).Encode(itemsMsg{Header: wireHeader(), Epoch: 1, Round: 1})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), payload...)
	// Tail layout of an empty itemsMsg: count u32 + done bool + push bool.
	n := len(corrupt)
	corrupt[n-6], corrupt[n-5], corrupt[n-4], corrupt[n-3] = 0xff, 0xff, 0xff, 0xff
	if _, err := network.DecodePayload(corrupt); err == nil {
		t.Fatal("corrupt item count decoded")
	}
}

// TestHandoffWireEncodeZeroAlloc gates the chunk transfer path: encoding
// an items frame into a recycled buffer must not allocate, regardless of
// entry count.
func TestHandoffWireEncodeZeroAlloc(t *testing.T) {
	items := make([]kvstore.Entry, 32)
	for i := range items {
		items[i] = kvstore.Entry{Key: "key", Version: kvstore.Version{Seq: uint64(i)}, Value: make([]byte, 128)}
	}
	var m network.Message = itemsMsg{Header: wireHeader(), Epoch: 1, Round: 1, Items: items, Done: true}
	buf := make([]byte, 0, 16384)
	var c network.Codec
	allocs := testing.AllocsPerRun(100, func() {
		out, err := c.EncodeAppend(buf[:0], m)
		if err != nil || len(out) == 0 {
			t.Fatal("encode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("handoff wire encode allocates %.1f/op, want 0", allocs)
	}
}

// wireSamples is at least one message per handoff wire tag, with edge
// cases: an empty key with a nil value, a chunk with no items.
func wireSamples() []network.WireMessage {
	tc := tracing.Context{TraceID: 5, SpanID: 6}
	ref := ident.NodeRef{Key: ident.Key(0xabc), Addr: network.Address{Host: "10.0.0.3", Port: 7002}}
	return []network.WireMessage{
		pullReqMsg{Header: wireHeader(), Context: tc, Epoch: 3, Round: 11, Requester: ref},
		itemsMsg{
			Header: wireHeader(), Context: tc, Epoch: 3, Round: 11,
			Items: []kvstore.Entry{
				{Key: "a", Version: kvstore.Version{Seq: 1, Writer: 2}, Value: []byte("one")},
				{Key: "", Version: kvstore.Version{Seq: 9}}, // empty key, nil value
			},
			Done: true,
		},
		itemsMsg{Header: wireHeader(), Epoch: 3, Round: 12, Push: true}, // no items
	}
}

func FuzzHandoffWire(f *testing.F) {
	wiretest.Seed(f, wireSamples()...)
	f.Fuzz(wiretest.Fuzz)
}

// TestDecodedItemsOwnTheirBytes pins that transferred items do not alias
// the chunk frame: after the frame is overwritten, the items applied to a
// store are unchanged, and the requester's host (kept in the pull state)
// too.
func TestDecodedItemsOwnTheirBytes(t *testing.T) {
	items := []kvstore.Entry{
		{Key: "k1", Version: kvstore.Version{Seq: 1}, Value: []byte("v1")},
		{Key: "k2", Version: kvstore.Version{Seq: 2}, Value: []byte("v2")},
	}
	ref := ident.NodeRef{Key: 1, Addr: network.Address{Host: "10.0.0.3", Port: 7002}}
	var frames [][]byte
	decode := func(m network.Message) network.Message {
		payload, err := network.Codec{}.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, payload)
		got, err := network.DecodePayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	chunk := decode(itemsMsg{Header: wireHeader(), Items: items}).(itemsMsg)
	req := decode(pullReqMsg{Header: wireHeader(), Requester: ref}).(pullReqMsg)
	store := kvstore.New()
	for _, e := range chunk.Items {
		if _, err := store.ApplyDurable(e.Key, e.Version, e.Value); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range frames {
		for i := range f {
			f[i] = 0xAA
		}
	}
	for _, e := range items {
		if _, v, ok := store.Read(e.Key); !ok || !bytes.Equal(v, e.Value) {
			t.Fatalf("stored %q = %q (found %v) after the frame was overwritten", e.Key, v, ok)
		}
	}
	if req.Requester != ref {
		t.Fatalf("requester %v after the frame was overwritten, want %v", req.Requester, ref)
	}
}
