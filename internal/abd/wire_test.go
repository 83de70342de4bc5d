package abd

import (
	"fmt"
	"testing"
	"time"

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

// TestABDWireRoundTrip holds every ABD quorum message, edge cases
// included, to the wire contract: field-exact round trip (AppendWire and
// the registered decoder are exact inverses), an error at every
// truncation, corrupt counts rejected before allocation, and 0 allocs/op
// encode. Every ABD wire tag must have a sample.
func TestABDWireRoundTrip(t *testing.T) {
	wiretest.Check(t, "abd.", wireSamples()...)
}

// TestABDWireCorruptCounts pins the count guards: a batch frame whose
// element count promises more entries than the body holds must error out
// before any allocation sized by that count.
func TestABDWireCorruptCounts(t *testing.T) {
	payload, err := (network.Codec{}).Encode(opBatchMsg{Header: wireHeader()})
	if err != nil {
		t.Fatal(err)
	}
	// The reads count is the u32 right after tag+header+trace. Corrupt
	// it to a huge value and decoding must fail cleanly.
	corrupt := append([]byte(nil), payload...)
	n := len(corrupt)
	// Empty batch tail: reads count u32 + writes count u32 are the last 8.
	corrupt[n-8], corrupt[n-7], corrupt[n-6], corrupt[n-5] = 0xff, 0xff, 0xff, 0xff
	if _, err := network.DecodePayload(corrupt); err == nil {
		t.Fatal("corrupt batch count decoded")
	}
	corrupt2 := append([]byte(nil), payload...)
	corrupt2[n-4], corrupt2[n-3], corrupt2[n-2], corrupt2[n-1] = 0xff, 0xff, 0xff, 0xff
	if _, err := network.DecodePayload(corrupt2); err == nil {
		t.Fatal("corrupt write count decoded")
	}
}

// TestABDWireEncodeZeroAlloc gates the quorum hot path: encoding a
// one-phase read or write frame and its reply into a recycled buffer must
// not allocate.
func TestABDWireEncodeZeroAlloc(t *testing.T) {
	msgs := []network.Message{
		opBatchMsg{Header: wireHeader(), Reads: []readPhase{{OpID: 1, Attempt: 1, Epoch: 2, Key: "k"}}},
		opBatchAckMsg{Header: wireHeader(), ReadAcks: []readAckEntry{{OpID: 1, Version: kvstore.Version{Seq: 1}, Value: make([]byte, 256), Found: true}}},
		opBatchMsg{Header: wireHeader(), Writes: []writePhase{{OpID: 2, Key: "k", Value: make([]byte, 256)}}},
		opBatchAckMsg{Header: wireHeader(), WriteAcks: []writeAckEntry{{OpID: 2}}},
	}
	buf := make([]byte, 0, 4096)
	var c network.Codec
	allocs := testing.AllocsPerRun(200, func() {
		for _, m := range msgs {
			out, err := c.EncodeAppend(buf[:0], m)
			if err != nil || len(out) == 0 {
				t.Fatal("encode failed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ABD wire encode allocates %.1f/op, want 0", allocs)
	}
}

// wireSamples is at least one message per ABD wire tag, with edge cases:
// empty values stay nil, empty batches carry no slices, one-phase frames
// (most of the traffic) and replies of nacks only or of every entry kind.
func wireSamples() []network.WireMessage {
	tc := tracing.Context{TraceID: 0xfeed, SpanID: 0xbeef}
	ver := kvstore.Version{Seq: 42, Writer: 7}
	return []network.WireMessage{
		opBatchMsg{
			Header: wireHeader(), Context: tc,
			Reads: []readPhase{
				{Context: tc, OpID: 7, Attempt: 1, Epoch: 9, Key: "g1"},
				{OpID: 8, Epoch: 9, Key: ""},
			},
			Writes: []writePhase{
				{Context: tc, OpID: 9, Attempt: 2, Epoch: 9, Key: "p1", Version: ver, Value: []byte("vv")},
			},
		},
		opBatchMsg{Header: wireHeader(), Context: tc}, // empty batch
		opBatchAckMsg{
			Header: wireHeader(), Epoch: 9,
			ReadAcks: []readAckEntry{
				{OpID: 7, Attempt: 1, Version: ver, Value: []byte("x"), Found: true},
				{OpID: 8, Found: false},
			},
			WriteAcks: []writeAckEntry{{OpID: 9, Attempt: 2}},
			Nacks:     []nackEntry{{OpID: 10, Attempt: 1, Epoch: 8}},
		},
		opBatchMsg{Header: wireHeader(), Context: tc, Reads: []readPhase{{Context: tc, OpID: 1, Attempt: 3, Epoch: 9, Key: "alpha"}}},
		opBatchMsg{Header: wireHeader(), Writes: []writePhase{{OpID: 4, Attempt: 2, Epoch: 9, Key: "beta", Version: ver, Value: []byte("payload")}}},
		opBatchAckMsg{Header: wireHeader(), Epoch: 9, ReadAcks: []readAckEntry{{OpID: 2, Attempt: 1, Version: ver, Value: []byte("v"), Found: true}}},
		opBatchAckMsg{Header: wireHeader(), Epoch: 9, ReadAcks: []readAckEntry{{OpID: 3}}}, // empty value stays nil
		opBatchAckMsg{Header: wireHeader(), Epoch: 9, WriteAcks: []writeAckEntry{{OpID: 5, Attempt: 1}}},
		opBatchAckMsg{Header: wireHeader(), Epoch: 9, Nacks: []nackEntry{ // nacks only
			{OpID: 6, Attempt: 4, Epoch: 9, Busy: true, RetryAfter: 250 * time.Millisecond},
			{OpID: 11, Attempt: 1, Epoch: 9, Busy: true},
			{OpID: 12, Attempt: 2, Epoch: 9},
		}},
	}
}

func FuzzABDWire(f *testing.F) {
	wiretest.Seed(f, wireSamples()...)
	f.Fuzz(wiretest.Fuzz)
}

// TestDecodedWritesOwnTheirBytes pins that what a replica stores and what
// a coordinator returns does not alias the inbound frame: after the frame
// buffer is overwritten, the stored keys and values and the read-ack
// values are unchanged. An aliased record would also pin the whole frame,
// and with it every other op of its batch, for as long as it is stored.
func TestDecodedWritesOwnTheirBytes(t *testing.T) {
	ver := kvstore.Version{Seq: 1, Writer: 1}
	writes := []network.Message{
		opBatchMsg{Header: wireHeader(), Writes: []writePhase{{OpID: 1, Key: "single", Version: ver, Value: []byte("value-0")}}},
		opBatchMsg{Header: wireHeader(), Writes: []writePhase{
			{OpID: 2, Key: "batched-1", Version: ver, Value: []byte("value-1")},
			{OpID: 3, Key: "batched-2", Version: ver, Value: []byte("value-2")},
		}},
	}
	acks := []network.Message{
		opBatchAckMsg{Header: wireHeader(), ReadAcks: []readAckEntry{{OpID: 4, Version: ver, Value: []byte("ack-0"), Found: true}}},
		opBatchAckMsg{Header: wireHeader(), ReadAcks: []readAckEntry{{OpID: 5, Version: ver, Value: []byte("ack-1"), Found: true}}},
	}
	store := kvstore.New()
	want := map[string]string{}
	var kept [][]byte
	var frames [][]byte
	for _, m := range append(writes, acks...) {
		payload, err := network.Codec{}.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, payload)
		got, err := network.DecodePayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		switch d := got.(type) {
		case opBatchMsg:
			for _, p := range d.Writes {
				want[p.Key] = string(p.Value)
				if _, err := store.ApplyDurable(p.Key, p.Version, p.Value); err != nil {
					t.Fatal(err)
				}
			}
		case opBatchAckMsg:
			kept = append(kept, d.ReadAcks[0].Value)
		}
	}
	for _, f := range frames {
		for i := range f {
			f[i] = 0xAA
		}
	}
	for key, value := range want {
		_, got, ok := store.Read(key)
		if !ok || string(got) != value {
			t.Fatalf("stored %q = %q (found %v) after the frame was overwritten, want %q", key, got, ok, value)
		}
	}
	if len(store.Keys()) != len(want) {
		t.Fatalf("store keys %q changed with the frame", store.Keys())
	}
	for i, v := range kept {
		if want := fmt.Sprintf("ack-%d", i); string(v) != want {
			t.Fatalf("read-ack value %d = %q after the frame was overwritten, want %q", i, v, want)
		}
	}
}
