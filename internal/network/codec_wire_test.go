package network

import (
	"bytes"
	"strings"
	"testing"
)

// wireBlob is a test-only wire type: tag 0xEE, a header plus an opaque
// byte payload. It keeps the codec's protocol-independent machinery
// testable inside this package, without reaching into abd/handoff.
type wireBlob struct {
	Header
	Seq  int
	Data []byte
}

const wireTagBlob byte = 0xEE

func (m wireBlob) WireTag() byte { return wireTagBlob }

func (m wireBlob) AppendWire(dst []byte) []byte {
	dst = AppendHeader(dst, m.Header)
	dst = AppendI64(dst, int64(m.Seq))
	return AppendBytes(dst, m.Data)
}

func decodeWireBlob(r *WireReader) Message {
	var m wireBlob
	m.Header = r.Header()
	m.Seq = int(r.I64())
	m.Data = r.Bytes()
	return m
}

func init() {
	RegisterWire(wireTagBlob, "test.blob", decodeWireBlob)
}

// TestCodecRegistry pins the wire-tag registry: registered tags are listed
// with their names, and registering a tag twice panics, because a tag is
// wire protocol and must be unambiguous.
func TestCodecRegistry(t *testing.T) {
	tags := WireTags()
	for tag, name := range map[byte]string{wireTagBlob: "test.blob", wireTagHello: "test.hello", wireTagData: "test.data"} {
		if tags[tag] != name {
			t.Fatalf("tag 0x%02x listed as %q, want %q", tag, tags[tag], name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate wire tag registration did not panic")
		}
	}()
	RegisterWire(wireTagBlob, "test.dup", decodeWireBlob)
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	m := wireBlob{Header: NewHeader(addr(1), addr(2)), Data: []byte("payload bytes")}
	payload, err := Codec{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] != wireTagBlob {
		t.Fatalf("payload starts with 0x%02x, want the wire tag", payload[0])
	}
	got, err := DecodePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	gb := got.(wireBlob)
	if gb.Src != m.Src || gb.Dst != m.Dst || !bytes.Equal(gb.Data, m.Data) {
		t.Fatalf("round trip mismatch: %+v != %+v", gb, m)
	}
}

// TestBinaryCodecFallback pins that there is no fallback format: a type
// without a wire tag is refused with an error, counted in the
// codec-fallback counter, and leaves the destination buffer untouched.
func TestBinaryCodecFallback(t *testing.T) {
	type untagged struct{ Header }
	before := GlobalMetrics().CodecFallbacks
	dst := []byte{1, 2, 3}
	out, err := Codec{}.EncodeAppend(dst, untagged{Header: NewHeader(addr(1), addr(2))})
	if err == nil {
		t.Fatal("untagged type encoded")
	}
	if !bytes.Equal(out, dst) {
		t.Fatalf("refused encode changed the buffer: %x", out)
	}
	if GlobalMetrics().CodecFallbacks != before+1 {
		t.Fatal("refused encode not counted")
	}
}

// TestCodecCrossDecode pins that every path through the one wire format
// agrees: what the TCP transport's codec encodes, DecodePayload and the
// codec's own Decode read back, for every test message type.
func TestCodecCrossDecode(t *testing.T) {
	msgs := []Message{
		hello{Header: NewHeader(addr(1), addr(2)), Greeting: "hi"},
		data{Header: NewHeader(addr(1), addr(2)), Seq: -3, Payload: []byte{4}},
		wireBlob{Header: NewHeader(addr(1), addr(2)), Data: []byte{1, 2, 3}},
	}
	c := NewTCP(addr(1)).PeerCodec(addr(2))
	for _, m := range msgs {
		payload, err := c.Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		for _, dec := range []func([]byte) (Message, error){DecodePayload, c.Decode} {
			got, err := dec(payload)
			if err != nil {
				t.Fatalf("%T payload undecodable: %v", m, err)
			}
			if got.Destination() != m.Destination() {
				t.Fatalf("round trip mismatch: %+v != %+v", got, m)
			}
		}
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"empty", nil, "empty"},
		{"tag only", []byte{wireTagBlob}, "truncated"},
		{"unknown tag", []byte{0x7f}, "unknown wire tag"},
		{"truncated body", []byte{wireTagBlob, 0, 0}, "truncated"},
	}
	for _, tc := range cases {
		if _, err := DecodePayload(tc.payload); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// Trailing bytes after a valid body must be rejected, not ignored: they
	// would mean encoder/decoder disagreement on the wire layout.
	good, err := Codec{}.Encode(wireBlob{Header: NewHeader(addr(1), addr(2))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayload(append(good, 0x00)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: err = %v", err)
	}
}

// TestWireReaderBounds pins the latching out-of-bounds behavior every
// registered decoder relies on: reads past the end return zero values and
// Err() reports the first violation.
func TestWireReaderBounds(t *testing.T) {
	r := NewWireReader([]byte{0x01, 0x02})
	if v := r.U16(); v != 0x0102 {
		t.Fatalf("U16 = %#x", v)
	}
	if v := r.U64(); v != 0 {
		t.Fatalf("out-of-bounds U64 = %d, want 0", v)
	}
	if r.Err() == nil {
		t.Fatal("bounds violation not latched")
	}
	if s := r.String(); s != "" {
		t.Fatalf("post-error String = %q", s)
	}

	// A length prefix promising more bytes than remain must fail, not
	// allocate or alias past the buffer.
	r2 := NewWireReader([]byte{0xff, 0xff, 0xff, 0xff})
	if b := r2.Bytes(); b != nil || r2.Err() == nil {
		t.Fatalf("oversized length prefix: bytes=%v err=%v", b, r2.Err())
	}
}

// TestBinaryEncodeZeroAlloc is the steady-state allocation gate for the
// binary encode path: appending into a recycled buffer must not allocate.
// CI runs every *ZeroAlloc* test with GC pacing that flags regressions.
func TestBinaryEncodeZeroAlloc(t *testing.T) {
	// Box the message once, as the transport's send path does — it receives
	// an already-boxed Message, so per-call interface conversion is not part
	// of the steady state being gated.
	var m Message = wireBlob{Header: NewHeader(addr(1), addr(2)), Data: bytes.Repeat([]byte{0xab}, 512)}
	buf := make([]byte, 0, 4096)
	var c Codec
	allocs := testing.AllocsPerRun(200, func() {
		out, err := c.EncodeAppend(buf[:0], m)
		if err != nil || len(out) == 0 {
			t.Fatal("encode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("binary encode allocates %.1f/op, want 0", allocs)
	}
}

// TestBinaryDecodeZeroAlloc gates the decode hot path: reading a binary
// body back through WireReader primitives into an existing struct must not
// allocate — Bytes and String alias the payload (zero-copy).
func TestBinaryDecodeZeroAlloc(t *testing.T) {
	payload, err := Codec{}.Encode(wireBlob{
		Header: NewHeader(addr(1), addr(2)),
		Data:   bytes.Repeat([]byte{0xcd}, 512),
	})
	if err != nil {
		t.Fatal(err)
	}
	var m wireBlob
	allocs := testing.AllocsPerRun(200, func() {
		r := NewWireReader(payload[1:])
		m.Header = r.Header()
		m.Seq = int(r.I64())
		m.Data = r.Bytes()
		if r.Err() != nil || r.Len() != 0 {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("binary field decode allocates %.1f/op, want 0", allocs)
	}
	if len(m.Data) != 512 || &m.Data[0] != &payload[len(payload)-512] {
		t.Fatal("decoded data does not alias the payload")
	}
}

// TestBinaryFullDecodeAllocs bounds the whole DecodePayload path for a
// wire type: boxing the decoded message into the Message interface,
// plus the WireReader header escaping through the indirect decoder call.
// Both are constant per frame — no per-field or per-byte allocations.
func TestBinaryFullDecodeAllocs(t *testing.T) {
	payload, err := Codec{}.Encode(wireBlob{
		Header: NewHeader(addr(1), addr(2)),
		Data:   bytes.Repeat([]byte{0xef}, 256),
	})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodePayload(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("full binary decode allocates %.1f/op, want <= 2", allocs)
	}
}
