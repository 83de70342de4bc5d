package network

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/tracing"
)

// Codec is the wire codec: a registered-type binary format, the role Kryo
// plays in the paper. Every message type that crosses a serializing
// transport implements WireMessage and marshals itself with the Append*
// primitives below — no reflection, no type descriptors. A payload is the
// type's wire tag byte followed by its body. Encode appends into the
// caller's recycled buffer and allocates nothing; decode aliases the
// inbound payload (zero-copy keys and values), so decoders copy exactly
// the bytes a handler retains past its own run (see OwnedString). A type
// without a registered tag cannot be encoded: the encode fails, counted
// in the codec-fallback counter, and is never silently re-routed through
// another format. The zero value is ready to use.
type Codec struct{}

// WireMessage is implemented by every message type that crosses the wire.
// AppendWire appends the message body (no tag) to dst and returns the
// extended slice; it must be the exact inverse of the decoder registered
// for WireTag.
type WireMessage interface {
	Message
	// WireTag identifies the concrete type on the wire.
	WireTag() byte
	// AppendWire appends the binary body to dst.
	AppendWire(dst []byte) []byte
}

// WireDecoder deserializes one binary body (positioned after the tag
// byte) back into its concrete message. A decoder reports malformed input
// through the reader: out-of-bounds reads and corrupt counts latch r.Err,
// which DecodePayload checks once the decoder returns.
type WireDecoder func(r *WireReader) Message

// wireDecoders is the tag→decoder table. Registration happens in package
// inits (RegisterWire panics on duplicates); lookups are lock-free array
// indexing on the decode hot path.
var (
	wireRegMu    sync.Mutex
	wireDecoders [256]WireDecoder
	wireNames    [256]string
)

// RegisterWire installs the decoder for one wire tag. Call it from the
// package init that defines the message type. Duplicate tags panic: tags
// are wire protocol and must be unambiguous.
func RegisterWire(tag byte, name string, dec WireDecoder) {
	wireRegMu.Lock()
	defer wireRegMu.Unlock()
	if wireDecoders[tag] != nil {
		panic(fmt.Sprintf("network: duplicate wire tag 0x%02x (%s vs %s)", tag, wireNames[tag], name))
	}
	wireDecoders[tag] = dec
	wireNames[tag] = name
}

// WireTags returns every registered wire tag with its name, for tests that
// must cover each one.
func WireTags() map[byte]string {
	wireRegMu.Lock()
	defer wireRegMu.Unlock()
	tags := make(map[byte]string)
	for tag, dec := range wireDecoders {
		if dec != nil {
			tags[byte(tag)] = wireNames[tag]
		}
	}
	return tags
}

// EncodeAppend appends m's payload to dst: tag byte, then binary body.
func (Codec) EncodeAppend(dst []byte, m Message) ([]byte, error) {
	wm, ok := m.(WireMessage)
	if !ok || wireDecoders[wm.WireTag()] == nil {
		gCodecFallbacks.Add(1)
		return dst, fmt.Errorf("network: encode %T: no registered wire tag", m)
	}
	// Trace-annotated frames (messages carrying a sampled trace context)
	// are counted at the wire boundary: the ratio against encoded_msgs is
	// the observed sampling rate actually crossing the network.
	if tm, ok := m.(tracing.Traced); ok && tm.TraceContext().TraceID != 0 {
		gTracedFrames.Add(1)
	}
	start := len(dst)
	dst = append(dst, wm.WireTag())
	dst = wm.AppendWire(dst)
	gEncodedMsgs.Add(1)
	gEncodedBytes.Add(uint64(len(dst) - start))
	return dst, nil
}

// Encode serializes a message into a fresh payload.
func (c Codec) Encode(m Message) ([]byte, error) {
	return c.EncodeAppend(nil, m)
}

// Decode deserializes a payload; see DecodePayload.
func (Codec) Decode(payload []byte) (Message, error) {
	return DecodePayload(payload)
}

// DecodePayload deserializes a payload: tag byte, then the body handed to
// the registered decoder. The decoded message may alias payload, so the
// caller must not reuse the buffer afterwards. Failures are counted in
// the decode-error counter.
func DecodePayload(payload []byte) (Message, error) {
	m, err := decodePayload(payload)
	if err != nil {
		gDecodeErrors.Add(1)
		return nil, err
	}
	gDecodedMsgs.Add(1)
	return m, nil
}

func decodePayload(payload []byte) (Message, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("network: decode: empty payload")
	}
	tag := payload[0]
	dec := wireDecoders[tag]
	if dec == nil {
		return nil, fmt.Errorf("network: decode: unknown wire tag 0x%02x", tag)
	}
	r := WireReader{buf: payload[1:]}
	m := dec(&r)
	err := r.Err()
	if err == nil && r.Len() != 0 {
		err = fmt.Errorf("%d trailing bytes", r.Len())
	}
	if err != nil {
		return nil, fmt.Errorf("network: decode %s: %w", wireNames[tag], err)
	}
	return m, nil
}

// Wire primitives. Fixed-width big-endian integers; strings and byte
// slices are a u32 length followed by the raw bytes. Protocol packages
// build AppendWire bodies and decoders from these so every implementation
// shares the same (fuzzed) bounds handling.

// AppendU16 appends a big-endian uint16.
func AppendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

// AppendU32 appends a big-endian uint32.
func AppendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendU64 appends a big-endian uint64.
func AppendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendI64 appends a big-endian int64 (two's complement).
func AppendI64(dst []byte, v int64) []byte { return AppendU64(dst, uint64(v)) }

// AppendBool appends a bool as one byte.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBytes appends a u32 length prefix and the bytes.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = AppendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// AppendString appends a u32 length prefix and the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendAddr appends a network Address: host string + u16 port.
func AppendAddr(dst []byte, a Address) []byte {
	dst = AppendString(dst, a.Host)
	return AppendU16(dst, a.Port)
}

// AppendHeader appends a message Header: source then destination address.
func AppendHeader(dst []byte, h Header) []byte {
	dst = AppendAddr(dst, h.Src)
	return AppendAddr(dst, h.Dst)
}

// WireReader reads the primitives back out of a binary body. Out-of-bounds
// reads latch an error and return zero values; the caller checks Err()
// once at the end (DecodePayload does this for registered decoders).
// Bytes and String alias the underlying buffer — zero-copy — which is why
// decoded messages must own their payload buffer, and why decoders use
// the Owned readers or Own for whatever a handler keeps.
type WireReader struct {
	buf []byte
	off int
	err error
}

// NewWireReader wraps a binary body for reading (tests and fuzzing; codec
// decoders receive theirs from DecodePayload).
func NewWireReader(buf []byte) WireReader { return WireReader{buf: buf} }

// Err returns the first bounds violation encountered, if any.
func (r *WireReader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *WireReader) Len() int { return len(r.buf) - r.off }

func (r *WireReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("truncated body at offset %d", r.off)
	}
}

// take returns the next n bytes, or nil after latching an error.
func (r *WireReader) take(n int) []byte {
	if r.err != nil || n < 0 || r.Len() < n {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *WireReader) U8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *WireReader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *WireReader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *WireReader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (r *WireReader) I64() int64 { return int64(r.U64()) }

// Bool reads one byte as a bool.
func (r *WireReader) Bool() bool { return r.U8() != 0 }

// Count reads a u32 element count and checks it against the unread body:
// every element takes at least minSize bytes, so a count promising more
// than the body holds is corrupt. It then latches an error and returns 0,
// before the caller allocates anything for the elements.
func (r *WireReader) Count(minSize int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(minSize) > int64(r.Len()) {
		r.err = fmt.Errorf("count %d at offset %d exceeds body", n, r.off-4)
		return 0
	}
	return int(n)
}

// Bytes reads a u32-prefixed byte slice, aliasing the buffer (zero-copy).
// Returns nil for a zero length.
func (r *WireReader) Bytes() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	b := r.take(int(n))
	if len(b) == 0 {
		return nil
	}
	return b
}

// String reads a u32-prefixed string, aliasing the buffer (zero-copy via
// unsafe.String; the buffer is never mutated while the message lives).
func (r *WireReader) String() string {
	b := r.Bytes()
	if b == nil {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// OwnedString reads a u32-prefixed string into its own memory, for strings
// that outlive the handler (membership hosts, metric names).
func (r *WireReader) OwnedString() string { return string(r.Bytes()) }

// OwnedBytes reads a u32-prefixed byte slice into its own memory, nil for
// a zero length, for values that outlive the handler.
func (r *WireReader) OwnedBytes() []byte { return bytes.Clone(r.Bytes()) }

// Addr reads a network Address.
func (r *WireReader) Addr() Address {
	host := r.String()
	port := r.U16()
	return Address{Host: host, Port: port}
}

// Header reads a message Header.
func (r *WireReader) Header() Header {
	src := r.Addr()
	dst := r.Addr()
	return Header{Src: src, Dst: dst}
}

// Own copies a decoded key and value into one allocation of their own, so
// a record that outlives its handler (a replica's stored write, a handoff
// item, a read result) pins neither the inbound frame nor the rest of the
// batch that arrived with it.
func Own(key string, value []byte) (string, []byte) {
	if len(key)+len(value) == 0 {
		return "", value
	}
	buf := make([]byte, len(key)+len(value))
	copy(buf, key)
	copy(buf[len(key):], value)
	if value != nil {
		value = buf[len(key) : len(key)+len(value) : len(key)+len(value)]
	}
	if len(key) == 0 {
		return "", value
	}
	return unsafe.String(&buf[0], len(key)), value
}
