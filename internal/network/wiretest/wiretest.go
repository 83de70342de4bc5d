// Package wiretest holds the wire-codec contract every protocol package's
// message types are tested against: field-exact round trip, an error (not
// a panic) for a payload cut at any offset, corrupt counts rejected before
// anything is allocated for them, and allocation-free encoding. A decoder
// that panics on any of these inputs fails the test binary outright. Each
// protocol package calls Check from a test with at least one sample per
// wire tag it registers, and seeds its fuzz target with Seed and Fuzz.
package wiretest

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/network"
)

// corruptCount is the element count written over each 4-byte window of a
// payload. It is small enough that a decoder allocating for it without a
// bounds check would allocate megabytes rather than crash, and far larger
// than any sample payload can hold.
const corruptCount = 1 << 20

// maxCorruptAlloc bounds the heap bytes one decode of a corrupted payload
// may allocate beyond the payload's own size.
const maxCorruptAlloc = 64 << 10

// Check runs the codec contract over samples. Every wire tag registered
// under a name starting with prefix (for example "ring.") must have a
// sample, and every sample must carry such a tag.
func Check(t *testing.T, prefix string, samples ...network.WireMessage) {
	t.Helper()
	covered := make(map[byte]bool)
	tags := network.WireTags()
	for _, m := range samples {
		tag := m.WireTag()
		name, ok := tags[tag]
		if !ok || !strings.HasPrefix(name, prefix) {
			t.Errorf("%T: tag 0x%02x is not registered under %q", m, tag, prefix)
			continue
		}
		covered[tag] = true
		t.Run(name, func(t *testing.T) { checkOne(t, m) })
	}
	for tag, name := range tags {
		if strings.HasPrefix(name, prefix) && !covered[tag] {
			t.Errorf("wire tag 0x%02x (%s) has no sample", tag, name)
		}
	}
}

func checkOne(t *testing.T, sample network.WireMessage) {
	var c network.Codec
	payload, err := c.Encode(sample)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if payload[0] != sample.WireTag() {
		t.Fatalf("payload starts with 0x%02x, want tag 0x%02x", payload[0], sample.WireTag())
	}
	got, err := network.DecodePayload(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, network.Message(sample)) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, sample)
	}

	for i := 0; i < len(payload); i++ {
		if m, err := network.DecodePayload(payload[:i]); err == nil {
			t.Fatalf("payload cut at %d of %d decoded as %#v", i, len(payload), m)
		}
	}

	corrupt := make([]byte, len(payload))
	for i := 1; i+4 <= len(payload); i++ {
		copy(corrupt, payload)
		binary.BigEndian.PutUint32(corrupt[i:], corruptCount)
		var err error
		n := heapBytes(func() { _, err = network.DecodePayload(corrupt) })
		if n > uint64(len(payload))+maxCorruptAlloc {
			t.Fatalf("count %d at offset %d allocated %d bytes before being rejected (err %v)",
				corruptCount, i, n, err)
		}
	}

	var m network.Message = sample // boxed once, as the transport receives it
	buf := make([]byte, 0, 2*len(payload))
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = c.EncodeAppend(buf[:0], m)
	})
	if allocs != 0 {
		t.Fatalf("encode allocates %.1f/op, want 0", allocs)
	}
}

// heapBytes reports the heap bytes allocated while fn runs.
func heapBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Seed adds every sample's payload and its truncated halves to a fuzz
// corpus.
func Seed(f *testing.F, samples ...network.WireMessage) {
	for _, m := range samples {
		p, err := network.Codec{}.Encode(m)
		if err != nil {
			f.Fatalf("encode %T: %v", m, err)
		}
		f.Add(p)
		f.Add(p[:len(p)/2])
		f.Add(p[:1])
	}
}

// Fuzz is the fuzz body for payload decoding: arbitrary bytes decode to a
// message or an error, never a panic, and whatever decodes re-encodes.
func Fuzz(t *testing.T, payload []byte) {
	m, err := network.DecodePayload(payload)
	if err != nil {
		return
	}
	if m == nil {
		t.Fatal("nil message with nil error")
	}
	if _, err := (network.Codec{}).Encode(m); err != nil {
		t.Fatalf("decoded message does not re-encode: %v", err)
	}
}
