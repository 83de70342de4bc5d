// Package ident defines node identity on the consistent-hashing ring used
// by the CATS case study: numeric ring keys with modular arithmetic, and
// node references pairing a ring key with a network address.
package ident

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"repro/internal/network"
)

// Key is an identifier on the ring, ordered clockwise modulo 2^64.
type Key uint64

// String renders the key in decimal.
func (k Key) String() string { return fmt.Sprintf("%d", uint64(k)) }

// KeyOf hashes arbitrary bytes onto the ring (FNV-1a).
func KeyOf(b []byte) Key {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return Key(h.Sum64())
}

// KeyOfString hashes a string key onto the ring.
func KeyOfString(s string) Key { return KeyOf([]byte(s)) }

// InOpenInterval reports whether k lies strictly between from and to going
// clockwise (exclusive on both ends), with wrap-around. When from == to the
// interval covers the whole ring minus the endpoint.
func (k Key) InOpenInterval(from, to Key) bool {
	if from == to {
		return k != from
	}
	if from < to {
		return k > from && k < to
	}
	return k > from || k < to
}

// InHalfOpenInterval reports whether k lies in (from, to] going clockwise —
// the "is k owned by successor to" test. When from == to the interval
// covers the whole ring.
func (k Key) InHalfOpenInterval(from, to Key) bool {
	if from == to {
		return true
	}
	if from < to {
		return k > from && k <= to
	}
	return k > from || k <= to
}

// DistanceTo returns the clockwise distance from k to other.
func (k Key) DistanceTo(other Key) uint64 {
	return uint64(other) - uint64(k) // wraps naturally in uint64 arithmetic
}

// NodeRef identifies a CATS node: its ring key and its network address.
type NodeRef struct {
	Key  Key
	Addr network.Address
}

// ParseNodeRef parses "key@host:port" (the NodeRef.String format). A bare
// "host:port" hashes the address onto the ring.
func ParseNodeRef(s string) (NodeRef, error) {
	keyS, addrS, found := strings.Cut(s, "@")
	if !found {
		addr, err := network.ParseAddress(s)
		if err != nil {
			return NodeRef{}, fmt.Errorf("ident: parse node ref %q: %w", s, err)
		}
		return NodeRef{Key: KeyOfString(addr.String()), Addr: addr}, nil
	}
	key, err := strconv.ParseUint(keyS, 10, 64)
	if err != nil {
		return NodeRef{}, fmt.Errorf("ident: parse node ref %q: bad key: %w", s, err)
	}
	addr, err := network.ParseAddress(addrS)
	if err != nil {
		return NodeRef{}, fmt.Errorf("ident: parse node ref %q: %w", s, err)
	}
	return NodeRef{Key: Key(key), Addr: addr}, nil
}

// IsZero reports whether the reference is unset.
func (n NodeRef) IsZero() bool { return n.Key == 0 && n.Addr.IsZero() }

// String renders key@host:port.
func (n NodeRef) String() string {
	return fmt.Sprintf("%d@%s", uint64(n.Key), n.Addr)
}

// SortByKey sorts node references clockwise by key (ties by address for
// determinism).
func SortByKey(nodes []NodeRef) {
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Key != nodes[j].Key {
			return nodes[i].Key < nodes[j].Key
		}
		return nodes[i].Addr.String() < nodes[j].Addr.String()
	})
}

// SuccessorOf returns the first node clockwise responsible for key (the
// node whose key is the first >= key, wrapping to the smallest), given a
// key-sorted slice. It returns a zero NodeRef for an empty slice.
func SuccessorOf(sorted []NodeRef, key Key) NodeRef {
	if len(sorted) == 0 {
		return NodeRef{}
	}
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Key >= key })
	if i == len(sorted) {
		i = 0
	}
	return sorted[i]
}

// SuccessorsOf returns the n distinct nodes clockwise from key (starting at
// its successor), given a key-sorted slice. Fewer are returned when the
// ring is smaller than n.
func SuccessorsOf(sorted []NodeRef, key Key, n int) []NodeRef {
	if len(sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(sorted) {
		n = len(sorted)
	}
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Key >= key })
	out := make([]NodeRef, 0, n)
	for j := 0; j < n; j++ {
		out = append(out, sorted[(i+j)%len(sorted)])
	}
	return out
}

// Dedup removes duplicate node references (by key+address) from a sorted
// slice in place and returns the shortened slice.
func Dedup(sorted []NodeRef) []NodeRef {
	if len(sorted) < 2 {
		return sorted
	}
	out := sorted[:1]
	for _, n := range sorted[1:] {
		last := out[len(out)-1]
		if n.Key == last.Key && n.Addr == last.Addr {
			continue
		}
		out = append(out, n)
	}
	return out
}

// Wire form of node references, shared by every protocol message that
// carries membership (ring, Cyclon, bootstrap, handoff).

// nodeRefMinWire is the smallest encoded NodeRef: key, empty host, port.
const nodeRefMinWire = 8 + 4 + 2

// AppendNodeRef appends n's wire form: ring key, then address.
func AppendNodeRef(dst []byte, n NodeRef) []byte {
	dst = network.AppendU64(dst, uint64(n.Key))
	return network.AppendAddr(dst, n.Addr)
}

// ReadNodeRef reads a node reference. The host is copied out of the
// frame: membership views keep references long after the message that
// carried them.
func ReadNodeRef(r *network.WireReader) NodeRef {
	key := Key(r.U64())
	host := r.OwnedString()
	return NodeRef{Key: key, Addr: network.Address{Host: host, Port: r.U16()}}
}

// AppendNodeRefs appends a count-prefixed list of node references.
func AppendNodeRefs(dst []byte, nodes []NodeRef) []byte {
	dst = network.AppendU32(dst, uint32(len(nodes)))
	for _, n := range nodes {
		dst = AppendNodeRef(dst, n)
	}
	return dst
}

// ReadNodeRefs reads a count-prefixed list of node references, nil when
// empty. A count the body cannot hold is rejected before allocating.
func ReadNodeRefs(r *network.WireReader) []NodeRef {
	n := r.Count(nodeRefMinWire)
	if n == 0 {
		return nil
	}
	nodes := make([]NodeRef, n)
	for i := range nodes {
		nodes[i] = ReadNodeRef(r)
	}
	return nodes
}
