package repro

import (
	"strings"
	"testing"

	_ "repro/internal/abd"
	_ "repro/internal/bootstrap"
	_ "repro/internal/cyclon"
	_ "repro/internal/fd"
	_ "repro/internal/handoff"
	_ "repro/internal/monitor"
	"repro/internal/network"
	_ "repro/internal/ring"
)

// wireContractPackages names the packages whose wire messages are held to
// the codec contract by a wiretest.Check test over one sample per tag
// (TestABDWireRoundTrip and its siblings), keyed by tag-name prefix.
var wireContractPackages = []string{"abd.", "bootstrap.", "cyclon.", "fd.", "handoff.", "monitor.", "ring."}

// protocolWireTags is the exact number of wire tags the protocol packages
// register: abd 2, handoff 2, fd 2, ring 5, cyclon 2, bootstrap 3,
// monitor 1. A tag added or dropped anywhere must update it.
const protocolWireTags = 17

// TestWireTagsCovered walks the wire-tag registry of a binary that links
// every protocol package: each registered tag must belong to a package
// whose contract test checks every tag it registers, and the protocol
// tags must number exactly protocolWireTags. A package that adds wire
// messages without such a test fails here.
func TestWireTagsCovered(t *testing.T) {
	tags := network.WireTags()
	protocol := 0
	for tag, name := range tags {
		if strings.HasPrefix(name, "bench.") {
			continue // this package's own benchmark message
		}
		protocol++
		covered := false
		for _, prefix := range wireContractPackages {
			covered = covered || strings.HasPrefix(name, prefix)
		}
		if !covered {
			t.Errorf("wire tag 0x%02x (%s) belongs to no package with a wire contract test", tag, name)
		}
	}
	if protocol != protocolWireTags {
		t.Fatalf("%d protocol wire tags registered, want exactly %d: %v", protocol, protocolWireTags, tags)
	}
}
