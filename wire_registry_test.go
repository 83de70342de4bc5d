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

// TestWireTagsCovered walks the wire-tag registry of a binary that links
// every protocol package: each registered tag must belong to a package
// whose contract test checks every tag it registers. A package that adds
// wire messages without such a test fails here.
func TestWireTagsCovered(t *testing.T) {
	tags := network.WireTags()
	if len(tags) < 22 {
		t.Fatalf("only %d wire tags registered: %v", len(tags), tags)
	}
	for tag, name := range tags {
		if strings.HasPrefix(name, "bench.") {
			continue // this package's own benchmark message
		}
		covered := false
		for _, prefix := range wireContractPackages {
			covered = covered || strings.HasPrefix(name, prefix)
		}
		if !covered {
			t.Errorf("wire tag 0x%02x (%s) belongs to no package with a wire contract test", tag, name)
		}
	}
}
