package fault_test

import (
	"sort"
	"testing"

	"dex/internal/fault"

	// Blank imports pull in every package that registers failpoints, so the
	// lint below sees the full production registry. A new package with
	// failpoints must be added here or its sites escape the lint.
	_ "dex/internal/cache"
	_ "dex/internal/crack"
	_ "dex/internal/exec"
	_ "dex/internal/par"
	_ "dex/internal/rawload"
	_ "dex/internal/server"
	_ "dex/internal/shard"
	_ "dex/internal/storage"
)

// knownSites is the reviewed list of production failpoints. The test fails
// in both directions: a site registered but not listed here means an
// undocumented injection point slipped in; a site listed but not registered
// means a seam was removed and DESIGN.md / chaos schedules now reference a
// dead name.
var knownSites = []string{
	"cache/get",
	"cache/put",
	"client/transport",
	"crack/escalate",
	"exec/kernel-dispatch",
	"exec/scan",
	"par/claim",
	"rawload/read",
	"rawload/tokenize",
	"server/admit",
	"server/handler",
	"shard/exec",
	"shard/rpc",
	"storage/csv-read",
	"storage/index-build",
	"storage/segment-encode",
}

// TestFailpointRegistryLint checks the global registry: every name is
// well-formed and unique, and the set of production sites (everything
// outside the test/ namespace this test file's siblings register) matches
// the reviewed list exactly.
func TestFailpointRegistryLint(t *testing.T) {
	names := fault.Names()
	seen := map[string]bool{}
	var prod []string
	for _, n := range names {
		if !fault.ValidName(n) {
			t.Errorf("registered failpoint %q does not match the naming convention pkg/site", n)
		}
		if seen[n] {
			t.Errorf("failpoint %q registered twice", n)
		}
		seen[n] = true
		if len(n) >= 5 && n[:5] == "test/" {
			continue // fault_test.go's own sites
		}
		prod = append(prod, n)
	}
	sort.Strings(prod)
	want := append([]string(nil), knownSites...)
	sort.Strings(want)
	if len(prod) != len(want) {
		t.Fatalf("production failpoints = %v, want %v", prod, want)
	}
	for i := range want {
		if prod[i] != want[i] {
			t.Fatalf("production failpoints = %v, want %v", prod, want)
		}
	}
}
