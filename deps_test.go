package tklus_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestServingBinaryLeavesPaperSubstrates keeps the paper's paged metadata
// database and its B⁺-trees off the serving path: the figures build them
// (internal/experiments), the server must not link them. The next
// substrates to join this list are internal/invindex, internal/mapreduce
// and internal/dfs, which the server still links through the postings
// codec (ROADMAP 16(a)).
func TestServingBinaryLeavesPaperSubstrates(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./cmd/tklus-server").Output()
	if err != nil {
		t.Fatalf("go list -deps ./cmd/tklus-server: %v", err)
	}
	deps := strings.Fields(string(out))
	if !slices.Contains(deps, "repro/internal/server") {
		t.Fatalf("go list named no repro/internal/server among %d packages: %q", len(deps), out)
	}
	for _, pkg := range []string{"repro/internal/metadb", "repro/internal/btree"} {
		if slices.Contains(deps, pkg) {
			t.Errorf("cmd/tklus-server links %s", pkg)
		}
	}
}
