package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// sharedSetup is built once; experiment runners are read-only over it
// except for the lazily cached systems.
var sharedSetup *Setup

func setup(t *testing.T) *Setup {
	t.Helper()
	if sharedSetup == nil {
		s, err := NewSetup(SmallConfig())
		if err != nil {
			t.Fatal(err)
		}
		sharedSetup = s
	}
	return sharedSetup
}

func TestAllRunnersProduceTables(t *testing.T) {
	s := setup(t)
	for _, r := range Runners() {
		table, err := r.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		if len(table.Rows) == 0 {
			t.Errorf("%s: empty table", r.ID)
		}
		for _, row := range table.Rows {
			if len(row) != len(table.Headers) {
				t.Errorf("%s: row %v does not match headers %v", r.ID, row, table.Headers)
			}
		}
		var buf bytes.Buffer
		table.Fprint(&buf)
		if !strings.Contains(buf.String(), table.Title) {
			t.Errorf("%s: rendered output missing title", r.ID)
		}
	}
}

func TestTableIVMatchesPaper(t *testing.T) {
	s := setup(t)
	table, err := s.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"6", "6g", "6gx", "6gxp"}
	for i, row := range table.Rows {
		if row[1] != want[i] {
			t.Errorf("Table IV length %s = %q, want %q", row[0], row[1], want[i])
		}
	}
}

func TestFig9TauHigh(t *testing.T) {
	// The paper reports tau > 0.863 for single-keyword queries; on the
	// synthetic corpus we assert the same qualitative property: strong
	// positive agreement between the two rankings.
	s := setup(t)
	table, err := s.Fig9KendallSingle()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		for _, cell := range row[1:] {
			tau, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("unparseable tau %q", cell)
			}
			if tau < 0.5 {
				t.Errorf("radius %s: tau %v below 0.5 — rankings diverge too much", row[0], tau)
			}
		}
	}
}

func TestFig13PrecisionShape(t *testing.T) {
	// Figure 13's load-bearing shapes: precision within [0,1], and the
	// 5 km precision at least that of the 20 km precision for each series.
	s := setup(t)
	table, err := s.Fig13UserStudy()
	if err != nil {
		t.Fatal(err)
	}
	parse := func(row []string) []float64 {
		out := make([]float64, 0, len(row)-1)
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("unparseable precision %q", cell)
			}
			if v < 0 || v > 1 {
				t.Fatalf("precision %v outside [0,1]", v)
			}
			out = append(out, v)
		}
		return out
	}
	first := parse(table.Rows[0])                // 5 km
	last := parse(table.Rows[len(table.Rows)-1]) // 20 km
	for i := range first {
		if first[i]+0.15 < last[i] {
			t.Errorf("series %d: precision grows with radius (%.2f @5km vs %.2f @20km)",
				i, first[i], last[i])
		}
	}
}

// TestFig12SpecificBoundPrunesAtLeastAsMuch: a hot-keyword bound never
// exceeds the global one, so it prunes at least as much in every row — and
// being tighter, strictly more in some.
func TestFig12SpecificBoundPrunesAtLeastAsMuch(t *testing.T) {
	s := setup(t)
	table, err := s.Fig12SpecificBound()
	if err != nil {
		t.Fatal(err)
	}
	tighter := 0
	for _, row := range table.Rows {
		prunedGlobal, _ := strconv.Atoi(row[4])
		prunedSpecific, _ := strconv.Atoi(row[5])
		if prunedSpecific < prunedGlobal {
			t.Errorf("radius %s %s: specific bound pruned %d < global %d",
				row[0], row[1], prunedSpecific, prunedGlobal)
		}
		if prunedSpecific > prunedGlobal {
			tighter++
		}
	}
	if tighter == 0 {
		t.Error("the specific bound pruned no more than the global bound in any row")
	}
}

func TestAblationPruningSavesWork(t *testing.T) {
	s := setup(t)
	table, err := s.AblationPruning()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		pruned, _ := strconv.Atoi(row[3])
		unpruned, _ := strconv.Atoi(row[4])
		if pruned > unpruned {
			t.Errorf("radius %s: pruning built more threads (%d) than no pruning (%d)",
				row[0], pruned, unpruned)
		}
	}
}

func TestQueriesWithKeywordCount(t *testing.T) {
	s := setup(t)
	for nk := 1; nk <= 3; nk++ {
		specs := s.queriesWithKeywordCount(nk)
		if len(specs) != s.Cfg.QueryPerClass {
			t.Errorf("%d-keyword class has %d queries, want %d", nk, len(specs), s.Cfg.QueryPerClass)
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	s := setup(t)
	a := sample(s.Queries, 5, 3)
	b := sample(s.Queries, 5, 3)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("sample sizes %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Loc != b[i].Loc {
			t.Fatal("sample not deterministic")
		}
	}
	all := sample(s.Queries, len(s.Queries)+10, 3)
	if len(all) != len(s.Queries) {
		t.Error("oversized sample should return everything")
	}
}
