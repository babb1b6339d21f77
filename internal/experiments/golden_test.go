package experiments

import (
	"bufio"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from this run")

const goldenPath = "testdata/figures.golden"

// isDuration reports whether a cell is a timing ("24ms", "0.08 ms",
// "1.2s"): the one kind of cell that varies from run to run.
func isDuration(cell string) bool {
	s := strings.ReplaceAll(cell, " ", "")
	if !strings.ContainsAny(s, "nuµmsh") {
		return false
	}
	_, err := time.ParseDuration(s)
	return err == nil
}

// goldenSection renders one runner's table as the golden file holds it: a
// "== id" line, then the headers and each row as tab-separated cells, with
// every duration cell blanked.
func goldenSection(id string, t *Table) []string {
	lines := []string{"== " + id, strings.Join(t.Headers, "\t")}
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			if !isDuration(c) {
				cells[i] = c
			}
		}
		lines = append(lines, strings.Join(cells, "\t"))
	}
	return lines
}

// readGolden splits the golden file into its sections by runner ID.
func readGolden(t *testing.T) map[string][]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	defer f.Close()
	sections := make(map[string][]string)
	var id string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id = rest
		}
		sections[id] = append(sections[id], line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sections
}

// TestFigureCountsGolden pins every count the figures print — threads
// built and pruned, tweets pulled, page reads and hits, keys, postings
// bytes, candidates, Kendall τ, precision — to testdata/figures.golden.
// Every runner runs on SmallConfig; only timing cells are blanked. A change
// that moves a count must rewrite the file with -update and say why.
func TestFigureCountsGolden(t *testing.T) {
	s := setup(t)
	var out []string
	var want map[string][]string
	if !*update {
		want = readGolden(t)
	}
	for _, r := range Runners() {
		table, err := r.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		got := goldenSection(r.ID, table)
		out = append(out, got...)
		if *update {
			continue
		}
		t.Run(r.ID, func(t *testing.T) {
			w, ok := want[r.ID]
			if !ok {
				t.Fatalf("no golden section for runner %q", r.ID)
			}
			if len(w) != len(got) {
				t.Errorf("%d lines, golden has %d", len(got), len(w))
			}
			for i := 1; i < min(len(w), len(got)); i++ {
				gc, wc := strings.Split(got[i], "\t"), strings.Split(w[i], "\t")
				for j := range max(len(gc), len(wc)) {
					if g, x := cell(gc, j), cell(wc, j); g != x {
						t.Errorf("line %d (%s), column %q: got %q, golden %q", i, cell(gc, 0), cell(table.Headers, j), g, x)
					}
				}
			}
		})
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func cell(cells []string, i int) string {
	if i < len(cells) {
		return cells[i]
	}
	return ""
}
