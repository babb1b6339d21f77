package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/social"
	"repro/internal/thread"
)

func window(fromSec, toSec int64) *TimeWindow {
	return &TimeWindow{From: time.Unix(fromSec, 0), To: time.Unix(toSec, 0)}
}

func TestPartitionOverlapsWindow(t *testing.T) {
	p := Partition{MinSID: 100 * 1_000_000_000, MaxSID: 200 * 1_000_000_000}
	cases := []struct {
		name string
		w    *TimeWindow
		want bool
	}{
		{"nil window", nil, true},
		{"inside", window(120, 150), true},
		{"straddles start", window(50, 120), true},
		{"straddles end", window(150, 300), true},
		{"covers", window(50, 300), true},
		{"before", window(10, 99), false},
		{"after", window(201, 300), false},
		{"touches start", window(50, 100), true},
		{"touches end", window(200, 300), true},
	}
	for _, c := range cases {
		if got := p.overlapsWindow(c.w); got != c.want {
			t.Errorf("%s: overlaps = %v, want %v", c.name, got, c.want)
		}
	}
	// Unbounded partition (MaxSID 0) overlaps any future window.
	open := Partition{MinSID: 100 * 1_000_000_000}
	if !open.overlapsWindow(window(500, 600)) {
		t.Error("unbounded partition should overlap")
	}
	if open.overlapsWindow(window(10, 99)) {
		t.Error("window before unbounded partition should not overlap")
	}
}

func TestNewPartitionedEngineValidation(t *testing.T) {
	if _, err := NewPartitionedEngine(nil, nil, nil, DefaultOptions()); err == nil {
		t.Error("empty partitions accepted")
	}
	if _, err := NewPartitionedEngine([]Partition{{Source: nil}}, nil, nil, DefaultOptions()); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := NewEngine(nil, nil, nil, DefaultOptions()); err == nil {
		t.Error("nil index accepted")
	}
	// Every score reads φ from the bounds: bounds without a level-count
	// table, or with one of another depth, would answer for another model.
	db, err := metadb.Load(metadb.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	parts := []Partition{{Source: benchPostings{}}}
	for name, bounds := range map[string]*thread.Bounds{
		"no table": {Depth: opts.Params.ThreadDepth},
		"depth 2":  thread.ComputeBounds(nil, 2),
	} {
		if _, err := NewPartitionedEngine(parts, db, bounds, opts); !errors.Is(err, thread.ErrParamsMismatch) {
			t.Errorf("%s: err = %v, want ErrParamsMismatch", name, err)
		}
	}
	if _, err := NewPartitionedEngine(parts, db, thread.ComputeBounds(nil, opts.Params.ThreadDepth), opts); err != nil {
		t.Errorf("matching bounds refused: %v", err)
	}
}

// rowsMissing is a hand-built partition: one postings list of row
// ordinals and the first held of the rows they name, row i posted at the
// centre by user i as tweet i.
type rowsMissing struct {
	benchPostings
	held int
}

func (s rowsMissing) Records() []metadb.RowMeta {
	recs := make([]metadb.RowMeta, s.held)
	for i := range recs {
		recs[i] = metadb.RowMeta{SID: social.PostID(i), Lat: benchCenter.Lat, Lon: benchCenter.Lon, UID: social.UserID(i)}
	}
	return recs
}

// TestGatherNamesTheMissingRow: a partition whose postings name a row
// beyond its records fails the query with that row named — the index and
// the rows disagree — instead of panicking on the index, and a partition
// that holds every row it names serves its own rows without touching the
// paged database.
func TestGatherNamesTheMissingRow(t *testing.T) {
	src := rowsMissing{benchPostings: benchPostings{cell: geo.Encode(benchCenter, 4)}, held: 7}
	for sid := 5; sid <= 9; sid++ {
		src.list = append(src.list, invindex.Posting{TID: social.PostID(sid), TF: 1})
	}
	db, err := metadb.Load(metadb.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	bounds := thread.ComputeBounds(nil, opts.Params.ThreadDepth)
	eng, err := NewPartitionedEngine([]Partition{{Source: src, Rows: src}}, db, bounds, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Loc: benchCenter, RadiusKm: 5, Keywords: []string{"hotel"}, K: 3}
	_, err = eng.gather(context.Background(), q, new(scratch))
	if err == nil || !strings.Contains(err.Error(), "names row 7 of a partition holding 7") {
		t.Fatalf("gather over a partition missing row 7: err = %v", err)
	}

	src.held = 10
	eng.SetPartitions([]Partition{{Source: src, Rows: src}})
	cs, err := eng.gather(context.Background(), q, new(scratch))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.cands) != 5 || cs.cands[2].TID != 7 || cs.cands[2].UID != 7 || cs.cands[2].Delta != 1 {
		t.Fatalf("candidates = %+v", cs.cands)
	}
	if cs.stats.DBBatchLookups != 0 {
		t.Errorf("a partition with its own rows charged %d paged lookups", cs.stats.DBBatchLookups)
	}
}
