package thread_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/social"
)

// table returns the corpus table's counted SIDs and their level sizes, for
// comparing two tables.
func table(c *social.Corpus) map[social.PostID][]uint32 {
	out := make(map[social.PostID][]uint32)
	c.Levels(func(root social.PostID, levels []uint32) { out[root] = slices.Clone(levels) })
	return out
}

func newCorpus(t *testing.T, posts []*social.Post, depth int) *social.Corpus {
	t.Helper()
	c, err := social.NewCorpus(posts, depth)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPhiRangeMaxExactOnBatchCorpus(t *testing.T) {
	posts := figure2Posts()
	const depth = 6
	c := newCorpus(t, posts, depth)
	builder := experiments.Builder{DB: loadDB(t, posts), Depth: depth}
	for _, eps := range []float64{0.1, 0.75} {
		// Every root's entry is its exact popularity.
		for _, p := range posts {
			want, _ := builder.Popularity(p.SID, eps, nil)
			if got := c.Phi(p.SID, eps); got != want {
				t.Errorf("ε=%v: Phi(%d) = %v, Algorithm 1 says %v", eps, p.SID, got, want)
			}
		}
		// A SID the table has never seen is a tweet nothing replied to,
		// whose popularity is exactly the floor ε.
		if got := c.Phi(1000, eps); got != eps {
			t.Errorf("absent-SID Phi = %v, want floor %v", got, eps)
		}
	}
}

// TestPhiRangeMaxExactAfterRandomIngest is the count table's property test:
// after random Ingest-style histories (each reply appended to the corpus
// table, which counts it into its ≤depth ancestors' threads, exactly as
// System.ingest does), every root's φ equals Algorithm 1 — the paper's
// Builder over a metadata database loaded with every acknowledged post —
// bit for bit, at every ε. Mid stream a second table is derived from the
// rows of the posts so far, as a reload derives it (social.CorpusFromRows),
// and receives the remaining replies too: it must end with the same table,
// so a restart never changes a score. ε > ½ is in the grid because there a
// thread's first reply lowers φ below the floor (one reply scores ½).
func TestPhiRangeMaxExactAfterRandomIngest(t *testing.T) {
	for _, depth := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(29))
		mkPost := func(sid social.PostID) *social.Post {
			return &social.Post{
				SID: sid, UID: social.UserID(sid), Time: time.Unix(int64(sid), 0),
				Loc: geo.Point{Lat: 43.7, Lon: -79.4}, Words: []string{"hotel"},
			}
		}
		for trial := 0; trial < 10; trial++ {
			label := fmt.Sprintf("depth=%d trial %d", depth, trial)
			// Batch corpus: a random forest over SIDs 1..40.
			posts := make([]*social.Post, 0, 80)
			for sid := social.PostID(1); sid <= 40; sid++ {
				p := mkPost(sid)
				if sid > 1 && rng.Intn(2) == 0 {
					p.RSID = social.PostID(1 + rng.Intn(int(sid-1)))
					p.Kind = social.Reply
				}
				posts = append(posts, p)
			}
			c := newCorpus(t, posts, depth)
			var loaded *social.Corpus

			// Ingest: new ascending SIDs, most replying to an existing post.
			for sid := social.PostID(41); sid <= 80; sid++ {
				if sid == 60 {
					var rows []social.Row
					loadDB(t, posts).Scan(func(r social.Row) bool { rows = append(rows, r); return true })
					var err error
					if loaded, err = social.CorpusFromRows(rows, depth); err != nil {
						t.Fatal(err)
					}
				}
				p := mkPost(sid)
				if rng.Intn(3) > 0 {
					p.RSID = social.PostID(1 + rng.Intn(int(sid-1)))
					p.Kind = social.Reply
				}
				posts = append(posts, p)
				if err := c.Append(p); err != nil {
					t.Fatal(err)
				}
				if loaded != nil {
					if err := loaded.Append(p); err != nil {
						t.Fatal(err)
					}
				}
			}

			builder := experiments.Builder{DB: loadDB(t, posts), Depth: depth}
			for _, eps := range []float64{0.1, 0.75} {
				for _, p := range posts {
					want, _ := builder.Popularity(p.SID, eps, nil)
					if got := c.Phi(p.SID, eps); got != want {
						t.Fatalf("%s ε=%v: Phi(%d) = %v, Algorithm 1 says %v", label, eps, p.SID, got, want)
					}
					if got := loaded.Phi(p.SID, eps); got != want {
						t.Fatalf("%s ε=%v: reloaded Phi(%d) = %v, Algorithm 1 says %v", label, eps, p.SID, got, want)
					}
				}
			}
			if got, want := table(loaded), table(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: reloaded table %v, built %v", label, got, want)
			}
		}
	}
}

// TestCorpusFromRowsMatchesPosts: the level sizes a reload derives from the
// stored rows' (SID, RSID) pairs are the ones a build counts from the
// posts.
func TestCorpusFromRowsMatchesPosts(t *testing.T) {
	posts := figure2Posts()
	db := loadDB(t, posts)
	var rows []social.Row
	db.Scan(func(r social.Row) bool { rows = append(rows, r); return true })
	for _, depth := range []int{1, 2, 6} {
		loaded, err := social.CorpusFromRows(rows, depth)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := table(loaded), table(newCorpus(t, posts, depth)); !reflect.DeepEqual(got, want) {
			t.Errorf("depth %d: from rows %v, from posts %v", depth, got, want)
		}
	}
}

// TestCheckParamsRefusesUnscorableBounds: the table an engine scores from
// must hold level counts for the model's depth — any ε reads the same one.
// An engine without a table is refused, one over a table of another depth
// is refused as ErrParamsMismatch, and a table of no replies is still a
// table.
func TestCheckParamsRefusesUnscorableBounds(t *testing.T) {
	posts := figure2Posts()
	idx, _, err := invindex.Build(dfs.New(dfs.DefaultOptions()), posts, invindex.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	parts := []core.Partition{{Source: idx, Lookup: loadDB(t, posts)}}
	opts := core.DefaultOptions()
	opts.Params.ThreadDepth = 6
	if _, err := core.NewPartitionedEngine(parts, newCorpus(t, posts, 6), opts); err != nil {
		t.Fatalf("matching model refused: %v", err)
	}
	empty, err := social.CorpusFromRows(nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewPartitionedEngine(parts, empty, opts); err != nil {
		t.Fatalf("table of no replies refused: %v", err)
	}
	if _, err := core.NewPartitionedEngine(parts, nil, opts); err == nil {
		t.Error("no table: engine accepted")
	}
	if _, err := core.NewPartitionedEngine(parts, newCorpus(t, posts, 4), opts); !errors.Is(err, core.ErrParamsMismatch) {
		t.Errorf("depth 4: err = %v, want ErrParamsMismatch", err)
	}
}
