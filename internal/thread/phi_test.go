package thread_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/social"
	"repro/internal/thread"
)

// table returns the bounds' SIDs and count rows, for comparing two tables.
func table(b *thread.Bounds) map[social.PostID][]uint32 {
	out := make(map[social.PostID][]uint32)
	b.Range(func(root social.PostID, levels []uint32) { out[root] = slices.Clone(levels) })
	return out
}

func TestPhiRangeMaxExactOnBatchCorpus(t *testing.T) {
	posts := figure2Posts()
	const depth = 6
	b := thread.ComputeBounds(posts, depth)
	builder := experiments.Builder{DB: loadDB(t, posts), Depth: depth}
	for _, eps := range []float64{0.1, 0.75} {
		// Every root's entry is its exact popularity.
		for _, p := range posts {
			want, _ := builder.Popularity(p.SID, eps, nil)
			if got := b.Phi(p.SID, eps); got != want {
				t.Errorf("ε=%v: Phi(%d) = %v, Algorithm 1 says %v", eps, p.SID, got, want)
			}
		}
		// A SID the table has never seen is a tweet nothing replied to,
		// whose popularity is exactly the floor ε.
		if got := b.Phi(1000, eps); got != eps {
			t.Errorf("absent-SID Phi = %v, want floor %v", got, eps)
		}
	}
}

// TestPhiRangeMaxExactAfterRandomIngest is the count table's property test:
// after random Ingest-style histories (each reply appended to a corpus
// table, then its ≤depth ancestors from the table counted through one
// AddReply, exactly as System.ingest does), every root's lookup equals
// Algorithm 1 — the paper's Builder over a metadata database loaded with
// every acknowledged post — bit for bit, at every ε. Mid stream a second
// table is derived from the rows of the posts so far, as a reload derives
// it (ComputeRowBounds), and receives the remaining replies too: it must
// end with the same table, so a restart never changes a score. ε > ½ is in
// the grid because there a thread's first reply lowers φ below the floor
// (one reply scores ½).
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
			corpus, err := social.NewCorpus(posts)
			if err != nil {
				t.Fatal(err)
			}
			b := thread.ComputeBounds(posts, depth)
			var loaded *thread.Bounds

			// Ingest: new ascending SIDs, most replying to an existing post.
			for sid := social.PostID(41); sid <= 80; sid++ {
				if sid == 60 {
					var rows []social.Row
					loadDB(t, posts).Scan(func(r social.Row) bool { rows = append(rows, r); return true })
					loaded = thread.ComputeRowBounds(rows, depth)
				}
				p := mkPost(sid)
				if rng.Intn(3) > 0 {
					p.RSID = social.PostID(1 + rng.Intn(int(sid-1)))
					p.Kind = social.Reply
				}
				posts = append(posts, p)
				if err := corpus.Append(p); err != nil {
					t.Fatal(err)
				}
				if p.RSID != social.NoPost {
					ancestors := corpus.Ancestors(p.RSID, depth)
					b.AddReply(ancestors)
					if loaded != nil {
						loaded.AddReply(ancestors)
					}
				}
			}

			builder := experiments.Builder{DB: loadDB(t, posts), Depth: depth}
			for _, eps := range []float64{0.1, 0.75} {
				for _, p := range posts {
					want, _ := builder.Popularity(p.SID, eps, nil)
					if got := b.Phi(p.SID, eps); got != want {
						t.Fatalf("%s ε=%v: Phi(%d) = %v, Algorithm 1 says %v", label, eps, p.SID, got, want)
					}
					if got := loaded.Phi(p.SID, eps); got != want {
						t.Fatalf("%s ε=%v: reloaded Phi(%d) = %v, Algorithm 1 says %v", label, eps, p.SID, got, want)
					}
				}
			}
			if got, want := table(loaded), table(b); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: reloaded table %v, built %v", label, got, want)
			}
		}
	}
}

// TestCheckParamsRefusesUnscorableBounds: bounds an engine would score from
// must hold a level-count table for its depth — any ε reads the same one.
// Bounds without a table and a table of another depth are refused as
// ErrParamsMismatch, and a table of no replies is still a table.
func TestCheckParamsRefusesUnscorableBounds(t *testing.T) {
	b := thread.ComputeBounds(figure2Posts(), 6)
	if err := b.CheckParams(6); err != nil {
		t.Fatalf("matching model refused: %v", err)
	}
	if err := thread.ComputeRowBounds(nil, 6).CheckParams(6); err != nil {
		t.Fatalf("table of no replies refused: %v", err)
	}
	for name, err := range map[string]error{
		"no table": (&thread.Bounds{Depth: 6}).CheckParams(6),
		"depth 4":  b.CheckParams(4),
	} {
		if !errors.Is(err, thread.ErrParamsMismatch) {
			t.Errorf("%s: err = %v, want ErrParamsMismatch", name, err)
		}
	}
}

// TestComputeRowBoundsMatchesPosts: the table a reload derives from the
// stored rows' (SID, RSID) pairs is the one a build counts from the posts.
func TestComputeRowBoundsMatchesPosts(t *testing.T) {
	posts := figure2Posts()
	db := loadDB(t, posts)
	var rows []social.Row
	db.Scan(func(r social.Row) bool { rows = append(rows, r); return true })
	for _, depth := range []int{1, 2, 6} {
		if got, want := table(thread.ComputeRowBounds(rows, depth)), table(thread.ComputeBounds(posts, depth)); !reflect.DeepEqual(got, want) {
			t.Errorf("depth %d: from rows %v, from posts %v", depth, got, want)
		}
	}
}
