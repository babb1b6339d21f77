package thread

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/metadb"
	"repro/internal/score"
	"repro/internal/social"
)

// Phi is the one-root PhiBatch.
func (b *Bounds) Phi(root social.PostID, epsilon float64) float64 {
	var out [1]float64
	b.PhiBatch([]social.PostID{root}, epsilon, out[:])
	return out[0]
}

// ancestorsOf walks a post's parent chain through the database, at most
// depth hops — what System.ingest hands AddReply.
func ancestorsOf(db *metadb.DB, p *social.Post, depth int) []social.PostID {
	var out []social.PostID
	for a := p.RSID; a != social.NoPost && len(out) < depth; {
		out = append(out, a)
		row, ok := db.GetBySID(a)
		if !ok {
			break
		}
		a = row.RSID
	}
	return out
}

// table returns the bounds' SIDs and count rows, for comparing two tables.
func table(b *Bounds) map[social.PostID][]uint32 {
	out := make(map[social.PostID][]uint32)
	b.Range(func(root social.PostID, levels []uint32) { out[root] = slices.Clone(levels) })
	return out
}

func TestPhiRangeMaxExactOnBatchCorpus(t *testing.T) {
	posts := figure2Posts()
	const depth = 6
	b := ComputeBounds(posts, depth)
	builder := Builder{DB: loadDB(t, posts), Depth: depth}
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
// after random Ingest-style histories (each reply appended to the database,
// then its ≤depth ancestors counted through one AddReply, exactly as
// System.ingest does), every root's lookup equals Algorithm 1 —
// Builder.Popularity over the same posts — bit for bit, at every ε. Mid
// stream a second table is derived from the database's rows, as a reload
// derives it (ComputeRowBounds), and receives the remaining replies too: it
// must end with the same table, so a restart never changes a score. ε > ½ is in the grid because there a thread's
// first reply lowers φ below the floor (one reply scores ½).
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
			db := loadDB(t, posts)
			builder := Builder{DB: db, Depth: depth}
			b := ComputeBounds(posts, depth)
			var loaded *Bounds

			// Ingest: new ascending SIDs, most replying to an existing post.
			for sid := social.PostID(41); sid <= 80; sid++ {
				if sid == 60 {
					var rows []metadb.Row
					db.Scan(func(r metadb.Row) bool { rows = append(rows, r); return true })
					loaded = ComputeRowBounds(rows, depth)
				}
				p := mkPost(sid)
				if rng.Intn(3) > 0 {
					p.RSID = social.PostID(1 + rng.Intn(int(sid-1)))
					p.Kind = social.Reply
				}
				posts = append(posts, p)
				if err := db.Append(p); err != nil {
					t.Fatal(err)
				}
				if p.RSID != social.NoPost {
					ancestors := ancestorsOf(db, p, depth)
					b.AddReply(ancestors)
					if loaded != nil {
						loaded.AddReply(ancestors)
					}
				}
			}

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
	b := ComputeBounds(figure2Posts(), 6)
	if err := b.CheckParams(6); err != nil {
		t.Fatalf("matching model refused: %v", err)
	}
	if err := ComputeRowBounds(nil, 6).CheckParams(6); err != nil {
		t.Fatalf("table of no replies refused: %v", err)
	}
	for name, err := range map[string]error{
		"no table": (&Bounds{Depth: 6}).CheckParams(6),
		"depth 4":  b.CheckParams(4),
	} {
		if !errors.Is(err, ErrParamsMismatch) {
			t.Errorf("%s: err = %v, want ErrParamsMismatch", name, err)
		}
	}
}

// TestComputeRowBoundsMatchesPosts: the table a reload derives from the
// stored rows' (SID, RSID) pairs is the one a build counts from the posts.
func TestComputeRowBoundsMatchesPosts(t *testing.T) {
	posts := figure2Posts()
	db := loadDB(t, posts)
	var rows []metadb.Row
	db.Scan(func(r metadb.Row) bool { rows = append(rows, r); return true })
	for _, depth := range []int{1, 2, 6} {
		if got, want := table(ComputeRowBounds(rows, depth)), table(ComputeBounds(posts, depth)); !reflect.DeepEqual(got, want) {
			t.Errorf("depth %d: from rows %v, from posts %v", depth, got, want)
		}
	}
}

// TestPhiBatchMatchesPointLookups drives the batched read against histories
// of random batch corpora and ingest-style replies (to old posts and to new
// SIDs past the table's end): for ascending batches with gaps, repeats,
// absent SIDs between entries and SIDs past the table's end, every slot
// must equal both the one-root lookup and Definition 4 over a linear scan
// of the table, whatever the searches before it left behind.
func TestPhiBatchMatchesPointLookups(t *testing.T) {
	const depth, eps = 4, 0.1
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 30; trial++ {
		// Batch corpus on odd SIDs (so even ones are absent), a random forest.
		n := 1 + rng.Intn(300)
		posts := make([]*social.Post, n)
		for i := range posts {
			posts[i] = &social.Post{SID: social.PostID(2*i + 1), UID: 1, Words: []string{"hotel"}}
			if i > 0 && rng.Intn(2) == 0 {
				posts[i].RSID, posts[i].Kind = posts[rng.Intn(i)].SID, social.Reply
			}
		}
		b := ComputeBounds(posts, depth)
		last := social.PostID(2 * n)
		for r := rng.Intn(40); r > 0; r-- { // ingest: reply to old roots and to new ones
			ancestors := make([]social.PostID, 1+rng.Intn(depth))
			for h := range ancestors {
				ancestors[h] = social.PostID(1 + rng.Intn(int(last)))
			}
			if rng.Intn(2) == 0 {
				last += social.PostID(1 + rng.Intn(3))
				ancestors[0] = last
			}
			b.AddReply(ancestors)
		}
		scan := func(root social.PostID) float64 {
			for i, sid := range b.sids {
				if sid == root {
					return score.Popularity(b.counts[i*depth:(i+1)*depth], eps)
				}
			}
			return eps
		}
		for batch := 0; batch < 20; batch++ {
			var roots []social.PostID
			sid, stride := social.PostID(rng.Intn(4)), 1+rng.Intn(1+int(last)/4)
			for sid <= last+10 { // runs past the table's end
				roots = append(roots, sid)
				if rng.Intn(4) > 0 { // else: repeat the SID
					sid += social.PostID(1 + rng.Intn(stride))
				}
			}
			out := make([]float64, len(roots))
			b.PhiBatch(roots, eps, out)
			for i, root := range roots {
				if want := scan(root); out[i] != want || b.Phi(root, eps) != want {
					t.Fatalf("trial %d: batch[%d] φ(%d) = %v, point %v, table scan %v", trial, i, root, out[i], b.Phi(root, eps), want)
				}
			}
		}
	}
}

var phiSink float64

// BenchmarkPhiLookup measures the φ read the engine makes for every
// candidate, in the table of a 250k-post corpus (one post in seven a reply)
// probed at present and absent SIDs: one read-locked search per root
// (point), and one PhiBatch over 1146 ascending roots — the city-sum
// candidate count — reported per root.
func BenchmarkPhiLookup(b *testing.B) {
	const n = 250_000
	posts := make([]*social.Post, n)
	for i := range posts {
		posts[i] = &social.Post{SID: social.PostID(2*i + 1), UID: 1, Words: []string{"hotel"}}
		if i%7 == 3 {
			posts[i].RSID, posts[i].Kind = posts[i-1].SID, social.Reply
		}
	}
	bounds := ComputeBounds(posts, 4)
	rng := rand.New(rand.NewSource(31))
	probes := make([]social.PostID, 4096)
	for i := range probes {
		probes[i] = social.PostID(1 + rng.Intn(2*n))
	}
	b.Run("point", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			phiSink += bounds.Phi(probes[i%len(probes)], 0.1)
		}
	})
	b.Run("batch", func(b *testing.B) {
		roots := slices.Clone(probes[:1146])
		slices.Sort(roots)
		out := make([]float64, len(roots))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(roots) {
			bounds.PhiBatch(roots, 0.1, out)
		}
		phiSink += out[0]
	})
}
