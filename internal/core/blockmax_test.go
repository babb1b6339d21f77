package core_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/social"
	"repro/internal/thread"
)

// buildEngineIndexed is buildEngine with control over the index build —
// the block size — so equivalence tests can force multi-block postings
// lists.
func buildEngineIndexed(t testing.TB, posts []*social.Post, opts core.Options, geohashLen int, mutate func(*invindex.BuildOptions)) *core.Engine {
	t.Helper()
	eng, _ := buildEngineAndIndex(t, posts, opts, geohashLen, mutate)
	return eng
}

// buildEngineAndIndex also returns the index the engine serves from, for
// tests that wire a second engine over the same postings.
func buildEngineAndIndex(t testing.TB, posts []*social.Post, opts core.Options, geohashLen int, mutate func(*invindex.BuildOptions)) (*core.Engine, *invindex.Index) {
	t.Helper()
	db, err := metadb.Load(metadb.DefaultOptions(), posts)
	if err != nil {
		t.Fatal(err)
	}
	fsys := dfs.New(dfs.DefaultOptions())
	bopts := invindex.DefaultBuildOptions()
	bopts.GeohashLen = geohashLen
	if mutate != nil {
		mutate(&bopts)
	}
	idx, _, err := invindex.Build(fsys, posts, bopts)
	if err != nil {
		t.Fatal(err)
	}
	bounds := thread.ComputeBounds(posts, opts.Params.ThreadDepth)
	eng, err := core.NewEngine(idx, db, bounds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, idx
}

// sliceServed serves an index's postings lists decoded, each as a one-block
// slice iterator — the shape the memtable serves — so the merges run with
// no block to skip.
type sliceServed struct{ *invindex.Index }

func (s sliceServed) OpenPostings(cell, term string) (*invindex.PostingsIterator, error) {
	ps, err := s.FetchPostings(cell, term)
	if err != nil || ps == nil {
		return nil, err
	}
	return invindex.NewSliceIterator(ps), nil
}

// requireSameResults asserts two rankings are byte-identical: same length,
// same user and the exact same float at every position. Block-max traversal
// promises bit-equality, not approximate equality, so no tolerance.
func requireSameResults(t *testing.T, got, want []core.UserResult, format string, args ...any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf(format+": result sizes %d vs %d (%v vs %v)",
			append(args, len(got), len(want), got, want)...)
	}
	for i := range got {
		if got[i].UID != want[i].UID || got[i].Score != want[i].Score {
			t.Fatalf(format+": result[%d] = {%d %v}, oracle {%d %v}",
				append(args, i, got[i].UID, got[i].Score, want[i].UID, want[i].Score)...)
		}
	}
}

// TestBlockMaxEquivalenceGrid is the main lossless-traversal check: over a
// grid of semantics × ranking × ε × radius, the default engine over a blocked
// index with 8-posting blocks (so every hot list spans many blocks) returns
// bit-identical results to (a) a fresh engine over the same posts built with
// the default block size and (b) a default engine over the same lists served
// as one-block slice iterators, and (c) the same users
// in the same order, scores within 1e-9, as baseline.ScanRanker over the raw
// posts, which shares no retrieval or scoring code with the engine. ε = 0.6
// is in the grid because there a thread's first reply lowers φ below the
// floor. Retrieval — candidates and lists fetched — does not depend on the
// block layout, and the engine builds and prunes no thread: φ comes from the
// table. Bounds without a level-count table (what an image written before
// the table decodes to) are refused outright. (Block skipping itself is
// pinned by TestBlockMaxSkipsBlocks — a uniform random corpus interleaves
// the two lists too densely for AND intersection to ever leap a whole
// block.)
func TestBlockMaxEquivalenceGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(417))
	posts, center := randomCorpus(rng, 900)

	for _, epsilon := range []float64{0.1, 0.6} {
		opts := core.DefaultOptions()
		opts.Params.Epsilon = epsilon
		oracle := baseline.NewScanRanker(posts, opts.Params)

		engBM, idxBM := buildEngineAndIndex(t, posts, opts, 3, func(o *invindex.BuildOptions) { o.BlockSize = 8 })
		engFresh := buildEngineIndexed(t, posts, opts, 3, nil)
		engFlat, err := core.NewPartitionedEngine(
			[]core.Partition{{Source: sliceServed{idxBM}}}, engBM.DB, engBM.Bounds, opts)
		if err != nil {
			t.Fatal(err)
		}
		tableless := &thread.Bounds{Depth: engBM.Bounds.Depth}
		if _, err := core.NewEngine(idxBM, engBM.DB, tableless, opts); !errors.Is(err, thread.ErrParamsMismatch) {
			t.Fatalf("eps=%v: engine over table-less bounds: err = %v, want ErrParamsMismatch", epsilon, err)
		}

		for _, ranking := range []core.Ranking{core.SumScore, core.MaxScore} {
			for _, sem := range []core.Semantic{core.Or, core.And} {
				for _, radius := range []float64{5, 15, 40} {
					q := core.Query{
						Loc: center, RadiusKm: radius,
						Keywords: []string{"hotel", "restaurant"},
						K:        5, Semantic: sem, Ranking: ranking,
					}
					got, gs, err := engBM.Search(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					want, ws, err := engFresh.Search(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResults(t, got, want,
						"blockmax vs fresh build eps=%v %v %v r=%v", epsilon, ranking, sem, radius)
					fres, _, err := engFlat.Search(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResults(t, fres, want,
						"slice-served vs fresh build eps=%v %v %v r=%v", epsilon, ranking, sem, radius)
					scan := oracle.Search(q)
					if len(scan) != len(got) {
						t.Fatalf("eps=%v %v %v r=%v: %d results, scan oracle %d", epsilon, ranking, sem, radius, len(got), len(scan))
					}
					for i := range scan {
						if d := got[i].Score - scan[i].Score; got[i].UID != scan[i].UID || d > 1e-9 || d < -1e-9 {
							t.Fatalf("eps=%v %v %v r=%v: result[%d] = %+v, scan oracle %+v",
								epsilon, ranking, sem, radius, i, got[i], scan[i])
						}
					}

					if gs.Candidates != ws.Candidates || gs.PostingsFetched != ws.PostingsFetched {
						t.Fatalf("eps=%v %v %v r=%v: candidates %d / lists %d, fresh build %d / %d",
							epsilon, ranking, sem, radius, gs.Candidates, gs.PostingsFetched, ws.Candidates, ws.PostingsFetched)
					}
					if gs.ThreadsBuilt != 0 || gs.ThreadsPruned != 0 {
						t.Fatalf("eps=%v %v %v r=%v: the engine built %d and pruned %d threads",
							epsilon, ranking, sem, radius, gs.ThreadsBuilt, gs.ThreadsPruned)
					}
				}
			}
		}
	}
}

// TestBlockMaxSkipsBlocks forces the skip machinery to actually fire: a
// rare term (two postings at the far ends of the SID range) ANDed with a
// common term whose 400-posting list spans ~50 eight-posting blocks. The
// rare list drives the intersection, so the common list's middle blocks
// are provably irrelevant from their headers and must be passed over
// undecoded — while results stay identical to a fresh engine over the
// default block size and to the scan oracle.
func TestBlockMaxSkipsBlocks(t *testing.T) {
	base := geo.Point{Lat: 43.7, Lon: -79.4}
	var posts []*social.Post
	for i := 0; i < 400; i++ {
		words := []string{"hotel"}
		if i == 0 || i == 399 {
			words = []string{"hotel", "rare"}
		}
		posts = append(posts, &social.Post{
			SID: social.PostID(i + 1), UID: social.UserID(i%50 + 1),
			Time: time.Unix(int64(i+1), 0), Loc: base, Words: words,
		})
	}

	opts := core.DefaultOptions()
	engBM := buildEngineIndexed(t, posts, opts, 4, func(o *invindex.BuildOptions) { o.BlockSize = 8 })
	engFresh := buildEngineIndexed(t, posts, opts, 4, nil)

	q := core.Query{
		Loc: base, RadiusKm: 5, Keywords: []string{"rare", "hotel"},
		K: 3, Semantic: core.And, Ranking: core.MaxScore,
	}
	got, gs, err := engBM.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := engFresh.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, got, want, "rare AND hotel")
	compareResults(t, got, baseline.NewScanRanker(posts, opts.Params).Search(q), "rare AND hotel vs scan")
	if gs.BlocksSkipped == 0 {
		t.Error("no blocks skipped on a rare-driver AND query")
	}
	if gs.PostingsSkipped == 0 {
		t.Error("no postings skipped on a rare-driver AND query")
	}
	t.Logf("skipped %d blocks (%d postings)", gs.BlocksSkipped, gs.PostingsSkipped)
}

// TestDuplicateQueryKeywordsDeduped is the regression test for repeated
// query keywords: {w, w} must behave exactly like {w} — same results and
// the same number of postings lists pulled, across semantics and rankings.
// (A duplicated keyword under AND must also not demand the term twice.)
func TestDuplicateQueryKeywordsDeduped(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	posts, center := randomCorpus(rng, 600)
	eng := buildEngineIndexed(t, posts, core.DefaultOptions(), 3, nil)

	cases := [][2][]string{
		{{"hotel", "hotel"}, {"hotel"}},
		{{"hotel", "restaurant", "hotel", "restaurants"}, {"hotel", "restaurant"}},
	}
	for _, ranking := range []core.Ranking{core.SumScore, core.MaxScore} {
		for _, sem := range []core.Semantic{core.Or, core.And} {
			for _, kw := range cases {
				dup := core.Query{
					Loc: center, RadiusKm: 20, Keywords: kw[0],
					K: 5, Semantic: sem, Ranking: ranking,
				}
				plain := dup
				plain.Keywords = kw[1]
				got, gs, err := eng.Search(context.Background(), dup)
				if err != nil {
					t.Fatal(err)
				}
				want, ws, err := eng.Search(context.Background(), plain)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResults(t, got, want, "dup keywords %v %v %v", kw[0], ranking, sem)
				if gs.PostingsFetched != ws.PostingsFetched {
					t.Errorf("%v %v %v: duplicated keywords fetched %d lists, deduped %d",
						kw[0], ranking, sem, gs.PostingsFetched, ws.PostingsFetched)
				}
				if gs.Candidates != ws.Candidates {
					t.Errorf("%v %v %v: duplicated keywords found %d candidates, deduped %d",
						kw[0], ranking, sem, gs.Candidates, ws.Candidates)
				}
			}
		}
	}
}
