package tklus_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tklus "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
)

// segGridCorpus generates the shared grid corpus once per test run.
func segGridCorpus(t *testing.T) (*datagen.Corpus, []datagen.QuerySpec) {
	t.Helper()
	gen := datagen.DefaultConfig()
	gen.Seed = 42
	gen.NumUsers = 500
	gen.NumPosts = 4000
	corpus, err := datagen.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	return corpus, corpus.GenerateQueries(43, 3)
}

// segExtras synthesizes posts dated after the corpus, round-robin over a
// few authors near the query hotspots, for the post-seal ingest axis.
func segExtras(corpus *datagen.Corpus, n int) []*tklus.Post {
	at := time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC)
	loc := corpus.Posts[0].Loc
	texts := []string{
		"great hotel downtown", "amazing museum view", "pizza restaurant parking",
	}
	var out []*tklus.Post
	for i := 0; i < n; i++ {
		at = at.Add(time.Minute)
		out = append(out, tklus.NewPost(tklus.UserID(9000+i%5), at, loc, texts[i%len(texts)]))
	}
	return out
}

// TestSegmentedEquivalenceGrid is the acceptance grid: segment-backed
// search must be byte-identical to an in-memory oracle built over the
// same posts, across ε × ranking × radius × semantic × post-seal ingest ×
// time-window — including after compaction. The oracle is a plain batch
// Build over base posts plus extras; the segmented arm builds over the
// base only and ingests the extras live (half sealed, half still in the
// memtable), so the comparison also proves that memtable indexing matches
// the batch mapper exactly.
func TestSegmentedEquivalenceGrid(t *testing.T) {
	corpus, queries := segGridCorpus(t)
	extras := segExtras(corpus, 40)
	allPosts := append(append([]*tklus.Post{}, corpus.Posts...), extras...)

	minAt := corpus.Posts[0].Time
	maxAt := extras[len(extras)-1].Time
	span := maxAt.Sub(minAt)
	midWindow := &tklus.TimeWindow{From: minAt.Add(span / 3), To: minAt.Add(2 * span / 3)}
	lateWindow := &tklus.TimeWindow{From: time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC), To: maxAt}

	for _, eps := range []float64{0.1, 0.3} {
		eps := eps
		t.Run(fmt.Sprintf("eps=%g", eps), func(t *testing.T) {
			cfg := tklus.DefaultConfig()
			cfg.Index.GeohashLen = 5
			cfg.Engine.Params.Epsilon = eps
			oracle, err := tklus.Build(allPosts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			base, err := tklus.Build(corpus.Posts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := tklus.EnableSegments(base, tklus.SegmentOptions{
				Dir:         t.TempDir(),
				BucketWidth: 30 * 24 * time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()
			if seg.Store.SegmentCount() < 2 {
				t.Fatalf("expected the ~6-month corpus to split into multiple segments, got %d",
					seg.Store.SegmentCount())
			}
			// Post-seal ingest: first half of the extras gets sealed into
			// its own segment, the second half stays in the memtable.
			if err := seg.Ingest(extras[:len(extras)/2]...); err != nil {
				t.Fatal(err)
			}
			if err := seg.SealNow(); err != nil {
				t.Fatal(err)
			}
			if err := seg.Ingest(extras[len(extras)/2:]...); err != nil {
				t.Fatal(err)
			}
			if seg.Store.Memtable().Len() == 0 {
				t.Fatal("expected live posts in the memtable")
			}

			grid := func(t *testing.T) {
				prunedTotal := int64(0)
				for qi, spec := range queries {
					for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
						for _, radius := range []float64{5, 15} {
							for _, sem := range []tklus.Semantic{tklus.Or, tklus.And} {
								if sem == tklus.And && len(spec.Keywords) < 2 {
									continue
								}
								for _, win := range []*tklus.TimeWindow{nil, midWindow, lateWindow} {
									q := tklus.Query{
										Loc: spec.Loc, RadiusKm: radius, Keywords: spec.Keywords,
										K: 5, Semantic: sem, Ranking: ranking, TimeWindow: win,
									}
									want, _, err := oracle.Search(context.Background(), q)
									if err != nil {
										t.Fatal(err)
									}
									got, stats, err := seg.Search(context.Background(), q)
									if err != nil {
										t.Fatal(err)
									}
									if !equalResults(got, want) {
										t.Fatalf("query %d (rank=%v r=%.0f sem=%v win=%v): segmented %v, oracle %v",
											qi, ranking, radius, sem, win != nil, got, want)
									}
									prunedTotal += stats.PartitionsPruned
								}
							}
						}
					}
				}
				if prunedTotal == 0 {
					t.Fatal("windowed queries never pruned a partition")
				}
			}
			t.Run("sealed+memtable", grid)

			// Compaction must not change a single result.
			if _, err := seg.Compact(); err != nil {
				t.Fatal(err)
			}
			t.Run("compacted", grid)
		})
	}
}

// TestSegmentedDurableReopen drives the durable lifecycle: build →
// segments → live ingest → crash (no checkpoint) → Load + EnableSegments
// must restore the exact serving state from sealed segments plus WAL
// replay into the memtable; then a clean Save → reopen must as well. The
// clean leg runs once through the handle and once through the System it
// surfaces: the seal-before-rotate ordering lives inside Save, so the
// receiver the caller picked must not matter.
func TestSegmentedDurableReopen(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	cfg := tklus.DefaultConfig()
	// The extras carry a keyword no batch-built posting holds, so a
	// checkpoint that rotates the WAL past an unsealed memtable shows up as
	// a lost candidate, not just as a row count.
	extras := append(extraReplies(roots, loc, 7),
		tklus.NewPost(99001, time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC), loc, "zanzibar hotel rooftop"))
	search := func(t *testing.T, sr tklus.Searcher) [2][]tklus.UserResult {
		t.Helper()
		zanzibar, _, err := sr.Search(context.Background(), tklus.Query{
			Loc: loc, RadiusKm: 5, Keywords: []string{"zanzibar"}, K: 3, Ranking: tklus.MaxScore,
		})
		if err != nil {
			t.Fatal(err)
		}
		return [2][]tklus.UserResult{searchHotel(t, sr, loc), zanzibar}
	}
	same := func(a, b [2][]tklus.UserResult) bool {
		return equalResults(a[0], b[0]) && equalResults(a[1], b[1])
	}

	saves := map[string]func(*tklus.SegmentedSystem, string) error{
		"handle": func(seg *tklus.SegmentedSystem, dir string) error { return seg.Save(dir) },
		"system": func(seg *tklus.SegmentedSystem, dir string) error { return seg.UnderlyingSystem().Save(dir) },
	}
	for name, save := range saves {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			open := func(sys *tklus.System) *tklus.SegmentedSystem {
				t.Helper()
				seg, err := tklus.EnableSegments(sys, tklus.SegmentOptions{
					Dir:         filepath.Join(dir, "segments"),
					BucketWidth: 24 * time.Hour,
					WALDir:      dir,
				})
				if err != nil {
					t.Fatal(err)
				}
				return seg
			}
			load := func() *tklus.System {
				t.Helper()
				sys, err := tklus.Load(dir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}

			sys, err := tklus.Build(posts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.EnableWAL(dir, tklus.WALOptions{}); err != nil {
				t.Fatal(err)
			}
			seg := open(sys)
			if err := save(seg, dir); err != nil {
				t.Fatal(err)
			}
			if err := seg.Ingest(extras...); err != nil {
				t.Fatal(err)
			}
			want := search(t, seg)
			if len(want[1]) != 1 || want[1][0].UID != 99001 {
				t.Fatalf("ingested keyword not served: %v", want[1])
			}
			if err := sys.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			seg.Close()

			// Crash restart: no checkpoint happened since the ingest, so the
			// extras live only in the WAL — both their rows (replayed by Load)
			// and their keywords (replayed into the memtable by EnableSegments).
			sys2 := load()
			seg2 := open(sys2)
			if got := search(t, seg2); !same(got, want) {
				t.Fatalf("after crash restart: got %v, want %v", got, want)
			}

			// Clean shutdown: Save seals the memtable, so the next open serves
			// the extras from a segment and the WAL replay finds nothing to do.
			if _, err := sys2.EnableWAL(dir, tklus.WALOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := save(seg2, dir); err != nil {
				t.Fatal(err)
			}
			if err := sys2.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			seg2.Close()

			seg3 := open(load())
			defer seg3.Close()
			if seg3.Store.Memtable().Len() != 0 {
				t.Fatalf("clean reopen left %d rows in the memtable", seg3.Store.Memtable().Len())
			}
			if got := search(t, seg3); !same(got, want) {
				t.Fatalf("after clean reopen: got %v, want %v", got, want)
			}
		})
	}
}

// TestSnapshotGCSegmentAware pins the checkpoint's gc: it clears orphans a
// crashed seal left behind in the segment directory and never deletes a
// sealed segment file the MANIFEST references, and the data directory holds
// nothing but the store and the WAL.
func TestSnapshotGCSegmentAware(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	dir := t.TempDir()
	cfg := tklus.DefaultConfig()

	sys, err := tklus.Build(posts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.EnableWAL(dir, tklus.WALOptions{}); err != nil {
		t.Fatal(err)
	}
	seg, err := tklus.EnableSegments(sys, tklus.SegmentOptions{
		Dir:         filepath.Join(dir, "segments"),
		BucketWidth: 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	// Plant an orphan that looks exactly like a crashed seal leftover.
	orphan := filepath.Join(dir, "segments", ".tmp-seg-99999999")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Several checkpoints with live ingest in between: each Save runs the
	// gc, which must leave every referenced segment file alone.
	extras := extraReplies(roots, loc, 9)
	for i, p := range extras {
		if err := seg.Ingest(p); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if err := seg.Save(dir); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("snapshot gc left the orphan segment file behind (err=%v)", err)
	}
	if got := dirEntries(t, dir); !slices.Equal(got, []string{"segments", "wal"}) {
		t.Fatalf("data directory holds %v, want only segments and wal", got)
	}
	// Every file the MANIFEST references survived: the directory loads and
	// answers as the live system does.
	loaded, err := tklus.Load(dir, cfg)
	if err != nil {
		t.Fatalf("checkpoint gc broke the committed store: %v", err)
	}
	defer loaded.Close()
	if got, want := searchHotel(t, loaded, loc), searchHotel(t, seg, loc); !equalResults(got, want) {
		t.Fatalf("reloaded store answers %v, live %v", got, want)
	}
	if got := searchHotel(t, seg, loc); len(got) == 0 {
		t.Fatal("post-gc search returned nothing")
	}
}

// TestSegmentedFreshKeywordVisible pins the empty-memtable visibility
// contract: the engine must publish the memtable view even when it was
// empty at refresh time, so a post ingested afterwards — with a keyword
// no sealed segment holds — is a candidate for the very next query
// without waiting for a seal.
func TestSegmentedFreshKeywordVisible(t *testing.T) {
	posts, loc, _ := ingestCorpus()
	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seg, err := tklus.EnableSegments(sys, tklus.SegmentOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	p := tklus.NewPost(99001, time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC), loc, "zanzibar spice market")
	if err := seg.Ingest(p); err != nil {
		t.Fatal(err)
	}
	q := tklus.Query{
		Loc: loc, RadiusKm: 10, Keywords: []string{"zanzibar"}, K: 3, Ranking: tklus.SumScore,
	}
	res, _, err := seg.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].UID != 99001 {
		t.Fatalf("fresh keyword not served from memtable: %v", res)
	}
	// One engine: a shard's partials and the evidence lookup read the same
	// partitions Search does.
	parts, err := seg.SearchPartials(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := core.MergePartials(q, tklus.DefaultConfig().Engine.Params.Alpha, []*tklus.Partials{parts})
	if err != nil {
		t.Fatal(err)
	}
	if !equalResults(merged, res) {
		t.Fatalf("MergePartials(SearchPartials) = %v, Search = %v", merged, res)
	}
	sids, err := seg.Engine.Evidence(q, 99001, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sids) != 1 || sids[0] != p.SID {
		t.Fatalf("evidence for the ingested author = %v, want [%d]", sids, p.SID)
	}
}

// TestSegmentedUseAfterClose pins the lifecycle edges: EnableSegments
// attaches the directory to the system it is given, a system takes one
// directory, and once a system — a plain build over its heap store or one
// with a directory — is closed every path that would touch its store fails
// with ErrClosed instead of faulting on unmapped segments. (Draining
// in-flight searches before Close stays the caller's duty.)
func TestSegmentedUseAfterClose(t *testing.T) {
	posts, loc, _ := ingestCorpus()
	q := tklus.Query{Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"}, K: 3, Ranking: tklus.SumScore}
	for _, withDir := range []bool{false, true} {
		t.Run(fmt.Sprintf("directory=%v", withDir), func(t *testing.T) {
			sys, err := tklus.Build(posts, tklus.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if withDir {
				seg, err := tklus.EnableSegments(sys, tklus.SegmentOptions{Dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if seg != sys {
					t.Fatal("EnableSegments returned a system other than its argument")
				}
				if _, err := tklus.EnableSegments(sys, tklus.SegmentOptions{Dir: t.TempDir()}); err == nil {
					t.Fatal("a second segment directory was attached to the same system")
				}
			}
			if err := sys.SealNow(); err != nil {
				t.Errorf("SealNow on an empty memtable: %v", err)
			}
			if n, err := sys.Compact(); n != 0 || err != nil {
				t.Errorf("Compact with nothing to merge: %d, %v", n, err)
			}
			if res, _, err := sys.Search(context.Background(), q); err != nil || len(res) == 0 {
				t.Fatalf("search before close: %v, %v", res, err)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}

			_, _, err = sys.Search(context.Background(), q)
			if !errors.Is(err, tklus.ErrClosed) {
				t.Errorf("Search after Close: %v, want ErrClosed", err)
			}
			_, err = sys.SearchPartials(context.Background(), q)
			if !errors.Is(err, tklus.ErrClosed) {
				t.Errorf("SearchPartials after Close: %v, want ErrClosed", err)
			}
			_, err = sys.Evidence(q, 1, 0)
			if !errors.Is(err, tklus.ErrClosed) {
				t.Errorf("Evidence after Close: %v, want ErrClosed", err)
			}
			err = sys.Ingest(tklus.NewPost(7, time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC), loc, "late hotel"))
			if !errors.Is(err, tklus.ErrClosed) {
				t.Errorf("Ingest after Close: %v, want ErrClosed", err)
			}
			if err := sys.Save(t.TempDir()); !errors.Is(err, tklus.ErrClosed) {
				t.Errorf("Save after Close: %v, want ErrClosed", err)
			}
			if err := sys.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		})
	}
}

// sameRanking compares an engine answer with the exhaustive oracle's:
// same users in the same order, scores equal up to float rounding.
func sameRanking(got, want []tklus.UserResult) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].UID != want[i].UID || !floatsClose(got[i].Score, want[i].Score) {
			return false
		}
	}
	return true
}

// TestSegmentedConcurrentLifecycle races searchers against everything that
// swaps the engine's partitions: an ingest stream that crosses a time
// bucket every third post (seal + swap), compaction, and checkpoints (seal
// + WAL rotation). Every answer must be the exhaustive ranking over some
// prefix of the stream between what was acknowledged when the search
// started and what was in flight when it ended, and the final answer the
// full-corpus ranking.
//
// The stream is built so that every reachable state is a prefix: new
// candidates come from fresh single-post authors (so neither |P_u| nor a
// thread score moves under a running search), the query has one keyword
// (one memtable read), and the replies in the stream — there to count
// replies into the level-count table beside the searches —
// extend a thread no candidate belongs to.
func TestSegmentedConcurrentLifecycle(t *testing.T) {
	base, loc, _ := ingestCorpus()
	quiet := tklus.NewPost(50, time.Date(2013, 1, 2, 0, 0, 0, 0, time.UTC), loc, "quiet park bench")
	base = append(base, quiet)

	const live = 48
	stream := make([]*tklus.Post, live)
	at := time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC)
	for i := range stream {
		at = at.Add(8 * time.Hour)
		if i%3 == 2 {
			stream[i] = tklus.NewReply(tklus.UserID(3000+i), at, loc, "peaceful spot", quiet)
			continue
		}
		near := tklus.Point{Lat: loc.Lat + float64(i)*0.0005, Lon: loc.Lon}
		stream[i] = tklus.NewPost(tklus.UserID(2000+i), at, near, "lovely hotel stay")
	}
	all := append(append([]*tklus.Post{}, base...), stream...)

	cfg := tklus.DefaultConfig()
	queries := []tklus.Query{
		{Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"}, K: 100, Ranking: tklus.SumScore},
		{Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"}, K: 100, Ranking: tklus.MaxScore},
	}
	// want[qi][j] is the oracle's answer over the base plus stream[:j].
	want := make([][][]tklus.UserResult, len(queries))
	for qi, q := range queries {
		for j := 0; j <= live; j++ {
			oracle := baseline.NewScanRanker(all[:len(base)+j], cfg.Engine.Params)
			want[qi] = append(want[qi], oracle.Search(q))
		}
	}

	dir := t.TempDir()
	sys, err := tklus.Build(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.EnableWAL(dir, tklus.WALOptions{}); err != nil {
		t.Fatal(err)
	}
	defer sys.CloseWAL()
	seg, err := tklus.EnableSegments(sys, tklus.SegmentOptions{
		Dir:          filepath.Join(dir, "segments"),
		BucketWidth:  24 * time.Hour,
		CompactFanIn: 2,
		WALDir:       dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	var acked atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i, p := range stream {
			if err := seg.Ingest(p); err != nil {
				t.Errorf("ingest %d: %v", i, err)
				return
			}
			acked.Store(int64(i + 1))
			if i%5 == 4 {
				if _, err := seg.Compact(); err != nil {
					t.Errorf("compact after %d: %v", i, err)
					return
				}
			}
			if i%8 == 7 {
				if err := seg.Save(dir); err != nil {
					t.Errorf("checkpoint after %d: %v", i, err)
					return
				}
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := w; ; n++ {
				finished := done.Load()
				qi := n % len(queries)
				lo := acked.Load()
				got, _, err := seg.Search(context.Background(), queries[qi])
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				hi := min(acked.Load()+1, live) // the post in flight may already be visible
				matched := false
				for j := lo; j <= hi && !matched; j++ {
					matched = sameRanking(got, want[qi][j])
				}
				if !matched {
					t.Errorf("query %d: answer %v is no oracle ranking over a prefix in [%d, %d]", qi, got, lo, hi)
					return
				}
				if finished {
					return
				}
			}
		}()
	}
	wg.Wait()

	if seg.Store.Seals() < live/3 || seg.Store.Compactions() == 0 {
		t.Fatalf("the stream forced %d seals and %d compactions; the race had nothing to swap",
			seg.Store.Seals(), seg.Store.Compactions())
	}
	for qi, q := range queries {
		got, _, err := seg.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRanking(got, want[qi][live]) {
			t.Fatalf("query %d after the stream: %v, full-corpus oracle %v", qi, got, want[qi][live])
		}
	}
}

// TestSegmentedSearchDoesNoSimulatedIO pins that a ranked query on every
// serving System touches no simulated I/O: rows come from a segment (the
// build image of a Build, a Load or each BuildSharded shard, or the store's
// segments after EnableSegments), φ from the level-count table and |P_u|
// from the corpus table, so no query resolves a key through a paged
// multi-get, saves a page or builds a thread — before and after a live
// ingest. (A serving System holds no paged database or DFS to charge.)
func TestSegmentedSearchDoesNoSimulatedIO(t *testing.T) {
	corpus, queries := segGridCorpus(t)
	build := func() *tklus.System {
		sys, err := tklus.Build(corpus.Posts, tklus.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// ranked runs the query grid through s and requires that no query of it
	// did paged or thread work.
	ranked := func(t *testing.T, phase string, s tklus.Searcher) {
		t.Helper()
		answered := 0
		for qi, spec := range queries {
			for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
				for _, sem := range []tklus.Semantic{tklus.Or, tklus.And} {
					for _, radius := range []float64{5, 25} {
						q := tklus.Query{
							Loc: spec.Loc, RadiusKm: radius, Keywords: spec.Keywords,
							K: 5, Semantic: sem, Ranking: ranking,
						}
						res, st, err := s.Search(context.Background(), q)
						if err != nil {
							t.Fatalf("%s: query %d: %v", phase, qi, err)
						}
						if len(res) > 0 {
							answered++
						}
						if st.DBBatchLookups != 0 || st.DBPagesSaved != 0 || st.ThreadsBuilt != 0 || st.TweetsPulled != 0 {
							t.Fatalf("%s: query %d charged %d batch keys, %d saved pages, %d threads, %d pulled tweets; want none",
								phase, qi, st.DBBatchLookups, st.DBPagesSaved, st.ThreadsBuilt, st.TweetsPulled)
						}
					}
				}
			}
		}
		if answered == 0 {
			t.Fatalf("%s: no query ranked a user", phase)
		}
	}
	ingest := func(s *tklus.System) {
		at := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
		parent := corpus.Posts[len(corpus.Posts)/2]
		if err := s.Ingest(
			tklus.NewPost(9001, at, queries[0].Loc, "great hotel downtown"),
			tklus.NewReply(9002, at.Add(time.Minute), queries[0].Loc, "nice view", parent),
		); err != nil {
			t.Fatal(err)
		}
	}

	built := build()
	ranked(t, "built", built)
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := tklus.Load(dir, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ranked(t, "loaded", loaded)
	ingest(built)
	ranked(t, "built, after ingest", built)

	// The router sums its shards' work counters, so its grid pins every
	// shard at once.
	ss, err := tklus.BuildSharded(corpus.Posts, tklus.DefaultConfig(), tklus.DefaultShardingConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Systems) < 2 {
		t.Fatalf("%d shards: the sharded row pins too little", len(ss.Systems))
	}
	ranked(t, "sharded", ss)

	seg, err := tklus.EnableSegments(build(), tklus.SegmentOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	ranked(t, "segments", seg)
	ingest(seg)
	ranked(t, "segments, after ingest", seg)
}
