package tklus_test

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	tklus "repro"
	"repro/internal/baseline"
)

// ingestCorpus builds a tiny hand-rolled corpus: one "hotel" root per user
// near the query point, each with a few replies, so thread popularity is
// the deciding score component.
func ingestCorpus() (posts []*tklus.Post, loc tklus.Point, roots []*tklus.Post) {
	loc = tklus.Point{Lat: 43.7, Lon: -79.4}
	at := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	next := func() time.Time { at = at.Add(time.Second); return at }
	for u := tklus.UserID(1); u <= 3; u++ {
		root := tklus.NewPost(u, next(), loc, "great hotel downtown")
		posts = append(posts, root)
		roots = append(roots, root)
		for i := 0; i < int(u); i++ { // u1: 1 reply, u2: 2, u3: 3
			posts = append(posts, tklus.NewReply(100+u, next(), loc, "nice view", root))
		}
	}
	return posts, loc, roots
}

// TestIngestRecomputesThreadPopularity is the end-to-end coherence test:
// an ingested reply extends a thread an earlier search already scored, and
// the next search must score with the recomputed φ — matching a system
// freshly built with the reply in the corpus from the start.
func TestIngestRecomputesThreadPopularity(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	q := tklus.Query{
		Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"},
		K: 3, Ranking: tklus.SumScore,
	}
	before, _, err := sys.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	// Grow u1's thread past everyone else's.
	reply := tklus.NewReply(999, time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC),
		loc, "still a nice view", roots[0])
	if err := sys.Ingest(reply); err != nil {
		t.Fatal(err)
	}

	after, _, err := sys.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	scoreOf := func(rs []tklus.UserResult, uid tklus.UserID) float64 {
		for _, r := range rs {
			if r.UID == uid {
				return r.Score
			}
		}
		t.Fatalf("user %d missing from %v", uid, rs)
		return 0
	}
	if !(scoreOf(after, 1) > scoreOf(before, 1)) {
		t.Errorf("u1 score did not grow after ingesting a reply: before %v, after %v",
			scoreOf(before, 1), scoreOf(after, 1))
	}

	// The post-ingest scores must match a system built with the reply in
	// the corpus from the start (sum ranking uses no corpus-global bounds,
	// so the comparison is exact).
	fresh, err := tklus.Build(append(posts, reply), tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fresh.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(want) {
		t.Fatalf("post-ingest results %v, fresh build %v", after, want)
	}
	for i := range after {
		if after[i] != want[i] {
			t.Errorf("rank %d: post-ingest %+v, fresh build %+v", i, after[i], want[i])
		}
	}
}

// TestIngestRaisesMaxRankingBounds is the regression test for the old
// known limitation "max-ranking pruning bounds are batch-computed and not
// raised by live ingest". Two threads grow past the offline MaxObserved
// after Freeze: the first fills the top-k with a score above the stale
// bound, the second (now best) overtakes it. With Ingest recording each
// grown thread's exact φ, max-ranking results must stay exact — identical
// to the scan oracle over the grown corpus and to a fresh batch build.
func TestIngestRaisesMaxRankingBounds(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	at := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	next := func() time.Time { at = at.Add(time.Second); return at }
	var replies []*tklus.Post
	for i := 0; i < 10; i++ { // u1's root is the first candidate in SID order
		replies = append(replies, tklus.NewReply(600+tklus.UserID(i), next(), loc, "still growing", roots[0]))
	}
	for i := 0; i < 25; i++ { // u3's root, a later candidate, grows even larger
		replies = append(replies, tklus.NewReply(700+tklus.UserID(i), next(), loc, "even busier", roots[2]))
	}
	if err := sys.Ingest(replies...); err != nil {
		t.Fatal(err)
	}

	grown := append(append([]*tklus.Post{}, posts...), replies...)
	oracle := baseline.NewScanRanker(grown, tklus.DefaultConfig().Engine.Params)
	fresh, err := tklus.Build(grown, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 3} {
		q := tklus.Query{
			Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"},
			K: k, Ranking: tklus.MaxScore,
		}
		got, _, err := sys.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.Search(q)
		if len(got) != len(want) {
			t.Fatalf("k=%d: post-ingest results %v, scan oracle %v", k, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("k=%d rank %d: post-ingest %+v, scan oracle %+v", k, i, got[i], want[i])
			}
		}
		fwant, _, err := fresh.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(fwant) != len(got) {
			t.Fatalf("k=%d: post-ingest results %v, fresh build %v", k, got, fwant)
		}
		for i := range got {
			if got[i] != fwant[i] {
				t.Errorf("k=%d rank %d: post-ingest %+v, fresh build %+v", k, i, got[i], fwant[i])
			}
		}
	}
}

// TestIngestRules covers the Ingest error paths: out-of-order timestamps
// are rejected and leave the system queryable.
func TestIngestRules(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stale := tklus.NewReply(999, time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC), loc, "late", roots[0])
	if err := sys.Ingest(stale); err == nil {
		t.Error("out-of-order ingest accepted")
	}
	if _, _, err := sys.Search(context.Background(), tklus.Query{
		Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"}, K: 3,
	}); err != nil {
		t.Errorf("system unqueryable after rejected ingest: %v", err)
	}
}

// TestConcurrentSearchAndIngest drives parallel searches against live
// ingests — the serving scenario the RWMutex layering exists for — on the
// end-to-end benchmark's serving composition (hence the no-op WithPopCache),
// and pins what a search after an acknowledged ingest owes: once the writer
// and the searchers have drained, both rankings answer exactly as a fresh
// build over all posts. A memo of φ filled by a search racing the ingest
// that extends the thread breaks this in roughly one system in nine, so 200
// fresh systems catch it with near certainty. Run under -race it is also
// the safety net for the read paths ingest mutates under.
func TestConcurrentSearchAndIngest(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	replies := make([]*tklus.Post, 50)
	at := time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := range replies {
		at = at.Add(time.Second)
		replies[i] = tklus.NewReply(500+tklus.UserID(i%3), at, loc, "busy thread", roots[i%3])
	}
	queries := make([]tklus.Query, 0, 2)
	for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
		queries = append(queries, tklus.Query{
			Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"}, K: 3, Ranking: ranking,
		})
	}
	fresh, err := tklus.Build(slices.Concat(posts, replies), tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]tklus.UserResult, len(queries))
	for i, q := range queries {
		if want[i], _, err = fresh.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}

	for round := 0; round < 200; round++ {
		sys, err := tklus.Build(posts, tklus.DefaultConfig(tklus.WithPopCache(4096), tklus.WithReplySnapshot()))
		if err != nil {
			t.Fatal(err)
		}
		written := make(chan struct{})
		var wg sync.WaitGroup
		for _, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-written:
						return
					default:
					}
					if _, _, err := sys.Search(context.Background(), q); err != nil {
						t.Errorf("search: %v", err)
						return
					}
				}
			}()
		}
		for i, r := range replies {
			if err := sys.Ingest(r); err != nil {
				t.Errorf("ingest %d: %v", i, err)
				break
			}
		}
		close(written)
		wg.Wait()
		if t.Failed() {
			return
		}
		for i, q := range queries {
			got, _, err := sys.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want[i]) {
				t.Fatalf("system %d, %v after 50 acknowledged replies: %v, fresh build over all posts: %v",
					round, q.Ranking, got, want[i])
			}
		}
	}
}
