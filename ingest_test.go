package tklus_test

import (
	"context"
	"sync"
	"testing"
	"time"

	tklus "repro"
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

// TestIngestInvalidatesPopCache is the end-to-end coherence test: a search
// warms the popularity cache, an ingested reply extends a cached thread,
// and the next search must score with the recomputed φ — matching a system
// freshly built with the reply in the corpus from the start.
func TestIngestInvalidatesPopCache(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	sys, err := tklus.Build(posts, tklus.DefaultConfig(tklus.WithPopCache(64)))
	if err != nil {
		t.Fatal(err)
	}
	cache := sys.PopCache

	q := tklus.Query{
		Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"},
		K: 3, Ranking: tklus.SumScore,
	}
	before, warmStats, err := sys.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 {
		t.Fatal("search did not warm the popularity cache")
	}
	if _, stats, err := sys.Search(context.Background(), q); err != nil {
		t.Fatal(err)
	} else if stats.PopCacheHits == 0 {
		t.Fatalf("repeat search got no cache hits (warm run: %+v)", warmStats)
	}

	// Grow u1's thread past everyone else's.
	reply := tklus.NewReply(999, time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC),
		loc, "still a nice view", roots[0])
	if err := sys.Ingest(reply); err != nil {
		t.Fatal(err)
	}
	if inv := cache.Stats().Invalidations; inv == 0 {
		t.Fatal("ingest into a cached thread evicted nothing")
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
// bound, so under stale bounds the second (now best) candidate's optimistic
// upper bound would fall below the kth score and Algorithm 5 would prune
// the true winner. With Ingest raising the bounds, pruned max-ranking
// results must stay exact — identical to a pruning-off oracle and to a
// fresh batch build.
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

	oracleCfg := tklus.DefaultConfig()
	oracleCfg.Engine.UsePruning = false
	oracle, err := tklus.Build(append(append([]*tklus.Post{}, posts...), replies...), oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := tklus.Build(append(append([]*tklus.Post{}, posts...), replies...), tklus.DefaultConfig())
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
		want, _, err := oracle.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: post-ingest results %v, pruning-off oracle %v", k, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("k=%d rank %d: post-ingest %+v, oracle %+v", k, i, got[i], want[i])
			}
		}
		fwant, _, err := fresh.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
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
// ingests — the serving scenario the RWMutex layering and the sharded
// cache exist for. Run under -race this is the PR's main safety net.
func TestConcurrentSearchAndIngest(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	sys, err := tklus.Build(posts, tklus.DefaultConfig(tklus.WithPopCache(64)))
	if err != nil {
		t.Fatal(err)
	}
	q := tklus.Query{
		Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"},
		K: 3, Ranking: tklus.SumScore,
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		at := time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i < 50; i++ {
			at = at.Add(time.Second)
			r := tklus.NewReply(500+tklus.UserID(i%3), at, loc, "busy thread", roots[i%3])
			if err := sys.Ingest(r); err != nil {
				t.Errorf("ingest %d: %v", i, err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, _, err := sys.Search(context.Background(), q); err != nil {
					t.Errorf("search: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
