package core_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/social"
)

// TestSearchContextCancellation verifies a cancelled context aborts the
// query with the context's error, and a live context changes nothing.
func TestSearchContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	posts, center := randomCorpus(rng, 500)
	eng := buildEngine(t, posts, core.DefaultOptions(), 3)
	q := core.Query{Loc: center, RadiusKm: 40, Keywords: []string{"hotel"}, K: 5, Ranking: core.MaxScore}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.Search(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled search returned %v, want context.Canceled", err)
	}

	a, _, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("live context changed results")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("live context changed results")
		}
	}
}

// TestConcurrentQueries verifies the engine is safe for concurrent reads:
// many goroutines issue mixed queries against one engine and every result
// matches the single-threaded answer, while a writer appends reply chains
// by new users to the corpus table the way live ingest does (none of them
// a candidate, none by a candidate's author — so the answers may not move).
// Run with -race to check the counter, scratch and table synchronization.
func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	posts, center := randomCorpus(rng, 600)
	eng := buildEngine(t, posts, core.DefaultOptions(), 3)

	queries := []core.Query{
		{Loc: center, RadiusKm: 10, Keywords: []string{"hotel"}, K: 5, Ranking: core.SumScore},
		{Loc: center, RadiusKm: 25, Keywords: []string{"hotel", "pizza"}, K: 5, Semantic: core.And, Ranking: core.MaxScore},
		{Loc: center, RadiusKm: 40, Keywords: []string{"restaurant", "cafe"}, K: 10, Semantic: core.Or, Ranking: core.MaxScore},
	}
	// Single-threaded reference answers.
	want := make([][]core.UserResult, len(queries))
	for i, q := range queries {
		res, _, err := eng.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			base := social.PostID(len(posts) + 1 + 3*i)
			for j := social.PostID(0); j < 3; j++ {
				p := &social.Post{SID: base + j, UID: social.UserID(1_000_000 + i), Loc: center}
				if j > 0 {
					p.Kind, p.RSID, p.RUID = social.Reply, base+j-1, p.UID
				}
				if err := eng.Corpus.Append(p); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				qi := (w + i) % len(queries)
				got, _, err := eng.Search(context.Background(), queries[qi])
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(want[qi]) {
					t.Errorf("concurrent result size %d != %d", len(got), len(want[qi]))
					return
				}
				for j := range got {
					if got[j] != want[qi][j] {
						t.Errorf("concurrent result[%d] = %+v, want %+v", j, got[j], want[qi][j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
