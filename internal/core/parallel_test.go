package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
)

// identicalResults asserts exact equality — same users, same scores bit
// for bit, same order. The parallel pipeline assembles every stage's
// output in sequential order, so even float accumulation must match.
func identicalResults(t *testing.T, got, want []core.UserResult, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d results, want %d (%v vs %v)", label, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: rank %d = %+v, want %+v", label, i, got[i], want[i])
			return
		}
	}
}

// TestParallelMatchesSequential proves the tentpole determinism claim:
// the parallel pipeline returns byte-identical scores and order to the
// Parallelism=1 baseline, across both semantics, both rankings, windowed
// and unwindowed queries, on randomized corpora.
func TestParallelMatchesSequential(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		rng := rand.New(rand.NewSource(seed))
		posts, center := randomCorpus(rng, 700)

		seqOpts := core.DefaultOptions()
		seqOpts.Parallelism = 1
		parOpts := core.DefaultOptions()
		parOpts.Parallelism = 8

		seqEng := buildEngine(t, posts, seqOpts, 3, []string{"hotel"})
		parEng := buildEngine(t, posts, parOpts, 3, []string{"hotel"})

		// Corpus SIDs are 1..700, so this window keeps the first half.
		window := &core.TimeWindow{From: time.Unix(0, 1), To: time.Unix(0, 350)}
		for _, ranking := range []core.Ranking{core.SumScore, core.MaxScore} {
			for _, sem := range []core.Semantic{core.Or, core.And} {
				for _, win := range []*core.TimeWindow{nil, window} {
					for _, radius := range []float64{10, 40} {
						q := core.Query{
							Loc: center, RadiusKm: radius,
							Keywords: []string{"hotel", "restaurant"},
							K:        5, Semantic: sem, Ranking: ranking,
							TimeWindow: win,
						}
						label := fmt.Sprintf("seed=%d %v %v windowed=%v r=%v",
							seed, ranking, sem, win != nil, radius)
						want, _, err := seqEng.Search(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						got, _, err := parEng.Search(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						identicalResults(t, got, want, label+" parallel")
					}
				}
			}
		}
	}
}

// TestParallelCancellation verifies ctx cancellation propagates through
// the worker pools: a pre-canceled context aborts the query with the
// context's error at every parallelism setting.
func TestParallelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	posts, center := randomCorpus(rng, 300)
	for _, workers := range []int{1, 4} {
		opts := core.DefaultOptions()
		opts.Parallelism = workers
		eng := buildEngine(t, posts, opts, 3, nil)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _, err := eng.Search(ctx, core.Query{
			Loc: center, RadiusKm: 40, Keywords: []string{"hotel"},
			K: 5, Ranking: core.SumScore,
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: canceled context returned err=%v, want context.Canceled", workers, err)
		}
	}
}
