package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/score"
)

// TestParameterSweepMatchesOracle re-runs the engine-vs-oracle equivalence
// across the scoring parameter space: alpha extremes, different N and ε,
// the planar metric, and different thread depths.
func TestParameterSweepMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	posts, center := randomCorpus(rng, 500)

	variants := []func(*score.Params){
		func(p *score.Params) { p.Alpha = 0 },   // distance only
		func(p *score.Params) { p.Alpha = 1 },   // keywords only
		func(p *score.Params) { p.N = 10 },      // stronger keyword weight
		func(p *score.Params) { p.Epsilon = 1 }, // heavy singleton smoothing
		func(p *score.Params) { p.ThreadDepth = 1 },
		func(p *score.Params) { p.Metric = geo.Equirectangular{} },
	}
	for vi, mutate := range variants {
		opts := core.DefaultOptions()
		mutate(&opts.Params)
		if err := opts.Params.Validate(); err != nil {
			t.Fatalf("variant %d invalid: %v", vi, err)
		}
		eng := buildEngine(t, posts, opts, 3)
		oracle := baseline.NewScanRanker(posts, opts.Params)
		for _, ranking := range []core.Ranking{core.SumScore, core.MaxScore} {
			q := core.Query{
				Loc: center, RadiusKm: 25, Keywords: []string{"hotel", "pizza"},
				K: 5, Semantic: core.Or, Ranking: ranking,
			}
			got, _, err := eng.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, got, oracle.Search(q), "variant %d %v", vi, ranking)
		}
	}
}

func TestDuplicateKeywordsCollapse(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	posts, center := randomCorpus(rng, 300)
	eng := buildEngine(t, posts, core.DefaultOptions(), 3)
	q1 := core.Query{Loc: center, RadiusKm: 20, Keywords: []string{"hotel"}, K: 5}
	q2 := core.Query{Loc: center, RadiusKm: 20, Keywords: []string{"hotel", "hotels", "HOTEL"}, K: 5}
	a, _, err := eng.Search(context.Background(), q1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := eng.Search(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, a, b, "duplicate keywords")
}

func TestKLargerThanCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	posts, center := randomCorpus(rng, 100)
	eng := buildEngine(t, posts, core.DefaultOptions(), 3)
	for _, ranking := range []core.Ranking{core.SumScore, core.MaxScore} {
		q := core.Query{Loc: center, RadiusKm: 30, Keywords: []string{"hotel"},
			K: 10000, Ranking: ranking}
		res, _, err := eng.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) > 10000 {
			t.Fatal("more results than k")
		}
		seen := map[int64]bool{}
		for _, r := range res {
			if seen[int64(r.UID)] {
				t.Fatalf("%v: duplicate user %d in results", ranking, r.UID)
			}
			seen[int64(r.UID)] = true
		}
	}
}

// TestHugeKAllocatesByUsers: k is the client's, so it must not size an
// allocation — a query whose circle holds a handful of users answers
// K = 2²⁴ with the same results as K = 20 and allocates what K = 20 does,
// on the engine's rankings and on the router's merge of both.
func TestHugeKAllocatesByUsers(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	posts, center := randomCorpus(rng, 20)
	opts := core.DefaultOptions()
	eng := buildEngine(t, posts, opts, 3)
	ctx := context.Background()
	for _, ranking := range []core.Ranking{core.SumScore, core.MaxScore} {
		for _, leg := range []struct {
			name string
			run  func(q core.Query) ([]core.UserResult, error)
		}{
			{"Search", func(q core.Query) ([]core.UserResult, error) {
				res, _, err := eng.Search(ctx, q)
				return res, err
			}},
			{"MergePartials", func(q core.Query) ([]core.UserResult, error) {
				parts, err := eng.SearchPartials(ctx, q)
				if err != nil {
					return nil, err
				}
				res, _, err := core.MergePartials(q, opts.Params.Alpha, []*core.Partials{parts})
				return res, err
			}},
		} {
			q := core.Query{Loc: center, RadiusKm: 100, Keywords: []string{"hotel", "pizza", "cafe", "club"},
				K: 20, Ranking: ranking}
			want, err := leg.run(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("%v/%s: no results at K = 20", ranking, leg.name)
			}
			q.K = 1 << 24
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := leg.run(q)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v/%s: K = 2²⁴ answered %v, K = 20 %v", ranking, leg.name, got, want)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<20 {
				t.Errorf("%v/%s: K = 2²⁴ allocated %d MB", ranking, leg.name, d>>20)
			}
		}
	}
}

func TestNoCandidatesReturnsEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	posts, _ := randomCorpus(rng, 100)
	eng := buildEngine(t, posts, core.DefaultOptions(), 3)
	// Far away from the corpus entirely.
	q := core.Query{Loc: geo.Point{Lat: -45, Lon: 100}, RadiusKm: 5,
		Keywords: []string{"hotel"}, K: 5}
	res, stats, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || stats.Candidates != 0 {
		t.Errorf("results %v, candidates %d; want none", res, stats.Candidates)
	}
	// Known location, unknown keyword.
	q = core.Query{Loc: geo.Point{Lat: 43.7, Lon: -79.4}, RadiusKm: 20,
		Keywords: []string{"zzzunknownzzz"}, K: 5}
	res, _, err = eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("unknown keyword returned %v", res)
	}
}

func TestCandidateTweetsAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	posts, center := randomCorpus(rng, 300)
	eng := buildEngine(t, posts, core.DefaultOptions(), 3)
	q := core.Query{Loc: center, RadiusKm: 25, Keywords: []string{"hotel"}, K: 5}
	cands, stats, err := eng.CandidateTweets(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Candidates != len(cands) {
		t.Errorf("stats.Candidates %d != len %d", stats.Candidates, len(cands))
	}
	var prev int64
	for _, c := range cands {
		if int64(c.TID) <= prev {
			t.Fatal("candidates not sorted by TID")
		}
		prev = int64(c.TID)
		if c.Matches <= 0 {
			t.Errorf("candidate %d has no matches", c.TID)
		}
		if c.Delta < 0 || c.Delta > 1 {
			t.Errorf("candidate %d delta %v outside [0,1]", c.TID, c.Delta)
		}
	}
	// Full Search must agree with scoring the candidates: every returned
	// user must own at least one candidate.
	res, _, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[int64]bool{}
	for _, c := range cands {
		owners[int64(c.UID)] = true
	}
	for _, r := range res {
		if !owners[int64(r.UID)] {
			t.Errorf("returned user %d owns no candidate tweet", r.UID)
		}
	}
}
