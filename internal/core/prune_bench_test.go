package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/popcache"
	"repro/internal/social"
	"repro/internal/telemetry"
	"repro/internal/thread"
)

// noPostings satisfies PostingsSource for engines the prune benchmarks
// drive from a hand-built candidate list; retrieval never runs.
type noPostings struct{}

func (noPostings) GeohashLen() int                                          { return 4 }
func (noPostings) FetchPostings(string, string) ([]invindex.Posting, error) { return nil, nil }

// pruneBenchSetup builds an engine over a 20k-post corpus (a third of the
// posts reply to an earlier one, so popularities vary) and a fixed list of
// 4096 candidates in ascending SID order, as retrieval would hand them to
// the ranking stage. The popularity cache is warm, as it is on a serving
// system, so the numbers are the prune pass plus cache probes rather than
// B⁺-tree thread expansion.
func pruneBenchSetup(b *testing.B) (*Engine, []scoredCandidate) {
	b.Helper()
	rng := rand.New(rand.NewSource(16))
	const nPosts, nCands = 20000, 4096
	center := geo.Point{Lat: 43.7, Lon: -79.4}
	posts := make([]*social.Post, nPosts)
	for i := range posts {
		p := &social.Post{
			SID: social.PostID(i + 1), UID: social.UserID(rng.Intn(nPosts/8) + 1),
			Time: time.Unix(int64(i+1), 0), Loc: center, Words: []string{"hotel"},
		}
		if i > 0 && rng.Float64() < 0.35 {
			parent := posts[rng.Intn(i)]
			p.Kind, p.RUID, p.RSID = social.Reply, parent.UID, parent.SID
		}
		posts[i] = p
	}
	db, err := metadb.Load(metadb.DefaultOptions(), posts)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	bounds := thread.ComputeBounds(posts, opts.Params.ThreadDepth, opts.Params.Epsilon, []string{"hotel"})
	eng, err := NewPartitionedEngine([]Partition{{Source: noPostings{}}}, db, bounds, opts)
	if err != nil {
		b.Fatal(err)
	}
	eng.SetPopularityCache(popcache.New(nPosts))
	cands := make([]scoredCandidate, nCands)
	for i := range cands {
		p := posts[i*nPosts/nCands]
		cands[i] = scoredCandidate{tid: p.SID, matches: 1 + rng.Intn(2), uid: p.UID, delta: rng.Float64()}
		eng.builder.Popularity(p.SID, opts.Params.Epsilon, nil)
	}
	return eng, cands
}

func pruneBenchQuery(ranking Ranking) Query {
	return Query{
		Loc: geo.Point{Lat: 43.7, Lon: -79.4}, RadiusKm: 50,
		Keywords: []string{"hotel"}, K: 5, Semantic: Or, Ranking: ranking,
	}
}

// BenchmarkRankMaxPrune is Algorithm 5's ranking loop over the fixed
// candidate list: one bound evaluation per candidate once the top-k is
// full, a (cached) thread score for each survivor.
func BenchmarkRankMaxPrune(b *testing.B) {
	eng, cands := pruneBenchSetup(b)
	q := pruneBenchQuery(MaxScore)
	terms := QueryTerms(q.Keywords)
	var stats QueryStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.rankMax(context.Background(), &q, terms, cands, &stats, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.ThreadsPruned)/float64(b.N), "pruned/op")
}

// BenchmarkRankSumPrunedPhase1 runs rankSumPruned over the fixed candidate
// list and reports its bound pass — grouping, one φ lookup per candidate,
// the bound sort — from the prune span, beside the whole call's ns/op.
func BenchmarkRankSumPrunedPhase1(b *testing.B) {
	eng, cands := pruneBenchSetup(b)
	q := pruneBenchQuery(SumScore)
	terms := QueryTerms(q.Keywords)
	var stats QueryStats
	var phase1 time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := telemetry.NewSpanRecorder()
		if _, err := eng.rankSumPruned(context.Background(), &q, terms, cands, &stats, rec); err != nil {
			b.Fatal(err)
		}
		phase1 += rec.Total(telemetry.StagePrune)
	}
	b.ReportMetric(float64(phase1.Nanoseconds())/float64(b.N), "phase1-ns/op")
	b.ReportMetric(float64(stats.ThreadsPruned)/float64(b.N), "pruned/op")
}
