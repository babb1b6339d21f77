package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/segment"
	"repro/internal/social"
	"repro/internal/telemetry"
)

// benchPostings satisfies PostingsSource with one postings list, served for
// one ⟨cell, term⟩ key as a slice iterator. The rank benchmark leaves it
// empty — it drives the rankers from a hand-built candidate set and
// retrieval never runs.
type benchPostings struct {
	cell string
	list []invindex.Posting
}

func (benchPostings) GeohashLen() int { return 4 }
func (s benchPostings) OpenPostings(cell, _ string) (*invindex.PostingsIterator, error) {
	if cell != s.cell || len(s.list) == 0 {
		return nil, nil
	}
	return invindex.NewSliceIterator(s.list), nil
}

var benchCenter = geo.Point{Lat: 43.7, Lon: -79.4}

// benchCorpus is 20k single-keyword posts over nUsers authors; a third of
// the posts reply to an earlier one, so popularities vary. Every spread-th
// post sits ~17 km off the centre and the rest on it, so a 15 km query
// keeps most tweets and still exercises the radius rejection.
func benchCorpus(rng *rand.Rand, nUsers, spread int) []*social.Post {
	posts := make([]*social.Post, 20000)
	for i := range posts {
		p := &social.Post{
			SID: social.PostID(i + 1), UID: social.UserID(rng.Intn(nUsers) + 1),
			Time: time.Unix(int64(i+1), 0), Loc: benchCenter, Words: []string{"hotel"},
		}
		if spread > 0 && i%spread == 0 {
			p.Loc.Lat += 0.15
		}
		if i > 0 && rng.Float64() < 0.35 {
			parent := posts[rng.Intn(i)]
			p.Kind, p.RUID, p.RSID = social.Reply, parent.UID, parent.SID
		}
		posts[i] = p
	}
	return posts
}

func benchEngine(b *testing.B, posts []*social.Post, src PostingsSource) *Engine {
	b.Helper()
	db, err := metadb.Load(metadb.DefaultOptions(), posts)
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := social.NewCorpus(posts, DefaultOptions().Params.ThreadDepth)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	eng, err := NewPartitionedEngine([]Partition{{Source: src, Lookup: db}}, corpus, opts)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkRankFromPhi is the ranking stage over a prepared candidate set
// in ascending SID order, as the filter would leave it: the user table and
// its |P_u| batch, one φ batch over the candidates, then Σρ and top-k (sum)
// or one top-k offer per candidate (max). The sum leg has the city-sum
// candidate count, the max leg the wide-max one, with several candidates
// per user.
func BenchmarkRankFromPhi(b *testing.B) {
	for _, leg := range []struct {
		name           string
		ranking        Ranking
		nCands, nUsers int
	}{
		{"sum", SumScore, 1146, 2500},
		{"max", MaxScore, 4400, 1700},
	} {
		b.Run(leg.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(16))
			posts := benchCorpus(rng, leg.nUsers, 0)
			eng := benchEngine(b, posts, benchPostings{})
			q := Query{Loc: benchCenter, RadiusKm: 50, Keywords: []string{"hotel"}, K: 5, Semantic: Or, Ranking: leg.ranking}
			cs := &candidateSet{
				q: q, terms: QueryTerms(q.Keywords), cands: make([]CandidateTweet, leg.nCands), sc: new(scratch),
				stats: &QueryStats{}, rec: telemetry.NewSpanRecorder(), start: time.Now(),
			}
			for i := range cs.cands {
				j := i * len(posts) / len(cs.cands)
				p := posts[j]
				cs.cands[i] = CandidateTweet{TID: p.SID, Matches: 1 + rng.Intn(2), UID: p.UID, Delta: rng.Float64(), post: uint32(j)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.resolveUsers(cs)
				rho := eng.relevance(cs)
				if leg.ranking == SumScore {
					eng.rankSum(cs, rho)
				} else {
					eng.rankMax(cs, rho)
				}
			}
			b.ReportMetric(float64(len(cs.users)), "users")
		})
	}
}

// BenchmarkGatherFilter pushes 4096 merged postings through gather. With one
// keyword the merge is a copy and the filter (row resolution and the radius
// check) is the work — once against the paged row store's multi-get (one
// partition, one postings list) and once against a segment store holding the
// same rows in seven sealed segments plus a live memtable, each partition
// reading its postings' records by row ordinal. The union leg spreads the same
// postings over three terms of that store (a third of the tweets carrying
// two, some all three), so every partition runs a real three-way OR merge.
func BenchmarkGatherFilter(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	posts := benchCorpus(rng, 2500, 4)
	src := benchPostings{cell: geo.Encode(benchCenter, 4)}
	matching := make(map[social.PostID]int, 4096)
	for i := 0; i < 4096; i++ {
		sid := posts[i*len(posts)/4096].SID
		src.list = append(src.list, invindex.Posting{TID: sid, TF: 1})
		matching[sid] = i
	}
	unionWords := [][]string{{"hotel"}, {"pizza"}, {"cafe"}, {"hotel", "pizza"}, {"pizza", "cafe"}, {"hotel", "pizza", "cafe"}}
	for _, leg := range []string{"paged", "segment", "union"} {
		b.Run(leg, func(b *testing.B) {
			eng := benchEngine(b, posts, src)
			q := Query{Loc: benchCenter, RadiusKm: 15, Keywords: []string{"hotel"}, K: 5, Semantic: Or}
			if leg != "paged" {
				store, err := segment.OpenStore(b.TempDir(), segment.Options{GeohashLen: 4, MemtableRows: 2600})
				if err != nil {
					b.Fatal(err)
				}
				defer store.Close()
				for i, p := range posts { // ascending by SID: post i is ordinal i
					cp := *p
					if i, ok := matching[p.SID]; !ok {
						cp.Words = []string{"other"}
					} else if leg == "union" {
						cp.Words = unionWords[i%len(unionWords)]
					}
					if _, err := store.Add(&cp, uint32(i)); err != nil {
						b.Fatal(err)
					}
				}
				parts := storePartitions(store)
				eng.SetPartitions(parts)
				b.ReportMetric(float64(len(parts)), "partitions")
				if leg == "union" {
					q.Keywords = unionWords[len(unionWords)-1]
				}
			}
			var kept int
			sc := new(scratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs, err := eng.gather(context.Background(), q, sc)
				if err != nil {
					b.Fatal(err)
				}
				kept = len(cs.cands)
			}
			b.ReportMetric(float64(kept), "candidates")
		})
	}
}
