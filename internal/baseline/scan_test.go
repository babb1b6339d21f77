package baseline

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/score"
	"repro/internal/social"
)

// taxicab measures 100 km per degree along each axis, so the fixture's
// distances — and every δ(p,q) — can be read off the coordinates.
type taxicab struct{}

func (taxicab) DistanceKm(a, b geo.Point) float64 {
	return 100 * (math.Abs(a.Lat-b.Lat) + math.Abs(a.Lon-b.Lon))
}

// TestScanRankerHandComputed checks the oracle every equivalence test and
// benchmark gate trusts against scores worked out by hand from Definitions
// 4–10. The query sits at the origin with r = 10 km and keywords
// {hotel, pizza}; α = 0.5, ε = 0.1, N = 40.
//
//	SID user  km  δ(p,q) words              thread
//	 10  1     0   1.0   hotel pizza        root; replies 20, 30; 40 replies to 20
//	 20  2     5   0.5   hotel              reply to 10 (AND miss)
//	 30  3    50   —     hotel pizza        reply to 10, outside the radius
//	 40  3     2   0.8   nice               reply to 20, no keyword
//	 50  2     8   0.2   hotel hotel pizza  singleton
//	 60  1     2   0.8   coffee             singleton, no keyword
//	 70  3     4   0.6   pizza              singleton (AND miss)
//
// Popularity (Definition 4): φ(10) = 2/2 + 1/3 = 4/3 (levels 1, 2, 1),
// φ(20) = 1/2, φ(50) = φ(70) = ε. Keyword relevance (Definition 6, bag
// model): ρ(10) = 2/40·4/3 = 1/15, ρ(20) = 1/40·1/2 = 0.0125,
// ρ(50) = 3/40·0.1 = 0.0075, ρ(70) = 1/40·0.1 = 0.0025.
// |P_1| = 2, |P_2| = 2, |P_3| = 3.
func TestScanRankerHandComputed(t *testing.T) {
	post := func(sid social.PostID, uid social.UserID, lat, lon float64, words ...string) *social.Post {
		return &social.Post{SID: sid, UID: uid, Time: time.Unix(0, int64(sid)), Loc: geo.Point{Lat: lat, Lon: lon}, Words: words}
	}
	reply := func(p, parent *social.Post) *social.Post {
		p.Kind, p.RUID, p.RSID = social.Reply, parent.UID, parent.SID
		return p
	}
	p10 := post(10, 1, 0, 0, "hotel", "pizza")
	p20 := reply(post(20, 2, 0.05, 0, "hotel"), p10)
	posts := []*social.Post{
		p10, p20,
		reply(post(30, 3, 0.5, 0, "hotel", "pizza"), p10),
		reply(post(40, 3, 0, 0.02, "nice"), p20),
		post(50, 2, 0, 0.08, "hotel", "hotel", "pizza"),
		post(60, 1, 0.02, 0, "coffee"),
		post(70, 3, 0.04, 0, "pizza"),
	}
	params := score.DefaultParams()
	params.Metric = taxicab{}

	type want []core.UserResult
	cases := []struct {
		name    string
		ranking core.Ranking
		sem     core.Semantic
		window  *core.TimeWindow
		k       int
		want    want
	}{
		// Candidates 10, 20, 50, 70. Candidate-only δ(u,q) (Definition 9 over
		// the matching posts): u1 1/2, u2 (0.5+0.2)/2 = 0.35, u3 0.6/3 = 0.2.
		// Sum (Definition 7): u1 ½·1/15 + ½·0.5; u2 ½·(0.0125+0.0075) + ½·0.35;
		// u3 ½·0.0025 + ½·0.2.
		{"or/sum", core.SumScore, core.Or, nil, 3,
			want{{UID: 1, Score: 1.0/30 + 0.25}, {UID: 2, Score: 0.185}, {UID: 3, Score: 0.10125}}},
		// Max (Definition 8) changes only u2: ½·0.0125 + ½·0.35.
		{"or/max", core.MaxScore, core.Or, nil, 3,
			want{{UID: 1, Score: 1.0/30 + 0.25}, {UID: 2, Score: 0.18125}, {UID: 3, Score: 0.10125}}},
		// AND keeps 10 and 50 only: u2 ½·0.0075 + ½·(0.2/2); u3 drops out.
		{"and/sum", core.SumScore, core.And, nil, 3,
			want{{UID: 1, Score: 1.0/30 + 0.25}, {UID: 2, Score: 0.05375}}},
		// Window [5, 45] keeps candidates 10 and 20 (popularity still counts
		// the whole thread): u2 ½·0.0125 + ½·(0.5/2).
		{"or/sum/window", core.SumScore, core.Or, &core.TimeWindow{From: time.Unix(0, 5), To: time.Unix(0, 45)}, 3,
			want{{UID: 1, Score: 1.0/30 + 0.25}, {UID: 2, Score: 0.13125}}},
		{"or/max/window", core.MaxScore, core.Or, &core.TimeWindow{From: time.Unix(0, 5), To: time.Unix(0, 45)}, 3,
			want{{UID: 1, Score: 1.0/30 + 0.25}, {UID: 2, Score: 0.13125}}},
		// k truncates after the sort.
		{"or/sum/k=1", core.SumScore, core.Or, nil, 1,
			want{{UID: 1, Score: 1.0/30 + 0.25}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := NewScanRanker(posts, params).Search(core.Query{
				Loc: geo.Point{}, RadiusKm: 10, Keywords: []string{"hotel", "pizza"},
				K: tc.k, Semantic: tc.sem, Ranking: tc.ranking, TimeWindow: tc.window,
			})
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i, w := range tc.want {
				if got[i].UID != w.UID || math.Abs(got[i].Score-w.Score) > 1e-12 {
					t.Errorf("rank %d: got user %d score %.15f, want user %d score %.15f",
						i+1, got[i].UID, got[i].Score, w.UID, w.Score)
				}
			}
		})
	}
}
