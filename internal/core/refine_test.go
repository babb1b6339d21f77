package core

// Tests that pin bound-then-refine: Search, which ranks on bracketed
// distances and computes the exact δ only for the users that can change the
// top k, answers bit for bit as an eager reference that computes every δ
// first and then ranks the way the rankers did before they bounded.

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/score"
	"repro/internal/segment"
	"repro/internal/social"
)

// eagerSearch is the reference: retrieval, every candidate's exact δ, the
// user table and ρ, then the rankings as they read with no bound — Σρ and
// admit per user, or one offer per candidate.
func eagerSearch(t testing.TB, e *Engine, q Query) []UserResult {
	t.Helper()
	cs, err := e.gather(context.Background(), q, new(scratch))
	if err != nil {
		t.Fatal(err)
	}
	cs.exactDeltas()
	e.resolveUsers(cs)
	rho := e.relevance(cs)
	alpha := e.Opts.Params.Alpha
	tk := newTopK(q.K, len(cs.users))
	if q.Ranking == SumScore {
		for i := range cs.cands {
			cs.users[cs.cands[i].user].rhoSum += rho[i]
		}
		for _, u := range cs.users {
			tk.admit(u.uid, score.Combine(alpha, u.rhoSum, u.du))
		}
		return tk.results()
	}
	for i := range cs.cands {
		c := &cs.cands[i]
		tk.offer(c.UID, score.Combine(alpha, rho[i], cs.users[c.user].du))
	}
	return tk.results()
}

// refineCorpus is n posts by nUsers authors, hours apart, around benchCenter
// at every scale: offsets log-uniform from about a metre to a quarter of the
// globe, so every radius from 10 m to 20,000 km has candidates both well
// inside and near its edge. A third reply to an earlier post.
func refineCorpus(rng *rand.Rand, n, nUsers int) []*social.Post {
	vocab := []string{"hotel", "pizza", "cafe", "club"}
	posts := make([]*social.Post, n)
	for i := range posts {
		ts := time.Unix(int64(i+1)*3600, 0)
		p := &social.Post{
			SID: social.PostID(ts.UnixNano()), UID: social.UserID(rng.Intn(nUsers) + 1), Time: ts,
			Words: []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]},
		}
		deg := math.Pow(10, -5+rng.Float64()*6.3) // 1e-5° to 20°
		p.Loc = geo.Point{
			Lat: math.Max(-90, math.Min(90, benchCenter.Lat+deg*(2*rng.Float64()-1))),
			Lon: benchCenter.Lon + deg*(2*rng.Float64()-1),
		}
		if i > 0 && rng.Float64() < 0.35 {
			parent := posts[rng.Intn(i)]
			p.Kind, p.RUID, p.RSID = social.Reply, parent.UID, parent.SID
		}
		posts[i] = p
	}
	return posts
}

// storeEngine indexes posts (ascending by SID) in a segment store of 30-day
// segments plus a live memtable and returns an engine over it. Its cells are
// two geohash characters wide, so a 20,000 km cover is 1,024 cells.
func storeEngine(tb testing.TB, posts []*social.Post, opts Options) *Engine {
	tb.Helper()
	corpus, err := social.NewCorpus(posts, opts.Params.ThreadDepth)
	if err != nil {
		tb.Fatal(err)
	}
	store, err := segment.OpenStore(tb.TempDir(), segment.Options{GeohashLen: 2, MemtableRows: 700})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() })
	for i, p := range posts {
		if _, err := store.Add(p, uint32(i)); err != nil {
			tb.Fatal(err)
		}
	}
	eng, err := NewPartitionedEngine(storePartitions(store), corpus, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// requireSame fails unless got and want hold the same users with
// bit-identical scores in the same order.
func requireSame(t *testing.T, got, want []UserResult, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, the eager reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].UID != want[i].UID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: result %d is %+v, the eager reference's %+v", what, i, got[i], want[i])
		}
	}
}

// TestRefineNeverChangesAnAnswer: over radii from 10 m to 20,000 km (past
// π/4 the slow path brackets nothing), the haversine and equirectangular
// metrics, with and without the recency extension and time windows, both
// rankings and k of 1, 10 and 200, Search returns exactly the eager
// reference's users and score bits — and it refines users on the way.
func TestRefineNeverChangesAnAnswer(t *testing.T) {
	posts := refineCorpus(rand.New(rand.NewSource(49)), 3000, 300)
	mid := posts[len(posts)/2].Time
	windows := []*TimeWindow{nil, {From: mid.Add(-30 * 24 * time.Hour), To: mid.Add(45 * 24 * time.Hour)}}
	refined := 0
	for _, leg := range []struct {
		name    string
		metric  geo.Metric
		recency float64
	}{
		{"haversine", geo.Haversine{}, 0},
		{"haversine+recency", geo.Haversine{}, 0.3},
		{"equirectangular", geo.Equirectangular{}, 0},
	} {
		opts := DefaultOptions()
		opts.Params.Metric, opts.RecencyHalfLife = leg.metric, leg.recency
		eng := storeEngine(t, posts, opts)
		for _, radius := range []float64{0.01, 0.5, 5, 50, 500, 3000, 20000} {
			for _, w := range windows {
				for _, k := range []int{1, 10, 200} {
					for _, ranking := range []Ranking{SumScore, MaxScore} {
						q := Query{Loc: benchCenter, RadiusKm: radius, Keywords: []string{"hotel", "cafe"}, K: k,
							Ranking: ranking, TimeWindow: w}
						got, stats, err := eng.Search(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						requireSame(t, got, eagerSearch(t, eng, q), leg.name)
						refined += int(stats.UsersRefined)
					}
				}
			}
		}
	}
	if refined == 0 {
		t.Fatal("no query refined a user: the bounds were never put to the test")
	}
}

// TestRefineReplaysTies builds users whose exact scores are bit-equal —
// one post each, at one spot inside the circle, with the same words and no
// replies — below a few stronger users, so the k-th place falls inside the
// tie, and offers the tied users in ascending and in descending UID order.
// Both rankings break the tie as the eager reference does: the max ranking
// keeps the first offered, the sum ranking the smaller UIDs.
func TestRefineReplaysTies(t *testing.T) {
	spot := geo.Point{Lat: benchCenter.Lat + 0.03, Lon: benchCenter.Lon - 0.04} // ~4.5 km out
	for _, descending := range []bool{false, true} {
		var posts []*social.Post
		add := func(uid social.UserID, loc geo.Point, words ...string) {
			ts := time.Unix(int64(len(posts)+1)*60, 0)
			posts = append(posts, &social.Post{SID: social.PostID(ts.UnixNano()), UID: uid, Time: ts, Loc: loc, Words: words})
		}
		for u := social.UserID(1); u <= 3; u++ {
			add(1000+u, benchCenter, "hotel", "hotel", "hotel")
		}
		const tied = 12
		for i := 0; i < tied; i++ {
			uid := social.UserID(100 + i)
			if descending {
				uid = social.UserID(100 + tied - 1 - i)
			}
			add(uid, spot, "hotel")
		}
		eng := storeEngine(t, posts, DefaultOptions())
		for _, k := range []int{4, 8, 14} {
			for _, ranking := range []Ranking{SumScore, MaxScore} {
				q := Query{Loc: benchCenter, RadiusKm: 15, Keywords: []string{"hotel"}, K: k, Ranking: ranking}
				got, _, err := eng.Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				want := eagerSearch(t, eng, q)
				requireSame(t, got, want, "ties")
				if last := want[len(want)-1].Score; want[3].Score != last || want[2].Score == last {
					t.Fatalf("k=%d: the k-th place is not inside the tie: %+v", k, want)
				}
			}
		}
	}
}

// TestWideMaxRefinesFewUsers: a query of the wide-max shape — Or, max
// ranking, 50 km, three keywords, k = 10, thousands of candidates — ranks
// exactly as the eager reference while computing the exact δ for at most
// 5 % of its users.
func TestWideMaxRefinesFewUsers(t *testing.T) {
	eng, _ := kernelEngine(t)
	q := Query{Loc: benchCenter, RadiusKm: 50, Keywords: []string{"hotel", "pizza", "cafe"}, K: 10, Ranking: MaxScore}
	got, stats, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, got, eagerSearch(t, eng, q), "wide-max")
	cands, _, err := eng.CandidateTweets(q)
	if err != nil {
		t.Fatal(err)
	}
	users := map[social.UserID]bool{}
	for _, c := range cands {
		users[c.UID] = true
	}
	if len(cands) < 3000 || stats.UsersRefined == 0 || stats.UsersRefined*20 > int64(len(users)) {
		t.Fatalf("%d candidates of %d users: %d users refined, want 1 to 5 %%", len(cands), len(users), stats.UsersRefined)
	}
	t.Logf("%d candidates of %d users: %d refined", len(cands), len(users), stats.UsersRefined)
}

// TestExitsHandOutExactDeltas: CandidateTweets and SearchPartials hand out
// the exact δ of every candidate, bit-equal to the distance Circle.Distance
// computes, and no pending bound.
func TestExitsHandOutExactDeltas(t *testing.T) {
	eng, queries := kernelEngine(t)
	q := queries[1]
	cands, _, err := eng.CandidateTweets(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.SearchPartials(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := eng.gather(context.Background(), q, new(scratch))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.locs) != len(cands) || !slices.ContainsFunc(cs.cands, func(c CandidateTweet) bool { return c.pending }) {
		t.Fatalf("%d locations for %d candidates, or no bound to replace", len(cs.locs), len(cands))
	}
	circle := geo.NewCircle(q.Loc, q.RadiusKm, eng.Opts.Params.Metric)
	for i, c := range cands {
		d, inside := circle.Distance(cs.locs[i])
		want := score.DistanceScore(d, q.RadiusKm)
		if !inside || c.pending || c.Delta != want || p.Cands[i].Delta != want {
			t.Fatalf("candidate %d: δ %v (pending %v), shipped %v, exact %v", c.TID, c.Delta, c.pending, p.Cands[i].Delta, want)
		}
	}
}

// requireCleanUnion fails unless the row union's scratch is all zero, as
// every call must leave it.
func requireCleanUnion(t *testing.T, sc *scratch) {
	t.Helper()
	if slices.ContainsFunc(sc.rowSet, func(w uint64) bool { return w != 0 }) ||
		slices.ContainsFunc(sc.rowWords, func(w uint64) bool { return w != 0 }) ||
		slices.ContainsFunc(sc.rowTF, func(n uint32) bool { return n != 0 }) || len(sc.carry) != 0 {
		t.Fatal("the row union left bits, counts or carries in the scratch")
	}
}
