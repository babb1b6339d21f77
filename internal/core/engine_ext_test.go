package core_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/social"
	"repro/internal/thread"
)

// buildEngine assembles a full system (metadata DB, DFS, hybrid index,
// bounds, engine) from a post set — the wiring Figure 3 describes.
func buildEngine(t testing.TB, posts []*social.Post, opts core.Options, geohashLen int) *core.Engine {
	t.Helper()
	db, err := metadb.Load(metadb.DefaultOptions(), posts)
	if err != nil {
		t.Fatal(err)
	}
	fsys := dfs.New(dfs.DefaultOptions())
	bopts := invindex.DefaultBuildOptions()
	bopts.GeohashLen = geohashLen
	idx, _, err := invindex.Build(fsys, posts, bopts)
	if err != nil {
		t.Fatal(err)
	}
	bounds := thread.ComputeBounds(posts, opts.Params.ThreadDepth)
	eng, err := core.NewEngine(idx, db, bounds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// offsetKm returns a point moved north/east by the given km from base.
func offsetKm(base geo.Point, northKm, eastKm float64) geo.Point {
	dLat := northKm / geo.EarthRadiusKm * 180 / math.Pi
	dLon := eastKm / geo.EarthRadiusKm * 180 / math.Pi / math.Cos(base.Lat*math.Pi/180)
	return geo.Point{Lat: base.Lat + dLat, Lon: base.Lon + dLon}
}

// paperExampleCorpus recreates the running example of Figure 1 / Table I:
// seven "hotel" tweets around Toronto. u1 posts A and G close to the query
// point, each with a moderately active thread; u5's tweet E has a much
// larger thread ("considerably more replies and forwards than other
// tweets") but sits farther out. Reply posts carry no query keyword.
func paperExampleCorpus() (posts []*social.Post, queryLoc geo.Point) {
	queryLoc = geo.Point{Lat: 43.6839128037, Lon: -79.37356590}
	hotel := []string{"hotel", "toronto"}
	mk := func(sid social.PostID, uid social.UserID, loc geo.Point, words ...string) *social.Post {
		return &social.Post{
			SID: sid, UID: uid, Time: time.Unix(int64(sid), 0), Loc: loc, Words: words,
		}
	}
	reply := func(sid social.PostID, uid social.UserID, loc geo.Point, parent *social.Post) *social.Post {
		return &social.Post{
			SID: sid, UID: uid, Time: time.Unix(int64(sid), 0), Loc: loc,
			Words: []string{"nice"}, Kind: social.Reply, RUID: parent.UID, RSID: parent.SID,
		}
	}
	// A and G: u1, 1 km from the query; B,C,D,F: other users, 2-4 km out;
	// E: u5, 6 km out.
	a := mk(100, 1, offsetKm(queryLoc, 1, 0), hotel...)
	g := mk(101, 1, offsetKm(queryLoc, 0, 1), hotel...)
	b := mk(102, 2, offsetKm(queryLoc, 2, 0), hotel...)
	c := mk(103, 3, offsetKm(queryLoc, 0, 3), hotel...)
	d := mk(104, 4, offsetKm(queryLoc, -3, 0), hotel...)
	e := mk(105, 5, offsetKm(queryLoc, 0, -6), hotel...)
	f := mk(106, 6, offsetKm(queryLoc, 4, 0), hotel...)
	posts = []*social.Post{a, b, c, d, e, f, g}

	sid := social.PostID(1000)
	uid := social.UserID(100)
	addReplies := func(parent *social.Post, n int) {
		for i := 0; i < n; i++ {
			posts = append(posts, reply(sid, uid, offsetKm(queryLoc, 50, 50), parent))
			sid++
			uid++
		}
	}
	// A and G each lead a 7-reply thread: popularity 3.5, ρ = 3.5/40.
	addReplies(a, 7)
	addReplies(g, 7)
	// E leads a 50-reply thread: popularity 25, ρ = 25/40 = 0.625.
	addReplies(e, 50)
	return posts, queryLoc
}

// TestPaperRunningExample verifies the Section III-C narrative: the
// sum-score ranking returns u1 (two relevant, very close tweets) while the
// maximum-score ranking returns u5 (one outstandingly popular thread).
func TestPaperRunningExample(t *testing.T) {
	posts, queryLoc := paperExampleCorpus()
	eng := buildEngine(t, posts, core.DefaultOptions(), 4)

	q := core.Query{
		Loc: queryLoc, RadiusKm: 10, Keywords: []string{"hotel"},
		K: 1, Semantic: core.Or, Ranking: core.SumScore,
	}
	sumRes, _, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sumRes) != 1 || sumRes[0].UID != 1 {
		t.Errorf("sum top-1 = %+v, want u1", sumRes)
	}

	q.Ranking = core.MaxScore
	maxRes, _, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(maxRes) != 1 || maxRes[0].UID != 5 {
		t.Errorf("max top-1 = %+v, want u5", maxRes)
	}
}

// randomCorpus generates a clustered corpus with reply cascades; reply
// posts may also carry keywords so they become candidates themselves.
func randomCorpus(rng *rand.Rand, n int) ([]*social.Post, geo.Point) {
	center := geo.Point{Lat: 43.7, Lon: -79.4}
	vocab := []string{"hotel", "restaur", "pizza", "game", "cafe", "club", "shop", "coffe", "film", "mall"}
	var posts []*social.Post
	sid := social.PostID(1)
	for i := 0; i < n; i++ {
		nw := rng.Intn(3) + 1
		words := make([]string, nw)
		for j := range nw {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		p := &social.Post{
			SID: sid, UID: social.UserID(rng.Intn(n/4+2) + 1),
			Time: time.Unix(int64(sid), 0),
			Loc: geo.Point{
				Lat: center.Lat + rng.NormFloat64()*0.2,
				Lon: center.Lon + rng.NormFloat64()*0.2,
			},
			Words: words,
		}
		// A third of posts react to an earlier post.
		if len(posts) > 0 && rng.Float64() < 0.35 {
			parent := posts[rng.Intn(len(posts))]
			p.Kind = social.Reply
			if rng.Float64() < 0.4 {
				p.Kind = social.Forward
			}
			p.RUID = parent.UID
			p.RSID = parent.SID
		}
		posts = append(posts, p)
		sid++
	}
	return posts, center
}

// TestEngineMatchesScanOracle cross-checks the index-based engine against
// the exhaustive scan ranker on random corpora, for both rankings, both
// semantics, several radii and geohash lengths.
func TestEngineMatchesScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	posts, center := randomCorpus(rng, 800)
	opts := core.DefaultOptions()
	oracle := baseline.NewScanRanker(posts, opts.Params)

	totalResults := 0
	for _, geohashLen := range []int{2, 3, 4} {
		eng := buildEngine(t, posts, opts, geohashLen)
		for _, ranking := range []core.Ranking{core.SumScore, core.MaxScore} {
			for _, sem := range []core.Semantic{core.Or, core.And} {
				for _, radius := range []float64{5, 15, 40} {
					q := core.Query{
						Loc: center, RadiusKm: radius,
						Keywords: []string{"hotel", "restaurant"},
						K:        5, Semantic: sem, Ranking: ranking,
					}
					got, _, err := eng.Search(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					want := oracle.Search(q)
					compareResults(t, got, want,
						"g%d %v %v r=%v", geohashLen, ranking, sem, radius)
					totalResults += len(got)
				}
			}
		}
	}
	if totalResults < 50 {
		t.Fatalf("only %d results across all configurations; corpus too sparse for a meaningful check", totalResults)
	}
}

// compareResults asserts two ranked lists agree: same length, same scores
// position by position (within float tolerance), and same user at each
// position unless scores tie.
func compareResults(t *testing.T, got, want []core.UserResult, format string, args ...any) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf(format+": result sizes %d vs %d (%v vs %v)",
			append(args, len(got), len(want), got, want)...)
		return
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Errorf(format+": score[%d] = %v, oracle %v", append(args, i, got[i].Score, want[i].Score)...)
			return
		}
		if got[i].UID != want[i].UID && math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Errorf(format+": user[%d] = %d, oracle %d", append(args, i, got[i].UID, want[i].UID)...)
			return
		}
	}
}

func TestAndStricterThanOr(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	posts, center := randomCorpus(rng, 500)
	eng := buildEngine(t, posts, core.DefaultOptions(), 3)
	q := core.Query{
		Loc: center, RadiusKm: 20, Keywords: []string{"hotel", "pizza"},
		K: 10, Semantic: core.And, Ranking: core.SumScore,
	}
	_, andStats, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	q.Semantic = core.Or
	_, orStats, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if andStats.Candidates > orStats.Candidates {
		t.Errorf("AND produced more candidates (%d) than OR (%d)",
			andStats.Candidates, orStats.Candidates)
	}
	if orStats.Candidates == 0 {
		t.Error("OR query matched nothing; corpus generator broken")
	}
}

func TestTimeWindowFiltering(t *testing.T) {
	// Two posts with the same content; only one inside the window.
	base := geo.Point{Lat: 43.7, Lon: -79.4}
	early := time.Date(2012, 10, 1, 0, 0, 0, 0, time.UTC)
	late := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	posts := []*social.Post{
		{SID: social.PostID(early.UnixNano()), UID: 1, Time: early, Loc: base, Words: []string{"hotel"}},
		{SID: social.PostID(late.UnixNano()), UID: 2, Time: late, Loc: base, Words: []string{"hotel"}},
	}
	eng := buildEngine(t, posts, core.DefaultOptions(), 4)
	q := core.Query{
		Loc: base, RadiusKm: 5, Keywords: []string{"hotel"}, K: 10,
		Ranking: core.SumScore,
		TimeWindow: &core.TimeWindow{
			From: early.Add(-time.Hour), To: early.Add(time.Hour),
		},
	}
	res, _, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].UID != 1 {
		t.Errorf("time window results = %+v, want only u1", res)
	}
	// Without the window both users appear.
	q.TimeWindow = nil
	res, _, err = eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Errorf("unwindowed results = %+v, want both users", res)
	}
}

func TestRecencyBoostPrefersNewer(t *testing.T) {
	// Same geometry, same thread sizes; only the timestamps differ.
	base := geo.Point{Lat: 43.7, Lon: -79.4}
	mkThread := func(rootSID social.PostID, uid social.UserID, replies int) []*social.Post {
		root := &social.Post{SID: rootSID, UID: uid, Time: time.Unix(0, int64(rootSID)), Loc: base, Words: []string{"hotel"}}
		out := []*social.Post{root}
		for i := 0; i < replies; i++ {
			out = append(out, &social.Post{
				SID: rootSID + social.PostID(i) + 1, UID: uid + 1000 + social.UserID(i),
				Time: time.Unix(0, int64(rootSID)+int64(i)+1), Loc: base,
				Words: []string{"ok"}, Kind: social.Reply, RUID: uid, RSID: rootSID,
			})
		}
		return out
	}
	var posts []*social.Post
	posts = append(posts, mkThread(1_000_000, 1, 20)...)     // old
	posts = append(posts, mkThread(9_000_000_000, 2, 20)...) // recent
	opts := core.DefaultOptions()
	opts.RecencyHalfLife = 0.2
	eng := buildEngine(t, posts, opts, 4)
	q := core.Query{Loc: base, RadiusKm: 5, Keywords: []string{"hotel"}, K: 2, Ranking: core.MaxScore}
	res, _, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].UID != 2 {
		t.Errorf("recency-boosted results = %+v, want u2 first", res)
	}
}

// TestRecencyMatchesScanOracle pins the recency extension end to end: with
// a half-life set, both rankings — every candidate aged against the one SID
// span the query sampled — and both semantics, at two radii, equal the scan
// oracle's answer.
func TestRecencyMatchesScanOracle(t *testing.T) {
	posts, center := randomCorpus(rand.New(rand.NewSource(24)), 800)
	opts := core.DefaultOptions()
	opts.RecencyHalfLife = 0.3
	oracle := baseline.NewScanRanker(posts, opts.Params)
	oracle.RecencyHalfLife = opts.RecencyHalfLife
	eng := buildEngine(t, posts, opts, 3)
	results := 0
	for _, radius := range []float64{15, 30} {
		for _, ranking := range []core.Ranking{core.SumScore, core.MaxScore} {
			for _, sem := range []core.Semantic{core.Or, core.And} {
				q := core.Query{
					Loc: center, RadiusKm: radius, Keywords: []string{"hotel", "restaurant"},
					K: 5, Semantic: sem, Ranking: ranking,
				}
				got, _, err := eng.Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, got, oracle.Search(q), "recency r=%v %v %v", radius, ranking, sem)
				results += len(got)
			}
		}
	}
	if results < 30 {
		t.Fatalf("only %d results: corpus too sparse for a meaningful check", results)
	}
}

func TestQueryValidation(t *testing.T) {
	posts, center := randomCorpus(rand.New(rand.NewSource(1)), 50)
	eng := buildEngine(t, posts, core.DefaultOptions(), 3)
	bad := []core.Query{
		{Loc: geo.Point{Lat: 99}, RadiusKm: 5, Keywords: []string{"x"}, K: 1},
		{Loc: center, RadiusKm: 0, Keywords: []string{"x"}, K: 1},
		// A real keyword, so only the radius can be what is refused.
		{Loc: center, RadiusKm: math.NaN(), Keywords: []string{"hotel"}, K: 1},
		{Loc: center, RadiusKm: math.Inf(1), Keywords: []string{"hotel"}, K: 1},
		{Loc: center, RadiusKm: math.Inf(-1), Keywords: []string{"hotel"}, K: 1},
		{Loc: center, RadiusKm: 5, Keywords: nil, K: 1},
		{Loc: center, RadiusKm: 5, Keywords: []string{"x"}, K: 0},
		{Loc: center, RadiusKm: 5, Keywords: []string{"x"}, K: 1,
			TimeWindow: &core.TimeWindow{From: time.Unix(10, 0), To: time.Unix(5, 0)}},
	}
	for i, q := range bad {
		if _, _, err := eng.Search(context.Background(), q); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
	// Keywords that are pure stop words reduce to nothing.
	if _, _, err := eng.Search(context.Background(), core.Query{
		Loc: center, RadiusKm: 5, Keywords: []string{"the", "and"}, K: 1,
	}); err == nil {
		t.Error("stop-word-only query accepted")
	}
}
