package tklus_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	tklus "repro"
	"repro/internal/baseline"
	"repro/internal/datagen"
)

func buildSystem(t testing.TB, posts int) (*tklus.System, *datagen.Corpus) {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.NumUsers = 500
	cfg.NumPosts = posts
	corpus, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := tklus.Build(corpus.Posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys, corpus
}

func TestBuildAndSearchEndToEnd(t *testing.T) {
	sys, corpus := buildSystem(t, 8000)
	if sys.Store.NumKeys() == 0 {
		t.Fatal("index has no keys")
	}
	if sys.BuildTime <= 0 {
		t.Error("build time not measured")
	}
	toronto := corpus.Config.Cities[0].Center
	for _, ranking := range []int{0, 1} {
		q := tklus.Query{
			Loc: toronto, RadiusKm: 15, Keywords: []string{"restaurant"},
			K: 5, Semantic: tklus.Or,
		}
		if ranking == 1 {
			q.Ranking = tklus.MaxScore
		}
		res, stats, err := sys.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 {
			t.Fatalf("no results for restaurant near Toronto (ranking %d)", ranking)
		}
		if len(res) > 5 {
			t.Fatalf("more than k results: %d", len(res))
		}
		for i := 1; i < len(res); i++ {
			if res[i].Score > res[i-1].Score {
				t.Fatal("results not sorted by score")
			}
		}
		if stats.Cells == 0 || stats.Candidates == 0 {
			t.Errorf("stats look empty: %+v", stats)
		}
	}
}

// TestBuildRejectsDuplicateSID: two posts of one timestamp share an SID,
// the caller's data at fault, so every build path names it with
// tklus.ErrRejected rather than crash the process.
func TestBuildRejectsDuplicateSID(t *testing.T) {
	at := time.Date(2013, 1, 15, 12, 0, 0, 0, time.UTC)
	loc := tklus.Point{Lat: 43.68, Lon: -79.37}
	posts := []*tklus.Post{tklus.NewPost(1, at, loc, "hotel"), tklus.NewPost(2, at, loc, "pizza")}
	cfg := tklus.DefaultConfig()
	if _, err := tklus.Build(posts, cfg); !errors.Is(err, tklus.ErrRejected) {
		t.Errorf("Build: err = %v, want tklus.ErrRejected", err)
	}
	sc := tklus.DefaultShardingConfig()
	if _, err := tklus.BuildSharded(posts, cfg, sc); !errors.Is(err, tklus.ErrRejected) {
		t.Errorf("BuildSharded: err = %v, want tklus.ErrRejected", err)
	}
	rc := tklus.DefaultReplicationConfig()
	rc.Dir = t.TempDir()
	if _, err := tklus.BuildReplicatedSharded(posts, cfg, sc, rc); !errors.Is(err, tklus.ErrRejected) {
		t.Errorf("BuildReplicatedSharded: err = %v, want tklus.ErrRejected", err)
	}
}

func TestBuildRejectsEmptyCorpus(t *testing.T) {
	if _, err := tklus.Build(nil, tklus.DefaultConfig()); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestPostConstructors(t *testing.T) {
	loc := tklus.Point{Lat: 43.68, Lon: -79.37}
	at := time.Date(2013, 1, 15, 12, 0, 0, 0, time.UTC)
	root := tklus.NewPost(7, at, loc, "I'm at the Four Seasons Hotel in Toronto")
	if root.SID != tklus.PostID(at.UnixNano()) {
		t.Errorf("SID = %d, want UnixNano", root.SID)
	}
	wantWords := []string{"i'm", "four", "season", "hotel", "toronto"}
	_ = wantWords // word pipeline verified in textutil; here check keywords present
	found := false
	for _, w := range root.Words {
		if w == "hotel" {
			found = true
		}
	}
	if !found {
		t.Errorf("NewPost words %v missing 'hotel'", root.Words)
	}
	if err := root.Validate(); err != nil {
		t.Errorf("NewPost produced invalid post: %v", err)
	}

	reply := tklus.NewReply(8, at.Add(time.Minute), loc, "great choice!", root)
	if reply.Kind != tklus.Reply || reply.RSID != root.SID || reply.RUID != root.UID {
		t.Errorf("NewReply linkage wrong: %+v", reply)
	}
	fwd := tklus.NewForward(9, at.Add(2*time.Minute), loc, "RT great hotel", root)
	if fwd.Kind != tklus.Forward || fwd.RSID != root.SID {
		t.Errorf("NewForward linkage wrong: %+v", fwd)
	}
	if err := reply.Validate(); err != nil {
		t.Errorf("reply invalid: %v", err)
	}
}

func TestEvidenceReturnsMatchingTexts(t *testing.T) {
	sys, corpus := buildSystem(t, 6000)
	toronto := corpus.Config.Cities[0].Center
	q := tklus.Query{
		Loc: toronto, RadiusKm: 15, Keywords: []string{"restaurant"}, K: 3,
		Ranking: tklus.MaxScore,
	}
	res, _, err := sys.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Skip("no results in this corpus slice")
	}
	texts, err := sys.Evidence(q, res[0].UID, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(texts) == 0 {
		t.Fatal("top user has no evidence tweets")
	}
	for _, text := range texts {
		if text == "" {
			t.Error("empty evidence text")
		}
	}
	// Limit is respected.
	one, err := sys.Evidence(q, res[0].UID, 1)
	if err != nil || len(one) != 1 {
		t.Errorf("limit 1 returned %d texts (%v)", len(one), err)
	}
	// A user that is no candidate yields no evidence.
	none, err := sys.Evidence(q, 99999999, 0)
	if err != nil || len(none) != 0 {
		t.Errorf("non-candidate evidence = %v, %v", none, err)
	}
}

func TestEndToEndWithRawTextPosts(t *testing.T) {
	// Build a tiny corpus through the public constructors only.
	loc := tklus.Point{Lat: 43.68, Lon: -79.37}
	t0 := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	hotelPost := tklus.NewPost(1, t0, loc, "Marriott hotel downtown is lovely")
	var posts []*tklus.Post
	posts = append(posts, hotelPost)
	for i := 0; i < 5; i++ {
		posts = append(posts, tklus.NewReply(tklus.UserID(10+i),
			t0.Add(time.Duration(i+1)*time.Minute), loc, "so true", hotelPost))
	}
	posts = append(posts, tklus.NewPost(2, t0.Add(time.Hour), loc, "best pizza in town"))

	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := sys.Search(context.Background(), tklus.Query{
		Loc: loc, RadiusKm: 5, Keywords: []string{"hotels"}, K: 3, Ranking: tklus.MaxScore,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].UID != 1 {
		t.Fatalf("results = %+v, want only user 1", res)
	}
	// "hotels" stems to "hotel", matching the indexed stem — the query and
	// document pipelines agree.
}

// TestSearchAtTheSeamAndPoles: circles across the antimeridian, around the
// north pole and wide at 60°N — each of which once lost in-radius users —
// answer exactly as the scan oracle, on a System and through the sharded
// router, and every user the oracle ranks posted inside the circle.
func TestSearchAtTheSeamAndPoles(t *testing.T) {
	at := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	var posts []*tklus.Post
	post := func(lat, lon float64) {
		uid := tklus.UserID(len(posts) + 1)
		at = at.Add(time.Minute)
		posts = append(posts, tklus.NewPost(uid, at, tklus.Point{Lat: lat, Lon: lon}, "aurora over the ice"))
	}
	cases := []struct {
		center   tklus.Point
		radiusKm float64
		users    int // the oracle's answer size
	}{
		{tklus.Point{Lat: 0, Lon: 179.99}, 30, 3},
		{tklus.Point{Lat: 0, Lon: -179.99}, 30, 3},
		{tklus.Point{Lat: 80, Lon: 0}, 1500, 4},
		{tklus.Point{Lat: 60, Lon: 0}, 1112, 4},
	}
	// Either side of the seam, and one beyond 30 km of both centres.
	post(0, 179.95)
	post(0.1, -179.9)
	post(-0.05, 179.99)
	post(0, 179.5)
	// Around the pole: across it, on both flanks, at the centre.
	post(88, 180)
	post(82, 90)
	post(82, -90)
	post(80, 0)
	// At 60°N, 1.1 Mm out along the parallel's flanks, and the centre.
	post(61.56, 20.1)
	post(61.56, 20.3)
	post(61.56, -20.2)
	post(60, 0)
	// Elsewhere, so the router has shards to choose among.
	post(43.68, -79.37)
	post(-33.87, 151.21)

	cfg := tklus.DefaultConfig()
	sys, err := tklus.Build(posts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A 1500 km circle around the pole covers ≈ 67k 4-character cells, a
	// fifth of a second of cover per shard; under -race that outlasts the
	// default per-shard timeout, and this test is about answers.
	sc := tklus.DefaultShardingConfig()
	sc.ShardTimeout = time.Minute
	ss, err := tklus.BuildSharded(posts, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	oracle := baseline.NewScanRanker(posts, cfg.Engine.Params)
	for _, c := range cases {
		q := tklus.Query{Loc: c.center, RadiusKm: c.radiusKm, Keywords: []string{"aurora"}, K: 10}
		want := oracle.Search(q)
		if len(want) != c.users {
			t.Fatalf("%v r=%.0f: the oracle ranks %d users, the fixture means %d", c.center, c.radiusKm, len(want), c.users)
		}
		for name, sr := range map[string]tklus.Searcher{"System": sys, "ShardedSystem": ss} {
			got, _, err := sr.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %v r=%.0f km: %v, scan oracle %v", name, c.center, c.radiusKm, got, want)
			}
		}
	}
}
