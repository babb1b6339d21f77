package tklus_test

import (
	"context"
	"testing"
	"time"

	tklus "repro"
)

func TestNewPostFromText(t *testing.T) {
	g := tklus.DefaultGazetteer()
	at := time.Date(2013, 1, 1, 10, 0, 0, 0, time.UTC)
	p, err := tklus.NewPostFromText(7, at, "best pizza in downtown Toronto hands down", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Inferred location must be the Downtown Toronto entry, not generic
	// Toronto (most specific mention wins).
	if p.Loc.Lat < 43.6 || p.Loc.Lat > 43.7 || p.Loc.Lon > -79.3 || p.Loc.Lon < -79.4 {
		t.Errorf("inferred location %v not in downtown Toronto", p.Loc)
	}
	if _, err := tklus.NewPostFromText(7, at, "no places here", g); err == nil {
		t.Error("placeless text accepted")
	}
}

func TestInferredPostsAreSearchable(t *testing.T) {
	g := tklus.DefaultGazetteer()
	at := time.Date(2013, 1, 1, 10, 0, 0, 0, time.UTC)
	texts := []struct {
		uid  tklus.UserID
		text string
	}{
		{1, "best pizza in Toronto, trust me"},
		{1, "Toronto pizza tour continues"},
		{2, "Manhattan pizza is overrated"},
		{3, "pizza night in Seoul"},
	}
	var posts []*tklus.Post
	for i, tx := range texts {
		p, err := tklus.NewPostFromText(tx.uid, at.Add(time.Duration(i)*time.Minute), tx.text, g)
		if err != nil {
			t.Fatal(err)
		}
		posts = append(posts, p)
	}
	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := sys.Search(context.Background(), tklus.Query{
		Loc: tklus.Point{Lat: 43.6532, Lon: -79.3832}, RadiusKm: 10,
		Keywords: []string{"pizza"}, K: 5, Ranking: tklus.SumScore,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].UID != 1 {
		t.Fatalf("Toronto pizza results = %+v, want only user 1", res)
	}
}

func TestFederatedSearch(t *testing.T) {
	loc := tklus.Point{Lat: 43.68, Lon: -79.37}
	at := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	build := func(uid tklus.UserID, replies int) *tklus.System {
		root := tklus.NewPost(uid, at, loc, "great hotel downtown")
		posts := []*tklus.Post{root}
		for i := 0; i < replies; i++ {
			posts = append(posts, tklus.NewReply(uid+tklus.UserID(100+i),
				at.Add(time.Duration(i+1)*time.Second), loc, "nice", root))
		}
		// More of the user's own hotel posts, none replied to: they leave its
		// max score as it is and give every platform 31 candidates.
		for i := 0; i < 30; i++ {
			posts = append(posts, tklus.NewPost(uid, at.Add(time.Duration(i+1)*time.Minute), loc, "hotel again"))
		}
		sys, err := tklus.Build(posts, tklus.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	platforms := map[string]*tklus.System{
		"twitter":  build(1, 20), // user 1's thread is much bigger
		"weibo":    build(2, 2),
		"mastodon": build(3, 8),
	}
	q := tklus.Query{Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"}, K: 2, Ranking: tklus.MaxScore}
	res, stats, err := tklus.NewFederation(platforms).SearchPlatforms(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("federated results = %+v", res)
	}
	// The federation total sums every platform's work counters.
	if stats.Candidates != 3*31 || stats.PostingsFetched != 3 {
		t.Errorf("federated stats: %d candidates, %d postings lists; want 93 and 3 (31 and 1 per platform)",
			stats.Candidates, stats.PostingsFetched)
	}
	if res[0].Platform != "twitter" || res[0].UID != 1 {
		t.Errorf("top federated result = %+v, want twitter user 1", res[0])
	}
	if res[1].Platform != "mastodon" || res[1].UID != 3 {
		t.Errorf("second federated result = %+v, want mastodon user 3", res[1])
	}
	if res[0].Score < res[1].Score {
		t.Error("federated results not sorted")
	}
	if _, _, err := tklus.NewFederation(nil).SearchPlatforms(context.Background(), q); err == nil {
		t.Error("empty federation accepted")
	}
}
