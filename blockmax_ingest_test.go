package tklus_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	tklus "repro"
	"repro/internal/baseline"
)

// blockmaxCorpus builds a corpus dense enough that, with 8-posting blocks,
// every hot term's postings list spans several blocks: 40 users, each with
// one root near the query point (alternating hotel / restaurant / both) and
// a varying number of replies so thread popularity spreads the scores out.
func blockmaxCorpus() (posts []*tklus.Post, loc tklus.Point, roots []*tklus.Post) {
	loc = tklus.Point{Lat: 43.7, Lon: -79.4}
	at := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	next := func() time.Time { at = at.Add(time.Second); return at }
	texts := []string{"great hotel downtown", "cozy restaurant nearby", "hotel restaurant combo"}
	for u := tklus.UserID(1); u <= 40; u++ {
		p := tklus.Point{Lat: loc.Lat + float64(u%7)*0.002, Lon: loc.Lon - float64(u%5)*0.002}
		root := tklus.NewPost(u, next(), p, texts[int(u)%len(texts)])
		posts = append(posts, root)
		roots = append(roots, root)
		for i := 0; i < int(u)%5; i++ {
			posts = append(posts, tklus.NewReply(200+u, next(), p, "nice view", root))
		}
	}
	return posts, loc, roots
}

// TestBlockMaxLosslessAfterIngest checks that a blocked index (8-posting
// blocks) serving a live system stays exact after ingest has grown threads
// far past anything the batch build observed. Before and after a reply
// batch, every query in a semantics × ranking × keywords grid must return
// bit-identical results to a fresh Build over the same posts and replies
// (default block size), and the same users with the same scores as the
// scan oracle. At ε = 0.6 a thread's first reply lowers φ (one reply
// scores ½), so the popularity table must follow a popularity that falls.
func TestBlockMaxLosslessAfterIngest(t *testing.T) {
	for _, eps := range []float64{0.1, 0.6} {
		posts, loc, roots := blockmaxCorpus()
		cfg := tklus.DefaultConfig()
		cfg.Engine.Params.Epsilon = eps
		blocked := cfg
		blocked.Index.BlockSize = 8
		sys, err := tklus.Build(posts, blocked)
		if err != nil {
			t.Fatal(err)
		}

		grid := func(phase string, corpus []*tklus.Post) {
			t.Helper()
			fresh, err := tklus.Build(corpus, cfg)
			if err != nil {
				t.Fatal(err)
			}
			scan := baseline.NewScanRanker(corpus, cfg.Engine.Params)
			for _, keywords := range [][]string{{"hotel"}, {"hotel", "restaurant"}} {
				for _, sem := range []tklus.Semantic{tklus.Or, tklus.And} {
					for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
						q := tklus.Query{
							Loc: loc, RadiusKm: 8, Keywords: keywords,
							K: 5, Semantic: sem, Ranking: ranking,
						}
						got, _, err := sys.Search(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						want, _, err := fresh.Search(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("ε=%v %s %v %v %v", eps, phase, keywords, sem, ranking)
						scanned := scan.Search(q)
						if len(got) != len(want) || len(got) != len(scanned) {
							t.Fatalf("%s: %v vs fresh build %v, scan oracle %v", label, got, want, scanned)
						}
						for i := range got {
							if got[i] != want[i] {
								t.Errorf("%s rank %d: %+v, fresh build %+v", label, i, got[i], want[i])
							}
							if got[i].UID != scanned[i].UID || math.Abs(got[i].Score-scanned[i].Score) > 1e-12 {
								t.Errorf("%s rank %d: %+v, scan oracle %+v", label, i, got[i], scanned[i])
							}
						}
					}
				}
			}
		}
		grid("pre-ingest", posts)

		// Grow a few mid-list threads far past the batch build's popularities;
		// the level-count table is all that carries them to the next search.
		at := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
		var replies []*tklus.Post
		for _, ri := range []int{3, 17, 29} {
			for i := 0; i < 12; i++ {
				at = at.Add(time.Second)
				replies = append(replies, tklus.NewReply(900+tklus.UserID(i), at, loc, "suddenly busy", roots[ri]))
			}
		}
		if err := sys.Ingest(replies...); err != nil {
			t.Fatal(err)
		}
		grid("post-ingest", append(append([]*tklus.Post{}, posts...), replies...))
	}
}
