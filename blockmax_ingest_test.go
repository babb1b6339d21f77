package tklus_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	tklus "repro"
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

// TestBlockMaxLosslessAfterIngest checks that block-max early termination
// stays exact after live ingest has raised thread-popularity bounds past
// anything the batch build observed. Two systems over the same blocked
// index (8-posting blocks) receive identical reply batches — one runs the
// default pruning engine, the other an exhaustive oracle with pruning off —
// and every query in a semantics × ranking × keywords grid must
// return bit-identical results before and after the ingest.
func TestBlockMaxLosslessAfterIngest(t *testing.T) {
	posts, loc, roots := blockmaxCorpus()

	cfg := tklus.DefaultConfig()
	cfg.Index.BlockSize = 8
	sys, err := tklus.Build(posts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracleCfg := tklus.DefaultConfig()
	oracleCfg.Index.BlockSize = 8
	oracleCfg.Engine.UsePruning = false
	oracle, err := tklus.Build(posts, oracleCfg)
	if err != nil {
		t.Fatal(err)
	}

	var workSaved int64
	grid := func(phase string) {
		t.Helper()
		for _, keywords := range [][]string{{"hotel"}, {"hotel", "restaurant"}} {
			for _, sem := range []tklus.Semantic{tklus.Or, tklus.And} {
				for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
					q := tklus.Query{
						Loc: loc, RadiusKm: 8, Keywords: keywords,
						K: 5, Semantic: sem, Ranking: ranking,
					}
					got, gs, err := sys.Search(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := oracle.Search(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s %v %v %v", phase, keywords, sem, ranking)
					if len(got) != len(want) {
						t.Fatalf("%s: %v vs oracle %v", label, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("%s rank %d: %+v, oracle %+v", label, i, got[i], want[i])
						}
					}
					workSaved += gs.BlocksSkipped + gs.ThreadsPruned
				}
			}
		}
	}
	grid("pre-ingest")

	// Grow a few mid-list threads far past the batch-computed bounds; both
	// systems see the exact same replies, so RaiseForRoot is the only thing
	// keeping the block-max engine's per-block φ bounds sound.
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
	if err := oracle.Ingest(replies...); err != nil {
		t.Fatal(err)
	}
	grid("post-ingest")

	if workSaved == 0 {
		t.Error("block-max engine neither skipped a block nor pruned a thread across the grid")
	}
}
