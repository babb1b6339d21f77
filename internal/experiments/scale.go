package experiments

import (
	"fmt"
	"time"

	tklus "repro"
	"repro/internal/core"
	"repro/internal/datagen"
)

// ScaleSweep supports the paper's scalability claim ("the experimental
// results demonstrate the efficiency, effectiveness and scalability of our
// proposals"): corpus size doubles from a quarter of the configured size
// up to double it, and the table reports how construction time, index
// size, and query latency grow. Expected shape: construction and index
// size grow roughly linearly with corpus size; query time tracks the
// number of keyword-matching candidates inside the radius (densification:
// more posts per km² at equal user count), not the corpus size itself.
func (s *Setup) ScaleSweep() (*Table, error) {
	t := &Table{
		Title:   "Scalability — corpus size sweep (geohash length 4)",
		Note:    "expected shape: build/size ~linear in posts; query tracks in-range candidates",
		Headers: []string{"posts", "build", "postings", "keys", "avg query (20 km)", "candidates"},
	}
	sizes := []int{s.Cfg.NumPosts / 4, s.Cfg.NumPosts / 2, s.Cfg.NumPosts, s.Cfg.NumPosts * 2}
	for _, size := range sizes {
		gen := datagen.DefaultConfig()
		gen.Seed = s.Cfg.Seed
		gen.NumUsers = s.Cfg.NumUsers
		gen.NumPosts = size
		corpus, err := datagen.Generate(gen)
		if err != nil {
			return nil, err
		}
		cfg := tklus.DefaultConfig()
		cfg.DB.IOLatency = s.Cfg.IOLatency
		start := time.Now()
		sys, err := tklus.Build(corpus.Posts, cfg)
		if err != nil {
			return nil, err
		}
		buildTime := time.Since(start)

		specs := corpus.GenerateQueries(s.Cfg.Seed+1, 10)[:10] // 10 single-keyword queries
		avg, agg, err := runBatch(s.paper(sys), specs, 20, s.Cfg.K, core.Or, core.SumScore)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", size),
			buildTime.Round(time.Millisecond).String(),
			byteSize(sys.IndexStats.PostingsBytes),
			fmt.Sprintf("%d", sys.IndexStats.Keys),
			ms(avg),
			fmt.Sprintf("%d", agg.Candidates))
	}
	return t, nil
}
