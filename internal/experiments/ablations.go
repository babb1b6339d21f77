package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geo"
)

// TableIV reproduces Table IV: the geohash of the paper's example
// coordinate at lengths 1–4.
func (s *Setup) TableIV() (*Table, error) {
	t := &Table{
		Title:   "Table IV — geohash encoding length example",
		Note:    "coordinate (-23.994140625, -46.23046875); paper expects 6 / 6g / 6gx / 6gxp",
		Headers: []string{"length", "geohash"},
	}
	p := geo.Point{Lat: -23.994140625, Lon: -46.23046875}
	for length := 1; length <= 4; length++ {
		t.AddRow(fmt.Sprintf("%d", length), geo.Encode(p, length))
	}
	return t, nil
}

// AblationPruning quantifies what Algorithm 5's upper-bound pruning buys in
// the paper's regime: identical results, fewer threads built.
func (s *Setup) AblationPruning() (*Table, error) {
	t := &Table{
		Title:   "Ablation — upper-bound pruning on/off (max ranking, OR)",
		Note:    "results identical by construction; compare work",
		Headers: []string{"radius (km)", "pruned time", "unpruned time", "threads (pruned)", "threads (unpruned)"},
	}
	sys, err := s.System(4)
	if err != nil {
		return nil, err
	}
	pruned, plain := s.paper(sys), s.paper(sys)
	plain.prune = false
	specs := s.queriesWithKeywordCount(1)
	for _, radius := range []float64{10, 20, 50} {
		pAvg, pStats, err := runBatch(pruned, specs, radius, s.Cfg.K, core.Or, core.MaxScore)
		if err != nil {
			return nil, err
		}
		uAvg, uStats, err := runBatch(plain, specs, radius, s.Cfg.K, core.Or, core.MaxScore)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f", radius), ms(pAvg), ms(uAvg),
			fmt.Sprintf("%d", pStats.ThreadsBuilt), fmt.Sprintf("%d", uStats.ThreadsBuilt))
	}
	return t, nil
}

// AblationThreadDepth varies Algorithm 1's depth limit d and reports the
// query-time cost of deeper thread construction.
func (s *Setup) AblationThreadDepth() (*Table, error) {
	t := &Table{
		Title:   "Ablation — thread depth limit d",
		Note:    "deeper threads cost more metadata I/O per candidate",
		Headers: []string{"depth", "sum time", "tweets pulled"},
	}
	specs := s.queriesWithKeywordCount(1)
	for _, depth := range []int{1, 2, 4, 8} {
		cfg := DefaultPaperConfig()
		cfg.Engine.Params.ThreadDepth = depth
		cfg.DB.IOLatency = s.Cfg.IOLatency
		sys, err := BuildPaper(s.Corpus.Posts, cfg)
		if err != nil {
			return nil, err
		}
		avg, stats, err := runBatch(s.paper(sys), specs, 20, s.Cfg.K, core.Or, core.SumScore)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", depth), ms(avg), fmt.Sprintf("%d", stats.TweetsPulled))
	}
	return t, nil
}

// AblationPageCache compares metadata-database page-cache settings (the
// paper runs with caches off; this shows what a cache would change).
func (s *Setup) AblationPageCache() (*Table, error) {
	t := &Table{
		Title:   "Ablation — metadata DB page cache",
		Note:    "paper config is cache-off; cache converts repeat page reads to hits",
		Headers: []string{"cache pages", "sum time", "page reads", "cache hits"},
	}
	specs := s.queriesWithKeywordCount(1)
	for _, cache := range []int{0, 64, 1024} {
		cfg := DefaultPaperConfig()
		cfg.DB.CacheSize = cache
		cfg.DB.IOLatency = s.Cfg.IOLatency
		sys, err := BuildPaper(s.Corpus.Posts, cfg)
		if err != nil {
			return nil, err
		}
		sys.DB.ResetStats()
		avg, _, err := runBatch(s.paper(sys), specs, 20, s.Cfg.K, core.Or, core.SumScore)
		if err != nil {
			return nil, err
		}
		dbStats := sys.DB.Stats()
		t.AddRow(fmt.Sprintf("%d", cache), ms(avg),
			fmt.Sprintf("%d", dbStats.PageReads), fmt.Sprintf("%d", dbStats.CacheHits))
	}
	return t, nil
}

// Runner is one named experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(*Setup) (*Table, error)
}

// Runners lists every figure, table and ablation in presentation order.
func Runners() []Runner {
	return []Runner{
		{"table4", "Table IV geohash lengths", (*Setup).TableIV},
		{"5", "Figure 5 index construction time", (*Setup).Fig5IndexConstruction},
		{"5w", "Figure 5 companion: worker scaling", (*Setup).Fig5WorkerScaling},
		{"6", "Figure 6 index size", (*Setup).Fig6IndexSize},
		{"7", "Figure 7 geohash length effect", (*Setup).Fig7GeohashLength},
		{"8", "Figure 8 single keyword efficiency", (*Setup).Fig8SingleKeyword},
		{"9", "Figure 9 Kendall tau single keyword", (*Setup).Fig9KendallSingle},
		{"10", "Figure 10 multi-keyword efficiency", (*Setup).Fig10MultiKeyword},
		{"11", "Figure 11 Kendall tau multi-keyword", (*Setup).Fig11KendallMulti},
		{"12", "Figure 12 specific popularity bound", (*Setup).Fig12SpecificBound},
		{"13", "Figure 13 user study precision", (*Setup).Fig13UserStudy},
		{"ablation-pruning", "Ablation: pruning", (*Setup).AblationPruning},
		{"ablation-irtree", "Ablation: hybrid index vs IR-tree retrieval", (*Setup).AblationIRTree},
		{"ablation-depth", "Ablation: thread depth", (*Setup).AblationThreadDepth},
		{"ablation-cache", "Ablation: page cache", (*Setup).AblationPageCache},
		{"latency", "Latency distribution summary", (*Setup).LatencySummary},
		{"scale", "Scalability: corpus size sweep", (*Setup).ScaleSweep},
		{"effectiveness", "Effectiveness: latent expert recovery", (*Setup).ExpertRecovery},
	}
}
