// Package experiments reproduces every figure and table of the paper's
// evaluation (Section VI). Each runner returns a Table whose rows mirror
// the series the paper plots; cmd/tklus-bench prints them and
// EXPERIMENTS.md records paper-vs-measured shapes. The package is shared by
// the CLI harness and the root testing.B benchmarks.
package experiments

import (
	"time"

	tklus "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/social"
)

// Config sizes an experiment run. The defaults are laptop-scale; the
// paper's absolute sizes (514 M tweets, a 3-PC Hadoop cluster) are not
// reproducible, the series shapes are.
type Config struct {
	Seed          int64
	NumUsers      int
	NumPosts      int
	QueryPerClass int // queries per keyword-count class (paper: 30)
	K             int // default result size
	// IOLatency is charged per metadata-database page read. The paper's
	// experiments run disk-based with caches off, so thread construction
	// (several I/Os per thread, Section V-B) dominates query time; a small
	// simulated latency reproduces that regime. Zero measures pure CPU.
	IOLatency time.Duration
}

// DefaultConfig is the configuration used by cmd/tklus-bench.
func DefaultConfig() Config {
	return Config{
		Seed: 42, NumUsers: 3000, NumPosts: 40000, QueryPerClass: 30, K: 10,
		IOLatency: 2 * time.Microsecond,
	}
}

// SmallConfig keeps unit tests fast (and CPU-bound: no simulated I/O).
func SmallConfig() Config {
	return Config{Seed: 42, NumUsers: 600, NumPosts: 6000, QueryPerClass: 6, K: 5}
}

// Setup holds the shared corpus, workload, and lazily built systems.
type Setup struct {
	Cfg     Config
	Corpus  *datagen.Corpus
	Queries []datagen.QuerySpec

	systems map[int]*PaperSystem // by geohash length
	// bounds holds the paper's query-level bounds of every system
	// System built, for the paper arm's max-score pruning.
	bounds map[*PaperSystem]*paperBounds
}

// PaperSystem is the paper's build of a corpus (Figure 3): the metadata
// database, the hybrid index two MapReduce jobs write into the simulated
// DFS (Algorithms 2–3), and the level-count table, under an engine that
// resolves rows through the paged database. φ, |P_u| and the SID range come
// from the corpus table, as on the serving path. The serving tklus.System
// indexes through the memtable into a segment instead; only the figures
// build and measure this one.
type PaperSystem struct {
	Engine     *core.Engine
	DB         *metadb.DB
	BuildStats *invindex.BuildStats
}

// PaperConfig configures BuildPaper: the serving configuration's index and
// engine options, plus the two substrates only the paper's build has — the
// paged metadata database and the simulated DFS its MapReduce jobs write
// the index into.
type PaperConfig struct {
	tklus.Config
	DB  metadb.Options
	DFS dfs.Options
}

// DefaultPaperConfig is the paper's standard configuration
// (tklus.DefaultConfig) with the database caches off.
func DefaultPaperConfig() PaperConfig {
	return PaperConfig{Config: tklus.DefaultConfig(), DB: metadb.DefaultOptions(), DFS: dfs.DefaultOptions()}
}

// BuildPaper builds posts the paper's way, under cfg's index geohash
// length and block size, metadata-database options and engine options.
func BuildPaper(posts []*social.Post, cfg PaperConfig) (*PaperSystem, error) {
	db, err := metadb.Load(cfg.DB, posts)
	if err != nil {
		return nil, err
	}
	corpus, err := social.NewCorpus(posts, cfg.Engine.Params.ThreadDepth)
	if err != nil {
		return nil, err
	}
	opts := invindex.DefaultBuildOptions()
	opts.GeohashLen, opts.BlockSize = cfg.Index.GeohashLen, cfg.Index.BlockSize
	idx, stats, err := invindex.Build(dfs.New(cfg.DFS), posts, opts)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewPartitionedEngine([]core.Partition{{Source: idx, Lookup: db}}, corpus, cfg.Engine)
	if err != nil {
		return nil, err
	}
	return &PaperSystem{Engine: eng, DB: db, BuildStats: stats}, nil
}

// NewSetup generates the corpus and the 90-query-style workload.
func NewSetup(cfg Config) (*Setup, error) {
	gen := datagen.DefaultConfig()
	gen.Seed = cfg.Seed
	gen.NumUsers = cfg.NumUsers
	gen.NumPosts = cfg.NumPosts
	corpus, err := datagen.Generate(gen)
	if err != nil {
		return nil, err
	}
	return &Setup{
		Cfg:     cfg,
		Corpus:  corpus,
		Queries: corpus.GenerateQueries(cfg.Seed+1, cfg.QueryPerClass),
		systems: make(map[int]*PaperSystem),
		bounds:  make(map[*PaperSystem]*paperBounds),
	}, nil
}

// System returns (building on first use) the system for a geohash length.
func (s *Setup) System(geohashLen int) (*PaperSystem, error) {
	if sys, ok := s.systems[geohashLen]; ok {
		return sys, nil
	}
	cfg := DefaultPaperConfig()
	cfg.Index.GeohashLen = geohashLen
	cfg.DB.IOLatency = s.Cfg.IOLatency
	sys, err := BuildPaper(s.Corpus.Posts, cfg)
	if err != nil {
		return nil, err
	}
	s.systems[geohashLen] = sys
	// The experiment workload draws its keywords from the 30 meaningful
	// keywords, so specific popularity bounds are precomputed for all of
	// them (the paper limits itself to the top-10 for memory reasons; at
	// this scale the full pool costs a few hundred bytes).
	s.bounds[sys] = newPaperBounds(sys.Engine, s.Corpus.Posts, datagen.MeaningfulKeywords())
	return sys, nil
}

// queriesWithKeywordCount filters the workload to queries with exactly n
// keywords.
func (s *Setup) queriesWithKeywordCount(n int) []datagen.QuerySpec {
	var out []datagen.QuerySpec
	for _, q := range s.Queries {
		if len(q.Keywords) == n {
			out = append(out, q)
		}
	}
	return out
}
