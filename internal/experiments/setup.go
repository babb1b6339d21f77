// Package experiments reproduces every figure and table of the paper's
// evaluation (Section VI). Each runner returns a Table whose rows mirror
// the series the paper plots; cmd/tklus-bench prints them and
// EXPERIMENTS.md records paper-vs-measured shapes. The package is shared by
// the CLI harness and the root testing.B benchmarks.
package experiments

import (
	"fmt"
	"time"

	tklus "repro"
	"repro/internal/datagen"
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

	systems map[int]*tklus.System // by geohash length
	// bounds holds the paper's query-level bounds of every system
	// System built, for the paper arm's max-score pruning.
	bounds map[*tklus.System]*paperBounds
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
		systems: make(map[int]*tklus.System),
		bounds:  make(map[*tklus.System]*paperBounds),
	}, nil
}

// System returns (building on first use) the system for a geohash length.
func (s *Setup) System(geohashLen int) (*tklus.System, error) {
	if sys, ok := s.systems[geohashLen]; ok {
		return sys, nil
	}
	cfg := tklus.DefaultConfig()
	cfg.Index.GeohashLen = geohashLen
	cfg.Index.PathPrefix = fmt.Sprintf("index-g%d", geohashLen)
	cfg.DB.IOLatency = s.Cfg.IOLatency
	sys, err := tklus.Build(s.Corpus.Posts, cfg)
	if err != nil {
		return nil, err
	}
	s.systems[geohashLen] = sys
	// The experiment workload draws its keywords from the 30 meaningful
	// keywords, so specific popularity bounds are precomputed for all of
	// them (the paper limits itself to the top-10 for memory reasons; at
	// this scale the full pool costs a few hundred bytes).
	s.bounds[sys] = newPaperBounds(sys, s.Corpus.Posts, datagen.MeaningfulKeywords())
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
