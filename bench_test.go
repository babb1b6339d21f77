// Benchmarks mirroring the paper's evaluation: one benchmark per table or
// figure (see DESIGN.md §3 for the experiment index) plus ablations of the
// design choices, timing the serving engine. `go test -bench=. -benchmem`
// runs them all; cmd/tklus-bench prints the corresponding paper-style
// series, in the paper's regime — Fig. 12 and the pruning ablation live only
// there, since the serving engine has no bound to prune with.
package tklus_test

import (
	"context"
	"strconv"
	"sync"
	"testing"

	tklus "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/kendall"
	"repro/internal/userstudy"
)

// benchEnv is built once and shared by all benchmarks.
type benchEnv struct {
	corpus  *datagen.Corpus
	queries []datagen.QuerySpec
	sys     *tklus.System // geohash length 4, default options
}

var (
	envOnce sync.Once
	env     *benchEnv
)

func benchSetup(b *testing.B) *benchEnv {
	b.Helper()
	envOnce.Do(func() {
		gen := datagen.DefaultConfig()
		gen.Seed = 42
		gen.NumUsers = 1500
		gen.NumPosts = 15000
		corpus, err := datagen.Generate(gen)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := tklus.Build(corpus.Posts, tklus.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		env = &benchEnv{
			corpus:  corpus,
			queries: corpus.GenerateQueries(43, 10),
			sys:     sys,
		}
	})
	return env
}

// query instantiates a workload spec.
func query(spec datagen.QuerySpec, radius float64, k int, sem core.Semantic, ranking core.Ranking) tklus.Query {
	return tklus.Query{
		Loc: spec.Loc, RadiusKm: radius, Keywords: spec.Keywords,
		K: k, Semantic: sem, Ranking: ranking,
	}
}

func (e *benchEnv) withKeywords(n int) []datagen.QuerySpec {
	var out []datagen.QuerySpec
	for _, q := range e.queries {
		if len(q.Keywords) == n {
			out = append(out, q)
		}
	}
	return out
}

// runBatch executes each spec once against the shared system.
func runBatch(b *testing.B, sys *tklus.System, specs []datagen.QuerySpec,
	radius float64, sem core.Semantic, ranking core.Ranking) {
	b.Helper()
	for _, spec := range specs {
		if _, _, err := sys.Search(context.Background(), query(spec, radius, 10, sem, ranking)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5IndexConstruction measures the paper's hybrid-index
// construction — two MapReduce jobs into the simulated DFS — per geohash
// length (Figure 5), with the centralized single-threaded builder as the
// comparison point. Build indexes through the memtable instead; the paper's
// build is what the figure times.
func BenchmarkFig5IndexConstruction(b *testing.B) {
	e := benchSetup(b)
	for _, length := range []int{1, 2, 3, 4} {
		b.Run(benchName("mapreduce/g", length), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := invindex.DefaultBuildOptions()
				opts.GeohashLen = length
				if _, _, err := invindex.Build(dfs.New(dfs.DefaultOptions()), e.corpus.Posts, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("centralized/g4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fsys := dfs.New(dfs.DefaultOptions())
			if _, err := baseline.CentralizedBuild(fsys, e.corpus.Posts, 4, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig6IndexSize reports the sizes of the paper's MapReduce-built
// index (Figure 6) as benchmark metrics (bytes are the measurement, not
// time).
func BenchmarkFig6IndexSize(b *testing.B) {
	e := benchSetup(b)
	for _, length := range []int{1, 2, 3, 4} {
		b.Run(benchName("g", length), func(b *testing.B) {
			var postings, forward int64
			for i := 0; i < b.N; i++ {
				opts := invindex.DefaultBuildOptions()
				opts.GeohashLen = length
				_, st, err := invindex.Build(dfs.New(dfs.DefaultOptions()), e.corpus.Posts, opts)
				if err != nil {
					b.Fatal(err)
				}
				postings, forward = st.PostingsBytes, st.ForwardBytes
			}
			b.ReportMetric(float64(postings), "postings-bytes")
			b.ReportMetric(float64(forward), "forward-bytes")
		})
	}
}

// BenchmarkFig7GeohashLength measures query latency per geohash length
// (Figure 7) at a 10 km radius.
func BenchmarkFig7GeohashLength(b *testing.B) {
	e := benchSetup(b)
	specs := e.withKeywords(1)
	for _, length := range []int{1, 2, 3, 4} {
		cfg := tklus.DefaultConfig()
		cfg.Index.GeohashLen = length
		sys, err := tklus.Build(e.corpus.Posts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchName("g", length), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runBatch(b, sys, specs, 10, core.Or, core.SumScore)
			}
		})
	}
}

// BenchmarkFig8SingleKeyword measures single-keyword query latency for the
// two rankings across radii (Figure 8).
func BenchmarkFig8SingleKeyword(b *testing.B) {
	e := benchSetup(b)
	specs := e.withKeywords(1)
	for _, radius := range []float64{5, 20, 50, 100} {
		for _, cfg := range []struct {
			name    string
			ranking core.Ranking
		}{{"sum", core.SumScore}, {"max", core.MaxScore}} {
			b.Run(benchName(cfg.name+"/r", int(radius)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runBatch(b, e.sys, specs, radius, core.Or, cfg.ranking)
				}
			})
		}
	}
}

// BenchmarkFig9KendallTau measures the cost of comparing the two rankings
// (Figure 9's metric computation, including both searches).
func BenchmarkFig9KendallTau(b *testing.B) {
	e := benchSetup(b)
	specs := e.withKeywords(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			sumRes, _, err := e.sys.Search(context.Background(), query(spec, 20, 10, core.Or, core.SumScore))
			if err != nil {
				b.Fatal(err)
			}
			maxRes, _, err := e.sys.Search(context.Background(), query(spec, 20, 10, core.Or, core.MaxScore))
			if err != nil {
				b.Fatal(err)
			}
			a := make([]int64, len(sumRes))
			c := make([]int64, len(maxRes))
			for j, r := range sumRes {
				a[j] = int64(r.UID)
			}
			for j, r := range maxRes {
				c[j] = int64(r.UID)
			}
			kendall.TauVariant(a, c)
		}
	}
}

// BenchmarkFig10MultiKeyword measures multi-keyword latency per semantics
// and keyword count (Figure 10) at a 20 km radius.
func BenchmarkFig10MultiKeyword(b *testing.B) {
	e := benchSetup(b)
	for _, sem := range []core.Semantic{core.And, core.Or} {
		for nk := 1; nk <= 3; nk++ {
			specs := e.withKeywords(nk)
			b.Run(benchName(sem.String()+"/kw", nk), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runBatch(b, e.sys, specs, 20, sem, core.MaxScore)
				}
			})
		}
	}
}

// BenchmarkFig13UserStudy measures the simulated judging pipeline
// (Figure 13): search plus panel precision.
func BenchmarkFig13UserStudy(b *testing.B) {
	e := benchSetup(b)
	panel := userstudy.NewPanel(e.corpus, userstudy.DefaultPanel())
	specs := e.withKeywords(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			res, _, err := e.sys.Search(context.Background(), query(spec, 10, 10, core.Or, core.SumScore))
			if err != nil {
				b.Fatal(err)
			}
			panel.Precision(res, spec.Loc, 10, spec.Keywords)
		}
	}
}

// BenchmarkAblationPageCache compares metadata-page caching settings (the
// paper's configuration is cache-off).
func BenchmarkAblationPageCache(b *testing.B) {
	e := benchSetup(b)
	specs := e.withKeywords(1)
	for _, cache := range []int{0, 256} {
		cfg := tklus.DefaultConfig()
		cfg.DB.CacheSize = cache
		sys, err := tklus.Build(e.corpus.Posts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchName("pages", cache), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runBatch(b, sys, specs, 20, core.Or, core.SumScore)
			}
		})
	}
}

// BenchmarkAblationThreadDepth varies Algorithm 1's depth limit.
func BenchmarkAblationThreadDepth(b *testing.B) {
	e := benchSetup(b)
	specs := e.withKeywords(1)
	for _, depth := range []int{1, 4, 8} {
		cfg := tklus.DefaultConfig()
		cfg.Engine.Params.ThreadDepth = depth
		sys, err := tklus.Build(e.corpus.Posts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchName("d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runBatch(b, sys, specs, 20, core.Or, core.SumScore)
			}
		})
	}
}

// BenchmarkCitySumQuerySet is the serving engine on the city-sum query set,
// outside the HTTP harness: the bench-scale corpus (250k posts, 25k users,
// seed 1) built and moved onto a segment store in a temp dir, then 200
// queries per keyword class as Or/Sum searches at r = 15 km, k = 10, one
// search per op through System.Search. `make profile` runs it under
// -cpuprofile, which is how a stage's share of a search's CPU is measured.
func BenchmarkCitySumQuerySet(b *testing.B) {
	// The setup runs once: a benchmark with sub-benchmarks is not re-run
	// to size b.N, only its sub-benchmark is.
	gen := datagen.DefaultConfig()
	gen.Seed, gen.NumUsers, gen.NumPosts = 1, 25000, 250000
	corpus, err := datagen.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := tklus.Build(corpus.Posts, tklus.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if sys, err = tklus.EnableSegments(sys, tklus.SegmentOptions{Dir: b.TempDir()}); err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	var qs []tklus.Query
	for _, spec := range corpus.GenerateQueries(2, 200) {
		qs = append(qs, query(spec, 15, 10, core.Or, core.SumScore))
	}
	b.Run("r15", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := sys.Search(context.Background(), qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTableIVGeohash measures raw geohash encoding (Table IV's
// operation) — the innermost primitive of both construction and search.
func BenchmarkTableIVGeohash(b *testing.B) {
	p := tklus.Point{Lat: -23.994140625, Lon: -46.23046875}
	b.Run("encode4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchGeohashSink = geo.Encode(p, 4)
		}
	})
}

var benchGeohashSink string

func benchName(prefix string, n int) string {
	return prefix + strconv.Itoa(n)
}
