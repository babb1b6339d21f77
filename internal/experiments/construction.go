package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/dfs"
	"repro/internal/invindex"
)

// Fig5IndexConstruction reproduces Figure 5: index construction time as the
// geohash length varies from 1 to 4, with a single-threaded centralized
// builder (the I³-style comparison point) on the same input. The paper's
// finding: MapReduce construction time is insensitive to the geohash
// configuration and far cheaper per tweet than centralized construction.
func (s *Setup) Fig5IndexConstruction() (*Table, error) {
	t := &Table{
		Title:   "Figure 5 — index construction time vs geohash length",
		Note:    "expected shape: MapReduce time ~flat across lengths 1-4; centralized slower",
		Headers: []string{"geohash len", "mapreduce", "centralized", "keys"},
	}
	for length := 1; length <= 4; length++ {
		// Time a fresh MapReduce build (Setup.System caches, so build here).
		cfg := DefaultPaperConfig()
		cfg.Index.GeohashLen = length
		start := time.Now()
		sys, err := BuildPaper(s.Corpus.Posts, cfg)
		if err != nil {
			return nil, err
		}
		mrTime := time.Since(start)

		centralFS := dfs.New(dfs.DefaultOptions())
		start = time.Now()
		if _, err := baseline.CentralizedBuild(centralFS, s.Corpus.Posts, length, ""); err != nil {
			return nil, err
		}
		centralTime := time.Since(start)

		t.AddRow(fmt.Sprintf("%d", length),
			mrTime.Round(time.Millisecond).String(),
			centralTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", sys.BuildStats.Keys))
	}
	return t, nil
}

// Fig5WorkerScaling complements Figure 5: the paper's construction-speed
// claim rests on distributing work over a cluster. In-process, the build
// is allocation-bound, so goroutine count barely moves wall-clock time;
// what the table demonstrates is that the MapReduce coordination overhead
// (splitting, shuffling, merging) is flat in the worker count — the
// structural property that lets the same dataflow scale out on real nodes.
func (s *Setup) Fig5WorkerScaling() (*Table, error) {
	t := &Table{
		Title:   "Figure 5 (companion) — MapReduce worker scaling, geohash length 4",
		Note:    "flat time = coordination overhead independent of workers (build is allocation-bound in-process)",
		Headers: []string{"workers (map=reduce)", "build time"},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		opts := invindex.DefaultBuildOptions()
		opts.Mappers = workers
		opts.Reducers = workers
		fsys := dfs.New(dfs.DefaultOptions())
		start := time.Now()
		if _, _, err := invindex.Build(fsys, s.Corpus.Posts, opts); err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", workers), time.Since(start).Round(time.Millisecond).String())
	}
	return t, nil
}

// Fig6IndexSize reproduces Figure 6: hybrid index size as the geohash
// length varies. The paper's finding: the size is "very steady" across
// configurations.
func (s *Setup) Fig6IndexSize() (*Table, error) {
	t := &Table{
		Title:   "Figure 6 — index size vs geohash length",
		Note:    "expected shape: postings size ~steady across lengths 1-4",
		Headers: []string{"geohash len", "postings (DFS)", "forward (mem)", "keys"},
	}
	for length := 1; length <= 4; length++ {
		sys, err := s.System(length)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", length),
			byteSize(sys.BuildStats.PostingsBytes),
			byteSize(sys.BuildStats.ForwardBytes),
			fmt.Sprintf("%d", sys.BuildStats.Keys))
	}
	return t, nil
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
