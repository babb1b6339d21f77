package baseline

import (
	"sort"

	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/social"
)

// CentralizedBuildStats mirrors the construction-side measurements of the
// MapReduce builder for the Figure 5 comparison.
type CentralizedBuildStats struct {
	Keys          int
	PostingsBytes int64
}

// CentralizedBuild constructs the same ⟨geohash, term⟩ → postings index as
// invindex.Build, but on a single thread with a global in-memory
// accumulation — the dataflow of a centralized indexer such as I³ or an
// IR-tree bulk load. It exists so Figure 5 can compare distributed and
// centralized construction on identical inputs. The output file layout is
// one sequential file in global key order.
func CentralizedBuild(fsys *dfs.FS, posts []*social.Post, geohashLen int, path string) (*CentralizedBuildStats, error) {
	if path == "" {
		path = "centralized/index"
	}
	acc := make(map[invindex.Key][]invindex.Posting)
	for _, p := range posts {
		tf := make(map[string]uint32, len(p.Words))
		for _, w := range p.Words {
			tf[w]++
		}
		cell := geo.Encode(p.Loc, geohashLen)
		for w, f := range tf {
			k := invindex.Key{Geohash: cell, Term: w}
			acc[k] = append(acc[k], invindex.Posting{TID: p.SID, TF: f})
		}
	}
	keys := make([]invindex.Key, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })

	w, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	var bytes int64
	for _, k := range keys {
		ps := acc[k]
		sort.Slice(ps, func(i, j int) bool { return ps[i].TID < ps[j].TID })
		enc, err := invindex.EncodeBlockedPostingsList(ps, 0)
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(enc); err != nil {
			return nil, err
		}
		bytes += int64(len(enc))
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return &CentralizedBuildStats{Keys: len(keys), PostingsBytes: bytes}, nil
}
