package invindex

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/mapreduce"
	"repro/internal/social"
)

// BuildOptions configures index construction.
type BuildOptions struct {
	// GeohashLen is the geohash encoding length in characters (the paper
	// evaluates 1 through 4 and settles on 4).
	GeohashLen int
	// Mappers and Reducers set the MapReduce parallelism (3-node cluster
	// in the paper; defaults 4/4 here).
	Mappers  int
	Reducers int
	// PathPrefix places the postings files in the DFS namespace,
	// e.g. "index" -> index/part-00000.
	PathPrefix string
	// BlockSize is the postings-per-block target of the blocked layout
	// (non-positive selects DefaultBlockSize).
	BlockSize int
}

// DefaultBuildOptions returns the 4-length-geohash configuration used by
// most of the paper's experiments.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{GeohashLen: 4, Mappers: 4, Reducers: 4, PathPrefix: "index"}
}

// BuildStats reports construction-side measurements for Figures 5 and 6.
type BuildStats struct {
	InvertedJob   mapreduce.Counters // Algorithm 2/3 job
	ForwardJob    mapreduce.Counters // forward-index job
	Keys          int                // distinct ⟨geohash, term⟩ keys
	PostingsBytes int64              // bytes written to the DFS
	ForwardBytes  int64              // estimated in-memory forward index size
}

// entryRef locates one postings list inside the DFS.
type entryRef struct {
	file   string
	offset int64
	length int64
	count  int // number of postings, exposed for stats and planning
}

// Index is the queryable hybrid index. After Build it is read-only and
// safe for concurrent use.
type Index struct {
	fs         *dfs.FS
	geohashLen int
	forward    map[Key]entryRef
	fetches    atomic.Int64 // postings lists fetched since ResetStats
}

// Build constructs the hybrid index over posts with two MapReduce jobs and
// stores the postings lists in fsys. Posts must already carry their term
// bags (social.Post.Words).
func Build(fsys *dfs.FS, posts []*social.Post, opts BuildOptions) (*Index, *BuildStats, error) {
	if opts.GeohashLen < 1 || opts.GeohashLen > geo.MaxPrecision {
		return nil, nil, fmt.Errorf("invindex: geohash length %d out of range", opts.GeohashLen)
	}
	if opts.PathPrefix == "" {
		opts.PathPrefix = "index"
	}

	// ---- Job 1: inverted index (Algorithms 2 and 3) --------------------
	input := make([]any, len(posts))
	for i, p := range posts {
		input[i] = p
	}
	invJob := mapreduce.Config{
		Name:        fmt.Sprintf("inverted-index-g%d", opts.GeohashLen),
		Input:       input,
		NumMappers:  opts.Mappers,
		NumReducers: opts.Reducers,
		Map: func(in any, emit mapreduce.Emitter) error {
			p := in.(*social.Post)
			// Algorithm 2: H tracks the term frequency of each term; the
			// posts arrive pre-tokenized, so H folds the word bag.
			h := make(map[string]uint32, len(p.Words))
			for _, w := range p.Words {
				h[w]++
			}
			geohash := geo.Encode(p.Loc, opts.GeohashLen)
			for w, tf := range h {
				emit(mapreduce.KeyValue{
					Key:   Key{Geohash: geohash, Term: w}.String(),
					Value: encodePosting(Posting{TID: p.SID, TF: tf}),
				})
			}
			return nil
		},
		Reduce: func(key string, values [][]byte, emit mapreduce.Emitter) error {
			// Algorithm 3: append all postings, sort by timestamp, emit.
			ps := make([]Posting, 0, len(values))
			for _, v := range values {
				p, err := decodePosting(v)
				if err != nil {
					return err
				}
				ps = append(ps, p)
			}
			ps = sortPostings(ps)
			encoded, err := EncodeBlockedPostingsList(ps, opts.BlockSize)
			if err != nil {
				return err
			}
			emit(mapreduce.KeyValue{Key: key, Value: encoded})
			return nil
		},
	}
	invResult, err := mapreduce.Run(invJob)
	if err != nil {
		return nil, nil, err
	}

	// Write each reduce partition to its own DFS part file in key order,
	// recording where each postings list lands. Keys are sorted within a
	// partition, so postings of nearby cells are contiguous on disk.
	type placed struct {
		key string
		ref entryRef
	}
	var placements []any
	var postingsBytes int64
	for part, records := range invResult.Partitions {
		if len(records) == 0 {
			continue
		}
		name := fmt.Sprintf("%s/part-%05d", opts.PathPrefix, part)
		w, err := fsys.Create(name)
		if err != nil {
			return nil, nil, err
		}
		for _, kv := range records {
			off := w.Offset()
			if _, err := w.Write(kv.Value); err != nil {
				return nil, nil, err
			}
			count, err := PostingsListCount(kv.Value)
			if err != nil {
				return nil, nil, err
			}
			placements = append(placements, placed{
				key: kv.Key,
				ref: entryRef{file: name, offset: off, length: int64(len(kv.Value)), count: count},
			})
			postingsBytes += int64(len(kv.Value))
		}
		if err := w.Close(); err != nil {
			return nil, nil, err
		}
	}

	// ---- Job 2: forward index ------------------------------------------
	// "another MapReduce job is run over the inverted index files ... a
	// posting forward index is created to keep track of the position of
	// each postings list in HDFS."
	fwdJob := mapreduce.Config{
		Name:        "forward-index",
		Input:       placements,
		NumMappers:  opts.Mappers,
		NumReducers: 1, // the forward index is one small in-memory table
		Map: func(in any, emit mapreduce.Emitter) error {
			pl := in.(placed)
			emit(mapreduce.KeyValue{Key: pl.key, Value: encodeRef(pl.ref)})
			return nil
		},
		Reduce: func(key string, values [][]byte, emit mapreduce.Emitter) error {
			if len(values) != 1 {
				return fmt.Errorf("invindex: key %q has %d placements", key, len(values))
			}
			emit(mapreduce.KeyValue{Key: key, Value: values[0]})
			return nil
		},
	}
	fwdResult, err := mapreduce.Run(fwdJob)
	if err != nil {
		return nil, nil, err
	}
	forward := make(map[Key]entryRef, len(placements))
	var forwardBytes int64
	for _, kv := range fwdResult.All() {
		k, err := ParseKey(kv.Key)
		if err != nil {
			return nil, nil, err
		}
		ref, err := decodeRef(kv.Value)
		if err != nil {
			return nil, nil, err
		}
		forward[k] = ref
		forwardBytes += int64(len(kv.Key)) + 24 // key bytes + offsets
	}

	idx := &Index{fs: fsys, geohashLen: opts.GeohashLen, forward: forward}
	stats := &BuildStats{
		InvertedJob:   invResult.Counters,
		ForwardJob:    fwdResult.Counters,
		Keys:          len(forward),
		PostingsBytes: postingsBytes,
		ForwardBytes:  forwardBytes,
	}
	return idx, stats, nil
}

// encodeRef serializes an entryRef for the forward-index job.
func encodeRef(r entryRef) []byte {
	return []byte(fmt.Sprintf("%s\x00%d\x00%d\x00%d", r.file, r.offset, r.length, r.count))
}

func decodeRef(b []byte) (entryRef, error) {
	var r entryRef
	parts := splitNul(string(b), 4)
	if parts == nil {
		return r, fmt.Errorf("invindex: malformed ref %q", b)
	}
	r.file = parts[0]
	if _, err := fmt.Sscanf(parts[1], "%d", &r.offset); err != nil {
		return r, err
	}
	if _, err := fmt.Sscanf(parts[2], "%d", &r.length); err != nil {
		return r, err
	}
	if _, err := fmt.Sscanf(parts[3], "%d", &r.count); err != nil {
		return r, err
	}
	return r, nil
}

func splitNul(s string, n int) []string {
	parts := make([]string, 0, n)
	start := 0
	for i := 0; i < len(s) && len(parts) < n-1; i++ {
		if s[i] == 0 {
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	parts = append(parts, s[start:])
	if len(parts) != n {
		return nil
	}
	return parts
}
