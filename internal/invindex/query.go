package invindex

import "sort"

// GeohashLen returns the encoding length the index was built with.
func (idx *Index) GeohashLen() int { return idx.geohashLen }

// NumKeys returns the number of distinct ⟨geohash, term⟩ keys.
func (idx *Index) NumKeys() int { return len(idx.forward) }

// Fetches returns how many postings lists have been fetched since the last
// ResetStats; the DFS tracks the byte- and block-level costs.
func (idx *Index) Fetches() int64 { return idx.fetches.Load() }

// ResetStats zeroes the fetch counter.
func (idx *Index) ResetStats() { idx.fetches.Store(0) }

// PostingsCount returns the number of postings stored under a key without
// fetching them (the forward index carries the count).
func (idx *Index) PostingsCount(geohash, term string) int {
	return idx.forward[Key{Geohash: geohash, Term: term}].count
}

// FetchPostings retrieves the postings list for ⟨geohash, term⟩ from the
// DFS, or nil if the key has no postings. Each call models one random
// access to the inverted index ("Random access to inverted index in HDFS
// is disk-based", Section VI-B1). The payload is decoded eagerly; use
// OpenPostings to decode lazily under block skipping.
func (idx *Index) FetchPostings(geohash, term string) ([]Posting, error) {
	ref, ok := idx.forward[Key{Geohash: geohash, Term: term}]
	if !ok {
		return nil, nil
	}
	idx.fetches.Add(1)
	raw, err := idx.fs.ReadAt(ref.file, ref.offset, ref.length)
	if err != nil {
		return nil, err
	}
	return DecodeBlockedPostingsList(raw)
}

// OpenPostings fetches the postings payload for ⟨geohash, term⟩ — one
// random access, exactly like FetchPostings — but returns a lazy iterator
// instead of decoding every entry: blocks decode one at a time as the
// cursor touches them. Returns nil with no error when the key has no
// postings.
func (idx *Index) OpenPostings(geohash, term string) (*PostingsIterator, error) {
	ref, ok := idx.forward[Key{Geohash: geohash, Term: term}]
	if !ok {
		return nil, nil
	}
	idx.fetches.Add(1)
	raw, err := idx.fs.ReadAt(ref.file, ref.offset, ref.length)
	if err != nil {
		return nil, err
	}
	return NewBlockedIterator(raw)
}

// Keys returns every forward-index key in sorted (geohash-major) order.
// Intended for tests and tooling, not the query path.
func (idx *Index) Keys() []Key {
	out := make([]Key, 0, len(idx.forward))
	for k := range idx.forward {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
