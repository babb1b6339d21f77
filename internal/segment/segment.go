package segment

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/social"
)

// Segment is one immutable sealed segment, served read-only over its byte
// image — an mmap'd file in the common case. All lookups are zero-copy:
// postings iterate lazily over the mapped payload (the blocked directory
// is the skip index) and row metadata is resolved in place over the
// 48-byte records, one ascending batch per forward walk. A Segment is safe
// for concurrent readers; Close must not race in-flight reads (the store
// retires replaced segments and unmaps only at shutdown for exactly that
// reason).
type Segment struct {
	b          []byte
	mapped     bool // b is an mmap'd region, not heap bytes
	geohashLen int
	minSID     social.PostID
	maxSID     social.PostID
	rows       []byte
	nRows      int
	postings   []byte
	keys       []dirEntry
}

// OpenBytes parses a segment image held in memory. It is the parse core
// behind Open, and the fuzz entry point: hostile bytes must produce a
// typed error, never a panic.
func OpenBytes(b []byte) (*Segment, error) {
	return parseSegment(b)
}

// Open maps a segment file and parses it. The whole file is checksummed
// on open, so a segment that opens cleanly serves exactly the bytes its
// seal wrote. On platforms without mmap (or when mapping fails) the file
// is read into memory instead — same contract, one copy.
func Open(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	b, mapped, err := mapFile(f, int(st.Size()))
	if err != nil {
		return nil, fmt.Errorf("segment: mapping %s: %w", path, err)
	}
	seg, err := parseSegment(b)
	if err != nil {
		if mapped {
			unmapFile(b)
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seg.mapped = mapped
	return seg, nil
}

// Close releases the mapping. The caller owns the guarantee that no
// reader still holds iterators or row slices into the segment.
func (s *Segment) Close() error {
	if s.mapped {
		s.mapped = false
		return unmapFile(s.b)
	}
	return nil
}

// GeohashLen returns the geohash precision the segment's keys use. Part
// of the engine's PostingsSource contract.
func (s *Segment) GeohashLen() int { return s.geohashLen }

// MinSID and MaxSID bound the tweet IDs (timestamps) the segment covers —
// the time-bucket range the engine's partition pruning tests a query
// window against.
func (s *Segment) MinSID() social.PostID { return s.minSID }
func (s *Segment) MaxSID() social.PostID { return s.maxSID }

// NumRows returns the number of row records.
func (s *Segment) NumRows() int { return s.nRows }

// NumKeys returns the number of ⟨geohash, term⟩ keys.
func (s *Segment) NumKeys() int { return len(s.keys) }

// SizeBytes returns the byte length of the segment image.
func (s *Segment) SizeBytes() int { return len(s.b) }

// MappedBytes returns the size of the mmap'd region, 0 when the segment
// was read into heap memory instead.
func (s *Segment) MappedBytes() int {
	if !s.mapped {
		return 0
	}
	return len(s.b)
}

// findKey binary-searches the key directory.
func (s *Segment) findKey(geohash, term string) (dirEntry, bool) {
	want := invindex.Key{Geohash: geohash, Term: term}.String()
	i := sort.Search(len(s.keys), func(i int) bool { return s.keys[i].key >= want })
	if i < len(s.keys) && s.keys[i].key == want {
		return s.keys[i], true
	}
	return dirEntry{}, false
}

// FetchPostings decodes the whole postings list for ⟨geohash, term⟩, or
// nil if the key has no postings — the same contract as
// invindex.Index.FetchPostings, so a Segment slots in as an engine
// PostingsSource.
func (s *Segment) FetchPostings(geohash, term string) ([]invindex.Posting, error) {
	e, ok := s.findKey(geohash, term)
	if !ok {
		return nil, nil
	}
	return invindex.DecodeBlockedPostingsList(s.postings[e.off : e.off+e.n])
}

// OpenPostings returns a lazy block-skipping iterator directly over the
// mapped payload — no copy, blocks decode only when the cursor enters
// them. Nil with no error when the key has no postings, mirroring
// invindex.Index.OpenPostings; the engine's block-max traversal finds
// this method via its PostingsOpener assertion.
func (s *Segment) OpenPostings(geohash, term string) (*invindex.PostingsIterator, error) {
	e, ok := s.findKey(geohash, term)
	if !ok {
		return nil, nil
	}
	return invindex.NewBlockedIterator(s.postings[e.off : e.off+e.n])
}

// Keys returns every key in the segment in sorted order. Compaction and
// tests use it; the query path goes through findKey.
func (s *Segment) Keys() []invindex.Key {
	out := make([]invindex.Key, 0, len(s.keys))
	for _, e := range s.keys {
		k, err := invindex.ParseKey(e.key)
		if err != nil {
			continue // unreachable: parseSegment validated the directory
		}
		out = append(out, k)
	}
	return out
}

// RowAt decodes row record i. Compaction and tests use it.
func (s *Segment) RowAt(i int) metadb.Row {
	return decodeRow(s.rows[i*rowSize : (i+1)*rowSize])
}

// ResolveRows resolves one ascending SID batch against the mapped row
// records in a single forward walk: out[i] receives sids[i]'s location and
// author, and each search gallops from where the previous one ended, so a
// batch costs one pass over the stretch of records it spans — no search from
// the root per SID, no lock, no allocation. Returns the index of the first
// SID the segment does not hold, -1 when every one resolved.
func (s *Segment) ResolveRows(sids []social.PostID, out []metadb.RowMeta) int {
	pos := 0
	for i, sid := range sids {
		pos = gallopTo(s.rows, pos, s.nRows, sid)
		if pos == s.nRows {
			return i
		}
		r := s.RowAt(pos)
		if r.SID != sid {
			return i
		}
		out[i] = metadb.RowMeta{Lat: r.Lat, Lon: r.Lon, UID: r.UID}
	}
	return -1
}

// gallopTo returns the smallest index in [start, n) of a row record whose
// SID is >= target, n when there is none: exponential probing from start,
// then binary search inside the bracket, so the lookups of an ascending
// batch cost O(log gap) each and touch records near the previous hit.
func gallopTo(rows []byte, start, n int, target social.PostID) int {
	sidAt := func(i int) social.PostID {
		return social.PostID(binary.LittleEndian.Uint64(rows[i*rowSize:]))
	}
	if start >= n || sidAt(start) >= target {
		return start
	}
	// Exponential probe: find a bracket (lo, hi] with sid(lo) < target <= sid(hi).
	lo, step := start, 1
	hi := start + step
	for hi < n && sidAt(hi) < target {
		lo = hi
		step *= 2
		hi = lo + step
	}
	hi = min(hi, n)
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if sidAt(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
