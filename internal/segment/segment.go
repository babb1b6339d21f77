package segment

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"slices"

	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/social"
)

// Segment is one immutable sealed segment, served read-only over its byte
// image — an mmap'd file for a sealed segment, heap bytes for a build
// image (FromPosts). Postings iterate lazily over the mapped payload with no
// copy (the blocked directory is the skip index), and name rows by ordinal:
// the engine reads Records()[ordinal], packed records derived from the rows
// when the segment opens; only RowAt reads the mapped 48-byte rows. A
// Segment is safe for concurrent readers; Close must not
// race in-flight reads (the store retires the mappings of replaced segments
// and unmaps them only at shutdown for exactly that reason).
type Segment struct {
	b          []byte
	mapped     bool // b is an mmap'd region, not heap bytes
	geohashLen int
	minSID     social.PostID
	maxSID     social.PostID
	rows       []byte // the mapped 48-byte rows, read by RowAt only
	nRows      int
	textOffs   []byte // nRows+1 uint32 offsets into texts
	texts      []byte
	recs       []metadb.RowMeta // one packed record per row, by ordinal
	postings   []byte
	keys       []dirEntry
}

// OpenBytes parses a segment image held in memory. It is the parse core
// behind Open, and the fuzz entry point: hostile bytes must produce a
// typed error, never a panic.
func OpenBytes(b []byte) (*Segment, error) {
	return parseSegment(b)
}

// FromPosts indexes posts the way ingest does — through a memtable, so
// term frequencies, keys and postings order are the memtable's — and
// freezes the result with the seal's encoder into one heap-resident
// segment holding the postings and the rows behind them: the image a
// batch-built System serves from. Posts may come in any order, but their
// SIDs must be unique; a repeated one fails with metadb.ErrRejected.
func FromPosts(posts []*social.Post, geohashLen, blockSize int) (*Segment, error) {
	if geohashLen < 1 || geohashLen > geo.MaxPrecision {
		return nil, fmt.Errorf("segment: geohash length %d out of range", geohashLen)
	}
	sorted := slices.Clone(posts)
	slices.SortFunc(sorted, func(a, b *social.Post) int { return cmp.Compare(a.SID, b.SID) })
	mt := NewMemtable(geohashLen)
	for _, p := range sorted {
		if err := mt.Add(p); err != nil {
			return nil, err
		}
	}
	rows, texts, keys, err := mt.snapshot(blockSize)
	if err != nil {
		return nil, err
	}
	data, err := buildSegment(geohashLen, rows, texts, keys)
	if err != nil {
		return nil, err
	}
	return OpenBytes(data)
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

// Bytes returns the segment image, which callers must not modify: what a
// seal writes and OpenBytes parses back.
func (s *Segment) Bytes() []byte { return s.b }

// MappedBytes returns the size of the mmap'd region, 0 when the segment
// was read into heap memory instead.
func (s *Segment) MappedBytes() int { return len(s.mapping()) }

// mapping returns the mmap'd image Close would unmap, nil for heap bytes.
// The store retires a compacted-away segment as this slice alone, so the
// segment's records are freed once no query holds it.
func (s *Segment) mapping() []byte {
	if !s.mapped {
		return nil
	}
	return s.b
}

// findKey binary-searches the key directory, comparing each entry against
// ⟨geohash, NUL, term⟩ in place: a query makes one lookup per covered cell,
// term and segment, and none of them builds the key string.
func (s *Segment) findKey(geohash, term string) (dirEntry, bool) {
	i, found := slices.BinarySearchFunc(s.keys, geohash, func(e dirEntry, geohash string) int {
		n := len(geohash)
		if len(e.key) > n && e.key[:n] == geohash {
			if e.key[n] != 0 {
				return 1 // the separator sorts below every other byte
			}
			return cmp.Compare(e.key[n+1:], term)
		}
		// The entry differs from the geohash inside its n bytes, where plain
		// order decides, or is a prefix of it, which sorts first.
		if e.key <= geohash {
			return -1
		}
		return 1
	})
	if !found {
		return dirEntry{}, false
	}
	return s.keys[i], true
}

// FetchPostings decodes the whole postings list for ⟨geohash, term⟩ with
// tweet IDs, translated from the stored row ordinals through the records,
// or nil if the key has no postings — the contract of
// invindex.Index.FetchPostings. A posting naming a row the segment does
// not hold is ErrCorrupt. Off the query path: tools and tests read it.
func (s *Segment) FetchPostings(geohash, term string) ([]invindex.Posting, error) {
	ps, err := s.ordinals(geohash, term)
	if err != nil {
		return nil, err
	}
	return toTIDs(ps, s.recs), nil
}

// ordinals decodes the postings list for ⟨geohash, term⟩ as stored: row
// ordinals, each checked against the row count. Nil when the key has none.
func (s *Segment) ordinals(geohash, term string) ([]invindex.Posting, error) {
	e, ok := s.findKey(geohash, term)
	if !ok {
		return nil, nil
	}
	ps, err := invindex.DecodeBlockedPostingsList(s.postings[e.off : e.off+e.n])
	if err != nil {
		return nil, err
	}
	if err := checkOrdinals(ps, s.nRows); err != nil {
		return nil, fmt.Errorf("key ⟨%s, %s⟩: %w", geohash, term, err)
	}
	return ps, nil
}

// OpenPostings returns a lazy block-skipping iterator directly over the
// mapped payload — no copy, blocks decode only when the cursor enters
// them. Its postings' TID fields hold row ordinals: indexes into Records.
// Nil with no error when the key has no postings, mirroring
// invindex.Index.OpenPostings.
func (s *Segment) OpenPostings(geohash, term string) (*invindex.PostingsIterator, error) {
	e, ok := s.findKey(geohash, term)
	if !ok {
		return nil, nil
	}
	return invindex.NewBlockedIterator(s.postings[e.off : e.off+e.n])
}

// Keys returns every key in the segment in sorted order. Compaction and
// BulkLoad use it; the query path goes through findKey.
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

// RowAt decodes row record i. Compaction, BulkLoad and Load use it;
// queries read the packed records.
func (s *Segment) RowAt(i int) metadb.Row {
	return decodeRow(s.rows[i*rowSize : (i+1)*rowSize])
}

// Text returns row i's raw text, copied out of the image.
func (s *Segment) Text(i int) string {
	lo := binary.LittleEndian.Uint32(s.textOffs[i*textOffSize:])
	hi := binary.LittleEndian.Uint32(s.textOffs[(i+1)*textOffSize:])
	return string(s.texts[lo:hi])
}

// Records returns the segment's packed row records, indexed by the row
// ordinals its postings name. Callers must not modify them.
func (s *Segment) Records() []metadb.RowMeta { return s.recs }

// ResolveRows resolves one ascending SID batch against the records: out[i]
// receives sids[i]'s record. Returns the index of the first SID the segment
// does not hold, -1 when every one resolved. Off the query path, which
// reads records by ordinal.
func (s *Segment) ResolveRows(sids []social.PostID, out []metadb.RowMeta) int {
	return resolveSIDs(s.recs, sids, out)
}
