package segment

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/social"
)

// Memtable is the mutable head of the storage engine: ingested posts are
// indexed here immediately and served alongside the sealed segments until
// the store seals the table into a segment file. Indexing mirrors the
// batch build's map phase exactly — term frequencies per post, keys of
// ⟨geohash(loc), term⟩ at the store's precision, postings in ascending
// TID order (ingest arrives in timestamp order) — so a sealed segment is
// byte-equivalent to what a batch rebuild over the same posts would have
// produced for its time range.
//
// Readers (the engine's postings fetches) and the single writer (ingest,
// which the store serializes) synchronize on one RWMutex. Postings slices
// returned to readers are never mutated in place: appends only extend
// them past the length a reader captured, and TFs are fixed at insert.
type Memtable struct {
	geohashLen int

	mu       sync.RWMutex
	rows     []metadb.Row
	postings map[invindex.Key][]invindex.Posting
	bytes    int // rough payload size, for size-based seal thresholds
}

// NewMemtable creates an empty memtable keyed at the given geohash
// precision.
func NewMemtable(geohashLen int) *Memtable {
	return &Memtable{
		geohashLen: geohashLen,
		postings:   make(map[invindex.Key][]invindex.Posting),
	}
}

// Add indexes one post. Posts must arrive in ascending SID order (IDs are
// timestamps), the same contract metadb.Append enforces.
func (m *Memtable) Add(p *social.Post) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.rows); n > 0 && p.SID <= m.rows[n-1].SID {
		return fmt.Errorf("segment: memtable add SID %d is not beyond %d (posts arrive in timestamp order)",
			p.SID, m.rows[n-1].SID)
	}
	m.rows = append(m.rows, metadb.Row{
		SID: p.SID, UID: p.UID,
		Lat: p.Loc.Lat, Lon: p.Loc.Lon,
		RUID: p.RUID, RSID: p.RSID,
	})
	m.bytes += rowSize
	if len(p.Words) == 0 {
		return nil
	}
	// The batch build's mapper: term frequency per post, one posting per
	// distinct ⟨cell, term⟩ key.
	tf := make(map[string]uint32, len(p.Words))
	for _, w := range p.Words {
		tf[w]++
	}
	cell := geo.Encode(p.Loc, m.geohashLen)
	for term, f := range tf {
		key := invindex.Key{Geohash: cell, Term: term}
		m.postings[key] = append(m.postings[key], invindex.Posting{TID: p.SID, TF: f})
		m.bytes += 16
	}
	return nil
}

// Len returns the number of buffered rows.
func (m *Memtable) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.rows)
}

// SizeBytes returns the approximate buffered payload size.
func (m *Memtable) SizeBytes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// GeohashLen returns the precision the memtable keys at — the engine's
// PostingsSource contract.
func (m *Memtable) GeohashLen() int { return m.geohashLen }

// FetchPostings returns the buffered postings for ⟨geohash, term⟩, nil
// when the key has none — the same contract as the index and the sealed
// segments. The returned slice is aliasing-safe: the writer only appends
// beyond the captured length and never rewrites existing entries.
func (m *Memtable) FetchPostings(geohash, term string) ([]invindex.Posting, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.postings[invindex.Key{Geohash: geohash, Term: term}], nil
}

// ResolveRows is Segment.ResolveRows for still-unsealed posts: the same
// forward gallop over the buffered rows, under one read lock for the batch.
func (m *Memtable) ResolveRows(sids []social.PostID, out []metadb.RowMeta) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rows := m.rows
	pos := 0
	for i, sid := range sids {
		lo, hi := gallopBracket(pos, len(rows), func(j int) bool { return rows[j].SID < sid })
		pos = lo + sort.Search(hi-lo, func(j int) bool { return rows[lo+j].SID >= sid })
		if pos == len(rows) || rows[pos].SID != sid {
			return i
		}
		out[i] = metadb.RowMeta{Lat: rows[pos].Lat, Lon: rows[pos].Lon, UID: rows[pos].UID}
	}
	return -1
}

// snapshot returns the rows and the sorted, blocked-encoded postings of
// the current contents — the seal input. Caller is the store, which
// serializes seals; the read lock still guards against concurrent Adds
// from a misuse path.
func (m *Memtable) snapshot(blockSize int) ([]metadb.Row, []keyPostings, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rows := make([]metadb.Row, len(m.rows))
	copy(rows, m.rows)
	enc := make(map[invindex.Key][]byte, len(m.postings))
	for k, ps := range m.postings {
		payload, err := invindex.EncodeBlockedPostingsList(ps, blockSize)
		if err != nil {
			return nil, nil, fmt.Errorf("segment: encoding postings for %q: %w", k.String(), err)
		}
		enc[k] = payload
	}
	return rows, sortKeyPostings(enc), nil
}

// bounds returns the buffered SID range; ok is false when empty.
func (m *Memtable) bounds() (min, max social.PostID, ok bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.rows) == 0 {
		return 0, 0, false
	}
	return m.rows[0].SID, m.rows[len(m.rows)-1].SID, true
}
