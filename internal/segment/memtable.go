package segment

import (
	"fmt"
	"sync"

	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/social"
)

// Memtable is the mutable head of the storage engine: ingested posts are
// indexed here immediately and served alongside the sealed segments until
// the store seals the table into a segment file. It is the one indexer:
// term frequencies per post, keys of ⟨geohash(loc), term⟩ at the store's
// precision, and postings naming rows by ordinal — the index of the row in
// the table's own records, which is ascending SID order (ingest arrives in
// timestamp order). Memtable row i is row i of the segment it seals into,
// so the seal encodes the lists as they are. A batch build indexes through
// it too (FromPosts), so a sealed segment is byte-equivalent to what a
// batch rebuild over the same posts would have produced for its time range.
//
// Readers (the engine's postings and record reads) and the single writer
// (ingest, which the store serializes) synchronize on one RWMutex. Slices
// returned to readers are never mutated in place: appends only extend them
// past the length a reader captured, and TFs are fixed at insert. A row is
// appended before the postings that name it, so records read after a
// postings list hold every row the list names.
type Memtable struct {
	geohashLen int

	mu       sync.RWMutex
	recs     []metadb.RowMeta // SID, location and author per row: what queries read
	replyTo  []replyRef       // the rest of each row, read only by the seal
	texts    []string         // each row's raw text, read by the seal and Text
	postings map[invindex.Key][]invindex.Posting
	bytes    int // rough payload size, for size-based seal thresholds
}

// replyRef is the part of a row the query path never reads: the author and
// post it replies to or forwards (zero for a root post).
type replyRef struct {
	ruid social.UserID
	rsid social.PostID
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
	if n := len(m.recs); n > 0 && p.SID <= m.recs[n-1].SID {
		return fmt.Errorf("segment: %w: memtable add SID %d is not beyond %d (posts arrive in timestamp order)",
			metadb.ErrRejected, p.SID, m.recs[n-1].SID)
	}
	ord := social.PostID(len(m.recs)) // the row ordinal this post's postings name
	m.recs = append(m.recs, metadb.RowMeta{SID: p.SID, Lat: p.Loc.Lat, Lon: p.Loc.Lon, UID: p.UID})
	m.replyTo = append(m.replyTo, replyRef{ruid: p.RUID, rsid: p.RSID})
	m.texts = append(m.texts, p.Text)
	m.bytes += rowSize + textOffSize + len(p.Text)
	if len(p.Words) == 0 {
		return nil
	}
	// Term frequency per post (Algorithm 2's mapper), one posting per
	// distinct ⟨cell, term⟩ key.
	tf := make(map[string]uint32, len(p.Words))
	for _, w := range p.Words {
		tf[w]++
	}
	cell := geo.Encode(p.Loc, m.geohashLen)
	for term, f := range tf {
		key := invindex.Key{Geohash: cell, Term: term}
		m.postings[key] = append(m.postings[key], invindex.Posting{TID: ord, TF: f})
		m.bytes += 16
	}
	return nil
}

// Len returns the number of buffered rows.
func (m *Memtable) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.recs)
}

// numKeys returns the number of distinct ⟨geohash, term⟩ keys buffered.
func (m *Memtable) numKeys() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.postings)
}

// recordBytes returns the resident size of the memtable's records.
func (m *Memtable) recordBytes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return recordsBytes(m.recs)
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

// FetchPostings returns the buffered postings for ⟨geohash, term⟩ with
// tweet IDs, translated from the row ordinals through the records, nil when
// the key has none — the same contract as the index and the sealed
// segments. Off the query path: tools and tests read it.
func (m *Memtable) FetchPostings(geohash, term string) ([]invindex.Posting, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return toTIDs(m.postings[invindex.Key{Geohash: geohash, Term: term}], m.recs), nil
}

// OpenPostings returns an iterator over the buffered postings for
// ⟨geohash, term⟩, whose TID fields hold row ordinals (indexes into
// Records), nil when the key has none. The list it iterates is
// aliasing-safe: the writer only appends beyond the captured length.
func (m *Memtable) OpenPostings(geohash, term string) (*invindex.PostingsIterator, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ps := m.postings[invindex.Key{Geohash: geohash, Term: term}]
	if ps == nil {
		return nil, nil
	}
	return invindex.NewSliceIterator(ps), nil
}

// Records returns the buffered rows' packed records, indexed by the row
// ordinals the postings name. Later Adds only append beyond the returned
// length. Callers must not modify them.
func (m *Memtable) Records() []metadb.RowMeta {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.recs
}

// ResolveRows is Segment.ResolveRows for still-unsealed posts, under one
// read lock for the batch.
func (m *Memtable) ResolveRows(sids []social.PostID, out []metadb.RowMeta) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return resolveSIDs(m.recs, sids, out)
}

// text returns the raw text of the buffered post sid; false when the
// memtable holds no such row.
func (m *Memtable) text(sid social.PostID) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if i, ok := ordinalOf(m.recs, sid); ok {
		return m.texts[i], true
	}
	return "", false
}

// snapshot returns the rows, their texts and the sorted, blocked-encoded
// postings of the current contents — the seal input. Row i of the result is
// the memtable's row i, so the postings' ordinals are encoded as they are.
// Caller is the store, which serializes seals; the read lock still guards
// against concurrent Adds from a misuse path.
func (m *Memtable) snapshot(blockSize int) ([]metadb.Row, []string, []keyPostings, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rows := make([]metadb.Row, len(m.recs))
	for i, r := range m.recs {
		ref := m.replyTo[i]
		rows[i] = metadb.Row{SID: r.SID, UID: r.UID, Lat: r.Lat, Lon: r.Lon, RUID: ref.ruid, RSID: ref.rsid}
	}
	enc := make(map[invindex.Key][]byte, len(m.postings))
	for k, ps := range m.postings {
		payload, err := invindex.EncodeBlockedPostingsList(ps, blockSize)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("segment: encoding postings for %q: %w", k.String(), err)
		}
		enc[k] = payload
	}
	return rows, m.texts, sortKeyPostings(enc), nil
}

// bounds returns the buffered SID range; ok is false when empty.
func (m *Memtable) bounds() (min, max social.PostID, ok bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.recs) == 0 {
		return 0, 0, false
	}
	return m.recs[0].SID, m.recs[len(m.recs)-1].SID, true
}
