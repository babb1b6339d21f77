package metadb

import (
	"sort"
	"sync"

	"repro/internal/social"
)

// ChildRef is the slice of a reply row that thread expansion needs: which
// post reacted, and by whom. Keeping the snapshot to these two fields makes
// the CSR arrays a fraction of the row store's size.
type ChildRef struct {
	SID social.PostID
	UID social.UserID
}

// ReplySnapshot is an immutable CSR (compressed sparse row) image of the
// reply graph: parents[] holds every post with at least one reaction in
// ascending SID order, and children[offsets[i]:offsets[i+1]] are post i's
// reactions in ascending SID order — the exact order the rsid B⁺-tree
// yields, because both are built from rows arriving in SID order. Posts
// appended after the snapshot land in a small mutable overlay keyed by
// parent; since appended SIDs are globally ascending, CSR followed by
// overlay preserves the ascending-SID contract, so snapshot expansion is
// byte-identical to the B-tree path.
type ReplySnapshot struct {
	parents  []int64
	offsets  []int32
	children []ChildRef

	mu      sync.RWMutex
	overlay map[social.PostID][]ChildRef
}

// Children returns the reactions to parent in ascending SID order. The
// returned slice must not be modified. Reading is lock-free over the CSR
// arrays; only the post-snapshot overlay takes a read lock.
func (s *ReplySnapshot) Children(parent social.PostID) []ChildRef {
	key := int64(parent)
	i := sort.Search(len(s.parents), func(i int) bool { return s.parents[i] >= key })
	var base []ChildRef
	if i < len(s.parents) && s.parents[i] == key {
		base = s.children[s.offsets[i]:s.offsets[i+1]]
	}
	s.mu.RLock()
	extra := s.overlay[parent]
	s.mu.RUnlock()
	if len(extra) == 0 {
		return base
	}
	out := make([]ChildRef, 0, len(base)+len(extra))
	out = append(out, base...)
	return append(out, extra...)
}

// extend records a post appended after the snapshot was built. Appended
// SIDs exceed every SID in the CSR arrays, so appending to the overlay
// keeps each child list in ascending SID order.
func (s *ReplySnapshot) extend(parent social.PostID, child ChildRef) {
	s.mu.Lock()
	if s.overlay == nil {
		s.overlay = make(map[social.PostID][]ChildRef)
	}
	s.overlay[parent] = append(s.overlay[parent], child)
	s.mu.Unlock()
}

// Len returns the number of parent posts in the CSR arrays (excluding
// overlay-only parents).
func (s *ReplySnapshot) Len() int { return len(s.parents) }

// EnableReplySnapshot builds the CSR reply-graph snapshot from the frozen
// row store. Like ComputeBounds and the inverted-index build, this is an
// offline precompute over data already in memory, so it charges no
// simulated I/O; queries that expand threads through the snapshot then pay
// zero B⁺-tree traffic. Idempotent; Append keeps an enabled snapshot
// current through the overlay.
func (db *DB) EnableReplySnapshot() *ReplySnapshot {
	db.mustBeFrozen()
	db.structMu.Lock()
	defer db.structMu.Unlock()
	if db.snapshot != nil {
		return db.snapshot
	}
	byParent := make(map[social.PostID][]ChildRef)
	nChildren := 0
	for _, page := range db.pages {
		for _, r := range page {
			if r.RSID != social.NoPost {
				byParent[r.RSID] = append(byParent[r.RSID], ChildRef{SID: r.SID, UID: r.UID})
				nChildren++
			}
		}
	}
	snap := &ReplySnapshot{
		parents:  make([]int64, 0, len(byParent)),
		offsets:  make([]int32, 1, len(byParent)+1),
		children: make([]ChildRef, 0, nChildren),
	}
	for p := range byParent {
		snap.parents = append(snap.parents, int64(p))
	}
	sort.Slice(snap.parents, func(i, j int) bool { return snap.parents[i] < snap.parents[j] })
	for _, p := range snap.parents {
		// Rows were scanned in SID order, so each child list is already
		// ascending — the rsid index's value order.
		snap.children = append(snap.children, byParent[social.PostID(p)]...)
		snap.offsets = append(snap.offsets, int32(len(snap.children)))
	}
	db.snapshot = snap
	return snap
}

// ReplySnapshot returns the CSR snapshot, or nil if EnableReplySnapshot
// has not run.
func (db *DB) ReplySnapshot() *ReplySnapshot {
	db.structMu.RLock()
	defer db.structMu.RUnlock()
	return db.snapshot
}

// RowMeta is the slice of a row the spatial candidate filter needs: where
// the tweet was posted and by whom. It carries the same float64
// coordinates the row store holds, so a snapshot-served radius test and
// δ(p,q) are byte-identical to the row-fetching ones.
type RowMeta struct {
	Lat float64
	Lon float64
	UID social.UserID
}

// RowMetaSource is an external resolver of SID → (location, author) —
// the segment store implements it over mmap'd row records. A snapshot
// wired to a source (EnableRowMetaSnapshotFrom) consults it after the
// in-memory arrays and before whatever the overlay held when the source
// was attached; all three agree on values wherever they overlap, so lookup
// order never changes a result.
type RowMetaSource interface {
	LookupRowMeta(sid social.PostID) (RowMeta, bool)
}

// RowMetaSnapshot is an immutable SID → (location, author) image of the
// row store — the spatial analogue of ReplySnapshot. The candidate filter
// resolves keyword-matching SIDs against it in memory instead of paying
// B⁺-tree descents plus data-page reads per merged posting; at city radii
// most of those rows are fetched only to be rejected by the radius test.
// Posts appended after the snapshot land in a small mutable overlay, so
// an enabled snapshot stays current through ingest. A snapshot may also
// delegate to an external RowMetaSource (the segment store) instead of
// carrying heap arrays; the source then answers for appended posts too and
// the overlay stays empty.
type RowMetaSnapshot struct {
	sids  []int64 // ascending SID order, mirroring the row store
	metas []RowMeta
	base  RowMetaSource // optional external resolver (segment store)

	mu      sync.RWMutex
	overlay map[social.PostID]RowMeta
}

// Get returns the meta slice of one row. Reading is lock-free over the
// base arrays; only the post-snapshot overlay takes a read lock.
func (s *RowMetaSnapshot) Get(sid social.PostID) (RowMeta, bool) {
	key := int64(sid)
	i := sort.Search(len(s.sids), func(i int) bool { return s.sids[i] >= key })
	if i < len(s.sids) && s.sids[i] == key {
		return s.metas[i], true
	}
	if s.base != nil {
		if m, ok := s.base.LookupRowMeta(sid); ok {
			return m, ok
		}
	}
	s.mu.RLock()
	m, ok := s.overlay[sid]
	s.mu.RUnlock()
	return m, ok
}

// extend records a post appended after the snapshot was built. With a
// base source attached there is nothing to record: the source resolves
// every SID its owner indexes, and a second on-heap copy would grow
// without bound beside it.
func (s *RowMetaSnapshot) extend(sid social.PostID, m RowMeta) {
	if s.base != nil {
		return
	}
	s.mu.Lock()
	if s.overlay == nil {
		s.overlay = make(map[social.PostID]RowMeta)
	}
	s.overlay[sid] = m
	s.mu.Unlock()
}

// Len returns the number of rows in the base arrays (excluding overlay).
func (s *RowMetaSnapshot) Len() int { return len(s.sids) }

// EnableRowMetaSnapshot builds the row-meta snapshot from the frozen row
// store. Like ComputeBounds and EnableReplySnapshot, this is an offline
// precompute over data already in memory, so it charges no simulated I/O.
// Idempotent; Append keeps an enabled snapshot current via the overlay.
func (db *DB) EnableRowMetaSnapshot() *RowMetaSnapshot {
	db.mustBeFrozen()
	db.structMu.Lock()
	defer db.structMu.Unlock()
	if db.rowMeta != nil {
		return db.rowMeta
	}
	snap := &RowMetaSnapshot{
		sids:  make([]int64, 0, db.totalRows),
		metas: make([]RowMeta, 0, db.totalRows),
	}
	// Pages hold rows in ascending SID order (posts arrive in timestamp
	// order), so one scan yields the sorted base arrays.
	for _, page := range db.pages {
		for _, r := range page {
			snap.sids = append(snap.sids, int64(r.SID))
			snap.metas = append(snap.metas, RowMeta{Lat: r.Lat, Lon: r.Lon, UID: r.UID})
		}
	}
	db.rowMeta = snap
	return snap
}

// EnableRowMetaSnapshotFrom installs a row-meta snapshot that resolves
// through an external source instead of (or in addition to) heap arrays —
// the segment store serves lookups straight off mmap'd row records. If a
// full in-memory snapshot is already enabled the source is attached
// underneath it. From then on the source — not the overlay — must answer
// for every appended post a query can reach. Not safe to call concurrently
// with queries.
func (db *DB) EnableRowMetaSnapshotFrom(src RowMetaSource) *RowMetaSnapshot {
	db.mustBeFrozen()
	db.structMu.Lock()
	defer db.structMu.Unlock()
	if db.rowMeta == nil {
		db.rowMeta = &RowMetaSnapshot{}
	}
	db.rowMeta.base = src
	return db.rowMeta
}

// RowMetaSnapshot returns the row-meta snapshot, or nil if
// EnableRowMetaSnapshot has not run.
func (db *DB) RowMetaSnapshot() *RowMetaSnapshot {
	db.structMu.RLock()
	defer db.structMu.RUnlock()
	return db.rowMeta
}
