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
// coordinates the row store holds, so a radius test and δ(p,q) computed
// from it are byte-identical to the row-fetching ones. Storage resolves it
// for the engine one ascending SID batch at a time (core.RowSource).
type RowMeta struct {
	Lat float64
	Lon float64
	UID social.UserID
}
