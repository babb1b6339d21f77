package social

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Corpus is the in-memory table of corpus facts a serving system keeps
// beside its index: each post's author and the post it reacts to, each
// user's post count |P_u| (Definition 9), and the reactions to each post —
// the reply graph of Definition 2. A build derives it from the posts, a
// reload from the stored rows, and live ingest appends to it, refusing a
// post out of timestamp order. Reads and appends are safe for concurrent
// use.
type Corpus struct {
	mu sync.RWMutex
	// sids ascends; uids[i] wrote sids[i], which reacts to rsids[i].
	sids     []PostID
	uids     []UserID
	rsids    []PostID
	posts    map[UserID]uint32   // |P_u|
	children map[PostID][]PostID // the reactions to a post, ascending SID
}

// NewCorpus derives the table from a batch of posts in any order. A post
// that fails validation fails the batch with its validation error; two
// posts with one SID fail it with ErrRejected.
func NewCorpus(posts []*Post) (*Corpus, error) {
	rows := make([]Row, len(posts))
	for i, p := range posts {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		rows[i] = Row{SID: p.SID, UID: p.UID, RSID: p.RSID}
	}
	slices.SortFunc(rows, func(a, b Row) int { return cmp.Compare(a.SID, b.SID) })
	return CorpusFromRows(rows)
}

// CorpusFromRows derives the table from rows that ascend by SID — a
// segment store's, read in segment order. A row whose SID does not exceed
// the one before fails with ErrRejected.
func CorpusFromRows(rows []Row) (*Corpus, error) {
	n := len(rows)
	c := &Corpus{sids: make([]PostID, 0, n), uids: make([]UserID, 0, n), rsids: make([]PostID, 0, n),
		posts: make(map[UserID]uint32), children: make(map[PostID][]PostID)}
	for i, r := range rows {
		if i > 0 && r.SID <= rows[i-1].SID {
			return nil, fmt.Errorf("social: %w: SID %d does not follow %d", ErrRejected, r.SID, rows[i-1].SID)
		}
		c.add(r.SID, r.UID, r.RSID)
	}
	return c, nil
}

// Append adds one live post. Posts arrive in timestamp order: a post whose
// SID is not beyond every stored one fails with ErrRejected, as does a post
// that fails validation, and the table is left unchanged.
func (c *Corpus) Append(p *Post) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("social: %w: %v", ErrRejected, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.sids); n > 0 && p.SID <= c.sids[n-1] {
		return fmt.Errorf("social: %w: SID %d is not beyond max SID %d (posts arrive in timestamp order)",
			ErrRejected, p.SID, c.sids[n-1])
	}
	c.add(p.SID, p.UID, p.RSID)
	return nil
}

// add appends a post whose SID is beyond every stored one, under the write
// lock or before c is shared.
func (c *Corpus) add(sid PostID, uid UserID, rsid PostID) {
	c.sids = append(c.sids, sid)
	c.uids = append(c.uids, uid)
	c.rsids = append(c.rsids, rsid)
	c.posts[uid]++
	if rsid != NoPost {
		c.children[rsid] = append(c.children[rsid], sid)
	}
}

// Len returns the number of posts in the table.
func (c *Corpus) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.sids)
}

// SIDRange returns the smallest and largest SID in the table.
func (c *Corpus) SIDRange() (min, max PostID) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if n := len(c.sids); n > 0 {
		return c.sids[0], c.sids[n-1]
	}
	return NoPost, NoPost
}

// PostCountOfUser returns |P_u|, the number of the user's posts.
func (c *Corpus) PostCountOfUser(uid UserID) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int(c.posts[uid])
}

// PostCounts writes |P_u| of each user of a batch into out[i] (len(out) ≥
// len(uids)), under one read lock and without allocating.
func (c *Corpus) PostCounts(uids []UserID, out []int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, uid := range uids {
		out[i] = int(c.posts[uid])
	}
}

// Ancestors returns the first depth posts up the reply chain that starts
// at parent: parent itself, the post it reacts to, and so on, stopping
// after an original post or one the table does not hold.
func (c *Corpus) Ancestors(parent PostID, depth int) []PostID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]PostID, 0, depth)
	for sid := parent; sid != NoPost && len(out) < depth; {
		out = append(out, sid)
		i, ok := slices.BinarySearch(c.sids, sid)
		if !ok {
			break
		}
		sid = c.rsids[i]
	}
	return out
}

// Reactions appends to dst the reactions to sid, in ascending SID order.
func (c *Corpus) Reactions(dst []PostID, sid PostID) []PostID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append(dst, c.children[sid]...)
}

// Author returns the author of post sid; false if the table lacks it.
func (c *Corpus) Author(sid PostID) (UserID, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i, ok := slices.BinarySearch(c.sids, sid); ok {
		return c.uids[i], true
	}
	return NoUser, false
}
