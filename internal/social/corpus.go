package social

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/score"
)

// Corpus is the in-memory table of corpus facts a serving system keeps
// beside its index, keyed by dense ordinals. A post's ordinal is its rank
// in ascending SID order; a user's is the order the table first met them.
// Per post it holds the author's user ordinal, the post it reacts to and
// the reactions to it — the reply graph of Definition 2 — and the
// popularity of the thread the post roots (Definition 4, kept as the level
// sizes |T_2| … |T_{d+1}| of Section V-B); per user, the post count |P_u|
// (Definition 9). So a query reads φ, the author and |P_u| of a candidate
// by array index. A build derives the table from the posts, a reload from
// the stored rows, and live ingest appends to it, refusing a post out of
// timestamp order; all three count threads in the one pass that adds each
// post (add). Reads and appends are safe for concurrent use.
type Corpus struct {
	// depth is the thread depth limit d the level sizes are counted for.
	depth int

	mu sync.RWMutex
	// Per post ordinal, ascending by SID: posts holds what a query reads of
	// a post, links its SID and its place in the reply graph; fences[j] is
	// the SID of post j*fenceStride, which find searches first.
	posts  []postMeta
	links  []postLink
	fences []PostID
	// Per counted row, append-only: counts holds depth level sizes,
	// counts[r*depth+h-1] = |T_{h+1}|, and phi[r] is Definition 4 over them.
	// A row exists once something reacts to its post, so |T_2| > 0 and φ
	// does not depend on ε.
	counts []uint32
	phi    []float64
	// Per user ordinal: the UID and |P_u|; users maps a UID to its ordinal.
	uids      []UserID
	userPosts []uint32
	users     map[UserID]uint32
	// orphans lists, by the SID they react to, the reactions to a post the
	// table does not hold, in ascending order. awaited is the largest such
	// SID that lay beyond every stored SID when named: only a post up to it
	// can arrive after its reactions.
	orphans map[PostID][]int32
	awaited PostID
}

// postMeta is what a query reads of a post, 8 bytes, so the entries of a
// query's candidates stay few pages apart.
type postMeta struct {
	author uint32 // the author's user ordinal
	level  int32  // the post's row of counts and phi; -1 while nothing reacts to it (φ = ε)
}

// postLink is a post's SID and its place in the reply graph, packed so
// that a search by SID, a reply's walk up its chain or a thread's walk down
// its levels reads one entry per post. Ordinals of -1 name no post.
type postLink struct {
	sid    PostID
	parent int32 // the post it reacts to; -1 for an original or a post the table lacks
	// The reactions to the post form a list, newest first: latest is its
	// head, and prev the reaction to the same post before this one — so a
	// reply links in by writing its own entry and its parent's.
	latest, prev int32
}

// NewCorpus derives the table, with thread level sizes counted to depth,
// from a batch of posts in any order. A post that fails validation fails
// the batch with its validation error; two posts with one SID fail it with
// ErrRejected.
func NewCorpus(posts []*Post, depth int) (*Corpus, error) {
	rows := make([]Row, len(posts))
	for i, p := range posts {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		rows[i] = Row{SID: p.SID, UID: p.UID, RSID: p.RSID}
	}
	slices.SortFunc(rows, func(a, b Row) int { return cmp.Compare(a.SID, b.SID) })
	return CorpusFromRows(rows, depth)
}

// CorpusFromRows derives the table, with thread level sizes counted to
// depth, from rows that ascend by SID — a segment store's, read in segment
// order. A row whose SID does not exceed the one before fails with
// ErrRejected.
func CorpusFromRows(rows []Row, depth int) (*Corpus, error) {
	if depth < 1 {
		return nil, fmt.Errorf("social: thread depth %d must be positive", depth)
	}
	n := len(rows)
	c := &Corpus{depth: depth, posts: make([]postMeta, 0, n), links: make([]postLink, 0, n),
		users: make(map[UserID]uint32), orphans: make(map[PostID][]int32)}
	for i, r := range rows {
		if i > 0 && r.SID <= rows[i-1].SID {
			return nil, fmt.Errorf("social: %w: SID %d does not follow %d", ErrRejected, r.SID, rows[i-1].SID)
		}
		c.add(r.SID, r.UID, r.RSID)
	}
	return c, nil
}

// Append adds one live post, whose ordinal is then Len()-1. Posts arrive in
// timestamp order: a post whose SID is not beyond every stored one fails
// with ErrRejected, as does a post that fails validation, and the table is
// left unchanged.
func (c *Corpus) Append(p *Post) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("social: %w: %v", ErrRejected, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.links); n > 0 && p.SID <= c.links[n-1].sid {
		return fmt.Errorf("social: %w: SID %d is not beyond max SID %d (posts arrive in timestamp order)",
			ErrRejected, p.SID, c.links[n-1].sid)
	}
	c.add(p.SID, p.UID, p.RSID)
	return nil
}

// add appends a post whose SID is beyond every stored one, under the write
// lock or before c is shared, and counts it into every thread it joins: a
// reaction is one more tweet at level h+1 of its h-th ancestor's thread,
// for its first depth ancestors — at most depth increments, reached through
// the parent ordinals, and never an insert.
func (c *Corpus) add(sid PostID, uid UserID, rsid PostID) {
	ord := int32(len(c.posts))
	user, ok := c.users[uid]
	if !ok {
		user = uint32(len(c.uids))
		c.users[uid] = user
		c.uids = append(c.uids, uid)
		c.userPosts = append(c.userPosts, 0)
	}
	c.userPosts[user]++
	if ord%fenceStride == 0 {
		c.fences = append(c.fences, sid)
	}
	c.posts = append(c.posts, postMeta{author: user, level: -1})
	c.links = append(c.links, postLink{sid: sid, parent: -1, latest: -1, prev: -1})
	if rsid != NoPost {
		if i, ok := c.find(rsid); ok {
			c.link(int32(i), ord)
		} else {
			c.orphans[rsid] = append(c.orphans[rsid], ord)
			if rsid > sid {
				c.awaited = max(c.awaited, rsid)
			}
		}
	}
	if sid <= c.awaited {
		if early, ok := c.orphans[sid]; ok {
			// Reactions that arrived before the post they react to (a
			// batch or stream out of causal order) join its threads now.
			delete(c.orphans, sid)
			c.adopt(ord, early)
			return
		}
	}
	for a, h := c.links[ord].parent, 0; a >= 0 && h < c.depth; a, h = c.links[a].parent, h+1 {
		c.bump(a, h)
	}
}

// link makes post child the latest reaction to post parent.
func (c *Corpus) link(parent, child int32) {
	c.links[child].parent = parent
	c.links[child].prev = c.links[parent].latest
	c.links[parent].latest = child
}

// bump adds one tweet at level h+2 of the thread rooted at post a.
func (c *Corpus) bump(a int32, h int) {
	r := c.row(a)
	row := c.counts[int(r)*c.depth : int(r+1)*c.depth]
	row[h]++
	c.phi[r] = score.Popularity(row, 0)
}

// row returns post a's row of counts, appending a zero row on first use.
func (c *Corpus) row(a int32) int32 {
	m := &c.posts[a]
	if m.level < 0 {
		m.level = int32(len(c.phi))
		c.counts = append(c.counts, make([]uint32, c.depth)...)
		c.phi = append(c.phi, 0)
	}
	return m.level
}

// adopt links the new post ord to the reactions that named it before it
// arrived — in ascending order, so its list stays newest first — and recounts,
// by a walk down the reply graph, the rows of ord and of its first depth
// ancestors: every thread a path through the new links can reach. Exact
// whatever the shape, cycles included.
func (c *Corpus) adopt(ord int32, early []int32) {
	for _, child := range early {
		c.link(ord, child)
	}
	levels := make([]uint32, c.depth)
	var frontier, next []int32
	for a, h := ord, 0; a >= 0 && h <= c.depth; a, h = c.links[a].parent, h+1 {
		clear(levels)
		frontier = append(frontier[:0], a)
		for l := 0; l < c.depth && len(frontier) > 0; l++ {
			next = next[:0]
			for _, p := range frontier {
				for k := c.links[p].latest; k >= 0; k = c.links[k].prev {
					next = append(next, k)
				}
			}
			levels[l] = uint32(len(next))
			frontier, next = next, frontier
		}
		if levels[0] > 0 {
			r := c.row(a)
			copy(c.counts[int(r)*c.depth:], levels)
			c.phi[r] = score.Popularity(levels, 0)
		}
	}
}

// fenceStride is how many posts one entry of the fence index spans.
const fenceStride = 16

// find returns the ordinal of post sid, or where it would go. A reply, a
// reload and a lookup by SID each pay for it in dependent cache misses, so
// it narrows the fence index by interpolation — SIDs are timestamps, close
// to uniform over a stretch, so each step's guess from the bracket's two
// ends lands near sid — and bisects what a few steps leave, then the
// fenceStride SIDs the fence found brackets. Caller holds a lock or owns c.
func (c *Corpus) find(sid PostID) (int, bool) {
	fs := c.fences
	if len(fs) == 0 || sid < fs[0] {
		return 0, false
	}
	// f, the last fence ≤ sid, lies in [lo, hi): fs[lo] ≤ sid < fs[hi].
	lo, hi := 0, len(fs)
	for step := 0; step < 4 && hi-lo > 8 && sid < fs[hi-1]; step++ {
		g := lo + int((float64(sid)-float64(fs[lo]))/(float64(fs[hi-1])-float64(fs[lo]))*float64(hi-1-lo))
		g = min(max(g, lo+1), hi-2)
		if fs[g] <= sid {
			lo = g
		} else {
			hi = g
		}
	}
	f := lastAtMost(fs, lo, hi, sid)
	block := c.links[f*fenceStride : min((f+1)*fenceStride, len(c.links))]
	i, ok := slices.BinarySearchFunc(block, sid, func(l postLink, sid PostID) int { return cmp.Compare(l.sid, sid) })
	return f*fenceStride + i, ok
}

// lastAtMost returns the index of the last of xs[lo:hi] not above sid,
// given xs[lo] ≤ sid.
func lastAtMost(xs []PostID, lo, hi int, sid PostID) int {
	k, found := slices.BinarySearch(xs[lo:hi], sid)
	if !found {
		k--
	}
	return lo + k
}

// Depth returns the thread depth limit the table counts level sizes to.
func (c *Corpus) Depth() int { return c.depth }

// Len returns the number of posts in the table.
func (c *Corpus) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.posts)
}

// SIDRange returns the smallest and largest SID in the table.
func (c *Corpus) SIDRange() (min, max PostID) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if n := len(c.links); n > 0 {
		return c.links[0].sid, c.links[n-1].sid
	}
	return NoPost, NoPost
}

// Ordinal returns the ordinal of post sid; false if the table lacks it.
func (c *Corpus) Ordinal(sid PostID) (uint32, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.find(sid)
	return uint32(i), ok
}

// Ordinals writes the ordinal of each post of an ascending batch into
// out[i] (len(out) ≥ len(posts)) in one forward walk of the table; false
// when the table lacks one of them.
func (c *Corpus) Ordinals(posts []*Post, out []uint32) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	j := 0
	for i, p := range posts {
		for j < len(c.links) && c.links[j].sid < p.SID {
			j++
		}
		if j == len(c.links) || c.links[j].sid != p.SID {
			return false
		}
		out[i] = uint32(j)
	}
	return true
}

// Score reads what ranking needs of a batch of posts by ordinal, under one
// read lock: users[i] receives the user ordinal of the author of post
// posts[i], and phi[i] the popularity φ of the thread it roots — what
// Algorithm 1 computes with smoothing popularity epsilon, ε for a post
// nothing reacts to. Every ordinal must be below Len.
func (c *Corpus) Score(posts []uint32, epsilon float64, users []uint32, phi []float64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, p := range posts {
		m := &c.posts[p]
		users[i] = m.author
		phi[i] = epsilon
		if m.level >= 0 {
			phi[i] = c.phi[m.level]
		}
	}
}

// UserPosts writes |P_u| of each user ordinal of a batch into out[i]
// (len(out) ≥ len(users)), under one read lock and without allocating.
// Every ordinal must be one Score returned.
func (c *Corpus) UserPosts(users []uint32, out []int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, u := range users {
		out[i] = int(c.userPosts[u])
	}
}

// Phi returns φ of the thread rooted at post sid for smoothing popularity
// epsilon: ε for a post nothing reacts to or one the table lacks.
func (c *Corpus) Phi(sid PostID, epsilon float64) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i, ok := c.find(sid); ok && c.posts[i].level >= 0 {
		return c.phi[c.posts[i].level]
	}
	return epsilon
}

// Levels calls fn with every post something reacts to, in ascending SID
// order, and its thread's level sizes (levels[h-1] = |T_{h+1}|), under the
// read lock: fn must not keep levels or call back into c.
func (c *Corpus) Levels(fn func(root PostID, levels []uint32)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, m := range c.posts {
		if r := m.level; r >= 0 {
			fn(c.links[i].sid, c.counts[int(r)*c.depth:int(r+1)*c.depth])
		}
	}
}

// PostCountOfUser returns |P_u|, the number of the user's posts.
func (c *Corpus) PostCountOfUser(uid UserID) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if u, ok := c.users[uid]; ok {
		return int(c.userPosts[u])
	}
	return 0
}

// Reactions appends to dst the reactions to sid, in ascending SID order —
// also to a post the table does not hold.
func (c *Corpus) Reactions(dst []PostID, sid PostID) []PostID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.find(sid)
	if !ok {
		for _, k := range c.orphans[sid] {
			dst = append(dst, c.links[k].sid)
		}
		return dst
	}
	n := len(dst)
	for k := c.links[i].latest; k >= 0; k = c.links[k].prev {
		dst = append(dst, c.links[k].sid)
	}
	slices.Reverse(dst[n:])
	return dst
}

// Author returns the author of post sid; false if the table lacks it.
func (c *Corpus) Author(sid PostID) (UserID, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i, ok := c.find(sid); ok {
		return c.uids[c.posts[i].author], true
	}
	return NoUser, false
}
