// Package thread implements tweet threads (Definition 3): the reply/forward
// cascade rooted at a tweet, constructed level by level through the
// metadata database's rsid index exactly as Algorithm 1 prescribes, and the
// popularity table the serving engine scores from: for every tweet with a
// reaction, the level sizes |T_2| … |T_{d+1}| of its thread, from which
// Definition 4 derives φ exactly. Live ingest keeps the table exact by
// arithmetic (Bounds.AddReply); the Builder recomputes a thread from the
// database and memoizes nothing.
package thread

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/metadb"
	"repro/internal/score"
	"repro/internal/social"
)

// Builder constructs tweet threads against the metadata database.
type Builder struct {
	DB    *metadb.DB
	Depth int // thread depth limit d of Algorithm 1
}

// Stats counts construction work for the experiments.
type Stats struct {
	ThreadsBuilt int64
	TweetsPulled int64 // rows fetched while expanding levels

	BatchLookups    int64 // frontier nodes expanded through multi-gets
	BatchPagesSaved int64 // simulated I/O the multi-gets avoided
}

// walk is Algorithm 1's level loop, the one copy Popularity and Tree
// share: starting from the root it expands one level at a time via "select
// all where rsid = Id" until the depth limit and returns the reaction level
// sizes (levels[i] = |T_{i+2}|; nil for a root nothing replied to). One
// SelectByRSIDBatch per thread level shares descents across the frontier
// and reads each data page once; each frontier node's reactions arrive in
// ascending SID order, the rsid index's value order. The frontier
// ping-pongs between two buffers and levels is sized once, so a walk
// allocates per thread, not per level, and not at all for a root without
// reactions. nodes, when non-nil, collects every visited reaction in BFS
// order.
func (b *Builder) walk(root social.PostID, stats *Stats, nodes *[]Node) []uint32 {
	if stats != nil {
		stats.ThreadsBuilt++
	}
	var levels []uint32
	var bufs [2][8]social.PostID // stack-seeded: small threads never reach the heap
	frontier, next := append(bufs[0][:0], root), bufs[1][:0]
	for depth := 1; depth <= b.Depth && len(frontier) > 0; depth++ {
		next = next[:0]
		lists, bs := b.DB.SelectByRSIDBatch(frontier)
		for i, rows := range lists {
			for _, r := range rows {
				next = append(next, r.SID)
				if nodes != nil {
					*nodes = append(*nodes, Node{SID: r.SID, UID: r.UID, Parent: frontier[i], Level: depth + 1})
				}
			}
		}
		if stats != nil {
			stats.BatchLookups += bs.Lookups
			stats.BatchPagesSaved += bs.PagesSaved
			stats.TweetsPulled += int64(len(next))
		}
		if len(next) == 0 {
			break
		}
		if levels == nil {
			levels = make([]uint32, 0, b.Depth)
		}
		levels = append(levels, uint32(len(next)))
		frontier, next = next, frontier
	}
	return levels
}

// Popularity runs Algorithm 1 and scores the thread per Definition 4. It
// returns the popularity and the reaction level sizes, and updates stats.
func (b *Builder) Popularity(root social.PostID, epsilon float64, stats *Stats) (float64, []uint32) {
	levels := b.walk(root, stats, nil)
	return score.Popularity(levels, epsilon), levels
}

// Node is one tweet of a materialized thread tree.
type Node struct {
	SID    social.PostID
	UID    social.UserID
	Parent social.PostID // NoPost for the root
	Level  int           // 1 for the root, matching Definition 4's levels
}

// Tree materializes the thread rooted at root (Definition 3) up to the
// depth limit, returning its nodes in BFS order (root first) plus the
// popularity score. It performs the same metadata I/O as Popularity.
func (b *Builder) Tree(root social.PostID, epsilon float64, stats *Stats) ([]Node, float64) {
	nodes := []Node{{SID: root, Level: 1}}
	if row, ok := b.DB.GetBySID(root); ok {
		nodes[0].UID = row.UID
	}
	levels := b.walk(root, stats, &nodes)
	return nodes, score.Popularity(levels, epsilon)
}

// Bounds is the popularity table of Section V-B, the one store of thread
// popularity the serving engine reads: for every tweet at least one
// reaction points to, the level sizes |T_2| … |T_{Depth+1}| of its thread,
// keyed by SID. φ is derived from those counts by Definition 4 on every
// read (PhiBatch), so it is exact for any ε, and live ingest keeps the
// counts exact by arithmetic (AddReply). A SID absent from the table is a
// tweet nothing has replied to, whose φ is ε. Reads and writes go through
// an internal RWMutex. The table is derived, never stored: a build counts
// it from the posts, a reload from the rows (ComputeRowBounds).
type Bounds struct {
	// Depth is the thread depth limit d the counts were taken for: the
	// width of every count row.
	Depth int

	mu sync.RWMutex
	// sids is ascending; counts holds one row of Depth level sizes per SID,
	// counts[i*Depth+h-1] = |T_{h+1}| of the thread rooted at sids[i]. A nil
	// sids is a Bounds without a table, which CheckParams refuses.
	sids   []social.PostID
	counts []uint32
}

// ComputeBounds scans the whole corpus offline and counts, for every tweet
// with a reaction, its thread's level sizes up to depth. The scan walks
// each thread once through an in-memory child adjacency (this is the
// offline pre-computation of Section V-B, not charged to query I/O).
func ComputeBounds(posts []*social.Post, depth int) *Bounds {
	children := make(map[social.PostID][]social.PostID)
	for _, p := range posts {
		if p.RSID != social.NoPost {
			children[p.RSID] = append(children[p.RSID], p.SID)
		}
	}
	return countLevels(children, depth)
}

// ComputeRowBounds is ComputeBounds over metadata rows: a reload derives the
// table from the stored rows' (SID, RSID) pairs instead of storing it.
func ComputeRowBounds(rows []metadb.Row, depth int) *Bounds {
	children := make(map[social.PostID][]social.PostID)
	for _, r := range rows {
		if r.RSID != social.NoPost {
			children[r.RSID] = append(children[r.RSID], r.SID)
		}
	}
	return countLevels(children, depth)
}

// countLevels counts every reacted-to tweet's level sizes from the child
// adjacency of the reply graph.
func countLevels(children map[social.PostID][]social.PostID, depth int) *Bounds {
	b := &Bounds{
		Depth:  depth,
		sids:   make([]social.PostID, 0, len(children)),
		counts: make([]uint32, len(children)*depth),
	}
	for sid := range children {
		b.sids = append(b.sids, sid)
	}
	slices.Sort(b.sids)
	var frontier, next []social.PostID
	for i, root := range b.sids {
		row := b.counts[i*depth : (i+1)*depth]
		frontier = append(frontier[:0], root)
		for h := 0; h < depth && len(frontier) > 0; h++ {
			next = next[:0]
			for _, sid := range frontier {
				next = append(next, children[sid]...)
			}
			row[h] = uint32(len(next))
			frontier, next = next, frontier
		}
	}
	return b
}

// PhiBatch writes out[i] = φ of the thread rooted at roots[i] — what
// Algorithm 1 would compute for it with smoothing popularity epsilon — for
// one ascending batch (repeats allowed): one read lock and one forward walk
// of the table, every search galloping from where the previous one ended.
// A found SID scores its count row by Definition 4; an absent one is a
// tweet nothing has replied to and scores ε. Only bounds that pass
// CheckParams hold a table to read.
func (b *Bounds) PhiBatch(roots []social.PostID, epsilon float64, out []float64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	sids, d := b.sids, b.Depth
	pos := 0
	for i, root := range roots {
		// Gallop to a bracket sids[pos-1] < root <= sids[hi], then bisect it.
		hi, step := pos, 1
		for hi < len(sids) && sids[hi] < root {
			pos = hi + 1
			hi += step
			step *= 2
		}
		j, found := slices.BinarySearch(sids[pos:min(hi+1, len(sids))], root)
		pos += j
		out[i] = epsilon
		if found {
			out[i] = score.Popularity(b.counts[pos*d:(pos+1)*d], epsilon)
		}
	}
}

// AddReply records one ingested reply or forward: ancestors[h-1] is its
// h-th ancestor (the parent first), and the reply adds one tweet at level
// h+1 of that ancestor's thread — the only count it changes anywhere. At
// most Depth ancestors are counted, since the depth limit of a farther one
// does not reach the reply. Ancestors the table has not seen enter it.
// One write lock covers the whole chain, so a concurrent PhiBatch sees the
// reply in every ancestor or in none.
func (b *Bounds) AddReply(ancestors []social.PostID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.Depth
	for h, a := range ancestors[:min(len(ancestors), d)] {
		i, ok := slices.BinarySearch(b.sids, a)
		if !ok {
			// Ingested SIDs ascend past every batch SID, so this is usually
			// an append at the end of the table.
			b.sids = slices.Insert(b.sids, i, a)
			b.counts = slices.Insert(b.counts, i*d, make([]uint32, d)...)
		}
		b.counts[i*d+h]++
	}
}

// Range calls fn with every counted SID, in ascending order, and its level
// sizes (levels[h-1] = |T_{h+1}|), under the read lock: fn must not keep
// levels or call back into b.
func (b *Bounds) Range(fn func(root social.PostID, levels []uint32)) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for i, sid := range b.sids {
		fn(sid, b.counts[i*b.Depth:(i+1)*b.Depth])
	}
}

// ErrParamsMismatch marks bounds PhiBatch cannot answer φ from for a scoring
// model: bounds without a count table, or a table counted for another
// thread depth.
var ErrParamsMismatch = errors.New("popularity bounds do not match the scoring model")

// CheckParams reports, as ErrParamsMismatch, whether the bounds cannot give
// the exact φ of Algorithm 1 run with depth limit depth. The table holds
// counts, not scores, so any ε reads it exactly.
func (b *Bounds) CheckParams(depth int) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	switch {
	case b.sids == nil:
		return fmt.Errorf("%w: the bounds hold no level-count table", ErrParamsMismatch)
	case b.Depth != depth:
		return fmt.Errorf("%w: bounds counted for thread depth %d, the model says %d", ErrParamsMismatch, b.Depth, depth)
	}
	return nil
}
