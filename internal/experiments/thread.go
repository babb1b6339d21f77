package experiments

import (
	"repro/internal/metadb"
	"repro/internal/score"
	"repro/internal/social"
	"repro/internal/thread"
)

// Builder constructs tweet threads the paper's way (Algorithm 1): level by
// level against the paged metadata database, through its rsid B⁺-tree.
// The serving System reads the same trees from its corpus table
// (thread.Tree); the figures time this one.
type Builder struct {
	DB    *metadb.DB
	Depth int // thread depth limit d of Algorithm 1
}

// ThreadStats counts construction work for the experiments.
type ThreadStats struct {
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
func (b *Builder) walk(root social.PostID, stats *ThreadStats, nodes *[]thread.Node) []uint32 {
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
					*nodes = append(*nodes, thread.Node{SID: r.SID, UID: r.UID, Parent: frontier[i], Level: depth + 1})
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
func (b *Builder) Popularity(root social.PostID, epsilon float64, stats *ThreadStats) (float64, []uint32) {
	levels := b.walk(root, stats, nil)
	return score.Popularity(levels, epsilon), levels
}

// Tree materializes the thread rooted at root (Definition 3) up to the
// depth limit, returning its nodes in BFS order (root first) plus the
// popularity score. It performs the same metadata I/O as Popularity.
func (b *Builder) Tree(root social.PostID, epsilon float64, stats *ThreadStats) ([]thread.Node, float64) {
	nodes := []thread.Node{{SID: root, Level: 1}}
	if row, ok := b.DB.GetBySID(root); ok {
		nodes[0].UID = row.UID
	}
	levels := b.walk(root, stats, &nodes)
	return nodes, score.Popularity(levels, epsilon)
}
