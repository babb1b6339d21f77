// Package thread implements tweet threads (Definition 3): the reply/forward
// cascade rooted at a tweet, materialized level by level from the corpus
// table's reply graph (Tree). The serving engine builds no thread: it reads
// every candidate's φ from the level sizes the corpus table
// (social.Corpus) counts as posts arrive. The paper's Algorithm 1 over the
// metadata database's rsid B⁺-tree is what the figures time, and lives with
// them in internal/experiments.
package thread

import (
	"repro/internal/score"
	"repro/internal/social"
)

// Node is one tweet of a materialized thread tree.
type Node struct {
	SID    social.PostID
	UID    social.UserID
	Parent social.PostID // NoPost for the root
	Level  int           // 1 for the root, matching Definition 4's levels
}

// Tree materializes the thread rooted at root (Definition 3) up to depth
// levels below it from the corpus table's reply graph, returning its nodes
// in BFS order (root first, each node's reactions in ascending SID order)
// plus the popularity score of Definition 4 — the tree and the score
// Algorithm 1 produces. The root's UID is 0 when the table does not hold
// the root.
func Tree(c *social.Corpus, root social.PostID, depth int, epsilon float64) ([]Node, float64) {
	uid, _ := c.Author(root)
	nodes := []Node{{SID: root, UID: uid, Level: 1}}
	var levels []uint32
	var reactions []social.PostID
	for level, start := 2, 0; level <= depth+1; level++ {
		end := len(nodes)
		for _, parent := range nodes[start:end] {
			reactions = c.Reactions(reactions[:0], parent.SID)
			for _, sid := range reactions {
				uid, _ := c.Author(sid)
				nodes = append(nodes, Node{SID: sid, UID: uid, Parent: parent.SID, Level: level})
			}
		}
		if len(nodes) == end {
			break
		}
		levels = append(levels, uint32(len(nodes)-end))
		start = end
	}
	return nodes, score.Popularity(levels, epsilon)
}
