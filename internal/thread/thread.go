// Package thread implements tweet threads (Definition 3): the reply/forward
// cascade rooted at a tweet, constructed level by level through the
// metadata database's rsid index exactly as Algorithm 1 prescribes, plus
// the popularity tables of Section V-B: the exact φ of every root, which the
// serving engine scores from, and the query-level upper bounds (the global
// Definition 11 bound and the pre-computed per-hot-keyword bounds) with
// which the paper's maximum-score algorithm prunes thread construction.
// Popularity is stored in one place, the Bounds φ table; the Builder
// recomputes it and memoizes nothing.
package thread

import (
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
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

// rootOnly is the level-size list of a thread nothing has replied to —
// most candidates of most queries — shared so that walking one allocates
// nothing. Callers must not modify it.
var rootOnly = []int{1}

// walk is Algorithm 1's level loop, the one copy Popularity and Tree
// share: starting from the root it expands one level at a time via "select
// all where rsid = Id" until the depth limit and returns the level sizes
// (levels[0] == 1 for the root). Each frontier node's reactions arrive in
// ascending SID order — the rsid index's value order. When the database has
// a CSR reply-graph snapshot they are read from it node by node with zero
// B⁺-tree traffic; otherwise one SelectByRSIDBatch per thread level shares
// descents across the frontier and reads each data page once. Both visit
// the identical node sets in the identical order, so φ(p) is byte-identical
// either way. The frontier ping-pongs between two buffers and levels is
// sized once, so a walk allocates per thread, not per level, and not at all
// for a root without reactions. nodes, when non-nil, collects every visited
// reaction in BFS order.
func (b *Builder) walk(root social.PostID, stats *Stats, nodes *[]Node) []int {
	if stats != nil {
		stats.ThreadsBuilt++
	}
	snap := b.DB.ReplySnapshot()
	levels := rootOnly
	var bufs [2][8]social.PostID // stack-seeded: small threads never reach the heap
	frontier, next := append(bufs[0][:0], root), bufs[1][:0]
	for depth := 1; depth <= b.Depth && len(frontier) > 0; depth++ {
		next = next[:0]
		visit := func(parent, sid social.PostID, uid social.UserID) {
			next = append(next, sid)
			if nodes != nil {
				*nodes = append(*nodes, Node{SID: sid, UID: uid, Parent: parent, Level: depth + 1})
			}
		}
		if snap != nil {
			for _, parent := range frontier {
				for _, c := range snap.Children(parent) {
					visit(parent, c.SID, c.UID)
				}
			}
		} else {
			lists, bs := b.DB.SelectByRSIDBatch(frontier)
			if stats != nil {
				stats.BatchLookups += bs.Lookups
				stats.BatchPagesSaved += bs.PagesSaved
			}
			for i, rows := range lists {
				for _, r := range rows {
					visit(frontier[i], r.SID, r.UID)
				}
			}
		}
		if stats != nil {
			stats.TweetsPulled += int64(len(next))
		}
		if len(next) == 0 {
			break
		}
		if len(levels) == 1 { // first reaction level: leave the shared slice
			levels = append(make([]int, 0, b.Depth+1), 1)
		}
		levels = append(levels, len(next))
		frontier, next = next, frontier
	}
	return levels
}

// Popularity runs Algorithm 1 and scores the thread per Definition 4. It
// returns the popularity and the level sizes (shared when the thread is the
// root alone: do not modify them), and updates stats.
func (b *Builder) Popularity(root social.PostID, epsilon float64, stats *Stats) (float64, []int) {
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

// Bounds holds the popularity tables of Section V-B: the φ table, and the
// query-level upper bounds of the paper's max-score algorithm. Both are
// batch-computed offline and kept current by live ingest (RaiseForRoot), so
// reads go through ForQuery and PhiBatch and an internal RWMutex; the
// exported fields themselves should only be touched when no queries are in
// flight. EncodeGob persists the exported fields plus the φ table —
// everything a Bounds holds.
type Bounds struct {
	// TM is t_m, the maximum number of replied/forwarded tweets any single
	// tweet has in the database.
	TM int
	// Depth is the thread depth limit the bounds were computed for.
	Depth int
	// Def11 is the global bound of Definition 11: Σ_{i=2..n} t_m · 1/i with
	// n = Depth+1 levels. As defined in the paper it assumes every level is
	// capped by t_m; threads where several tweets at one level each attract
	// replies can exceed it, so it is a heuristic bound.
	Def11 float64
	// MaxObserved is the largest actual thread popularity in the corpus, a
	// sound global bound ("selecting the largest thread score") computed
	// offline: the bound ForQuery returns for a keyword without a specific
	// one.
	MaxObserved float64
	// PerKeyword maps each hot keyword (stemmed) to the largest popularity
	// among threads rooted at tweets containing it — the paper's "specific
	// keyword related" bound, precomputed offline for the top-10 frequent
	// keywords (Table II).
	PerKeyword map[string]float64

	// mu guards MaxObserved, PerKeyword and the φ table against concurrent
	// ForQuery/PhiBatch/RaiseForRoot calls once the system serves live ingest.
	mu sync.RWMutex

	// The φ table answers PhiBatch: the popularity of the thread rooted
	// at one tweet, the number the engine scores every candidate with. It is
	// held globally (SID-keyed), so one RaiseForRoot keeps it exact for every
	// postings list at once. phiSIDs is ascending; phiVals is parallel. SIDs
	// absent from the table are threads that have never been scored — a
	// just-ingested post nothing has replied to, whose φ is phiFloor (= ε) —
	// because every φ change flows through RaiseForRoot with the exact
	// recomputed popularity.
	phiSIDs  []social.PostID
	phiVals  []float64
	phiFloor float64
}

// Def11Bound computes the Definition 11 global bound for a given t_m and
// depth limit: t_m · Σ_{i=2}^{depth+1} 1/i.
func Def11Bound(tm, depth int) float64 {
	var sum float64
	for i := 2; i <= depth+1; i++ {
		sum += 1.0 / float64(i)
	}
	return float64(tm) * sum
}

// ComputeBounds scans the whole corpus offline and derives every bound the
// engine may use. hotKeywords are the stemmed keywords that receive
// specific bounds; posts supply each root tweet's term bag. The scan builds
// each thread once through an in-memory child adjacency (this is the
// offline pre-computation of Section V-B, not charged to query I/O).
func ComputeBounds(posts []*social.Post, depth int, epsilon float64, hotKeywords []string) *Bounds {
	children := make(map[social.PostID][]social.PostID, len(posts))
	tm := 0
	for _, p := range posts {
		if p.RSID != social.NoPost {
			children[p.RSID] = append(children[p.RSID], p.SID)
			if n := len(children[p.RSID]); n > tm {
				tm = n
			}
		}
	}
	hot := make(map[string]struct{}, len(hotKeywords))
	for _, kw := range hotKeywords {
		hot[kw] = struct{}{}
	}
	b := &Bounds{
		TM:         tm,
		Depth:      depth,
		Def11:      Def11Bound(tm, depth),
		PerKeyword: make(map[string]float64, len(hotKeywords)),
		phiSIDs:    make([]social.PostID, len(posts)),
		phiVals:    make([]float64, len(posts)),
		phiFloor:   epsilon,
	}
	// The φ table is SID-ascending. Corpora normally arrive that way, so
	// the sort usually finds nothing to move.
	bySID := slices.Clone(posts)
	slices.SortFunc(bySID, func(x, y *social.Post) int { return cmp.Compare(x.SID, y.SID) })
	for i, p := range bySID {
		pop := popularityInMemory(p.SID, children, depth, epsilon)
		b.phiSIDs[i], b.phiVals[i] = p.SID, pop
		if pop > b.MaxObserved {
			b.MaxObserved = pop
		}
		for _, w := range p.Words {
			if _, isHot := hot[w]; isHot && pop > b.PerKeyword[w] {
				b.PerKeyword[w] = pop
			}
		}
	}
	// Keywords never observed still get an explicit (epsilon) entry so the
	// query-time lookup can distinguish "hot keyword with tiny bound" from
	// "not a hot keyword".
	for kw := range hot {
		if _, ok := b.PerKeyword[kw]; !ok {
			b.PerKeyword[kw] = epsilon
		}
	}
	return b
}

// PhiBatch writes out[i] = φ of the thread rooted at roots[i] — what
// Algorithm 1 would compute for it — for one ascending batch (repeats
// allowed): one read lock and one forward walk of the table, every search
// galloping from where the previous one ended. It is exact under live
// ingest: every φ change flows through RaiseForRoot with the recomputed
// popularity, and SIDs absent from the table are single-tweet threads at the
// φ floor (ε). Only bounds that pass CheckParams hold a table to read.
func (b *Bounds) PhiBatch(roots []social.PostID, out []float64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	sids := b.phiSIDs
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
		out[i] = b.phiFloor
		if found {
			out[i] = b.phiVals[pos]
		}
	}
}

// ErrParamsMismatch marks bounds PhiBatch cannot answer φ from for a scoring
// model: bounds without a φ table (an image written before the table
// existed), or a table computed for another thread depth or ε.
var ErrParamsMismatch = errors.New("popularity bounds do not match the scoring model")

// CheckParams reports, as ErrParamsMismatch, whether the bounds cannot give
// the exact φ of Algorithm 1 run with depth limit depth and smoothing
// popularity epsilon.
func (b *Bounds) CheckParams(depth int, epsilon float64) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	switch {
	case b.phiSIDs == nil:
		return fmt.Errorf("%w: the bounds hold no φ table", ErrParamsMismatch)
	case b.Depth != depth:
		return fmt.Errorf("%w: bounds computed for thread depth %d, the model says %d", ErrParamsMismatch, b.Depth, depth)
	case b.phiFloor != epsilon:
		return fmt.Errorf("%w: φ table computed for ε = %v, the model says %v", ErrParamsMismatch, b.phiFloor, epsilon)
	}
	return nil
}

// setPhi records the exact popularity pop for root in the φ table,
// inserting the SID if the table has never seen it. It overwrites rather
// than raises: when ε > ½ a thread's first reply lowers φ (one reply scores
// ½), and ingest is serialized, so the latest value is the exact one.
// Callers hold mu.
func (b *Bounds) setPhi(root social.PostID, pop float64) {
	i, ok := slices.BinarySearch(b.phiSIDs, root)
	if ok {
		b.phiVals[i] = pop
		return
	}
	// Unseen SID. Ingested SIDs ascend past every batch SID, so this is an
	// append in practice; the general insert keeps soundness either way.
	b.phiSIDs = slices.Insert(b.phiSIDs, i, root)
	b.phiVals = slices.Insert(b.phiVals, i, pop)
}

// popularityInMemory scores a thread from a prebuilt adjacency, mirroring
// Algorithm 1 without database I/O.
func popularityInMemory(root social.PostID, children map[social.PostID][]social.PostID, depth int, epsilon float64) float64 {
	levels := []int{1}
	frontier := []social.PostID{root}
	for d := 1; d <= depth && len(frontier) > 0; d++ {
		var next []social.PostID
		for _, tid := range frontier {
			next = append(next, children[tid]...)
		}
		if len(next) == 0 {
			break
		}
		levels = append(levels, len(next))
		frontier = next
	}
	return score.Popularity(levels, epsilon)
}

// ForQuery selects the popularity bound of the paper's max-score pruning
// (Algorithm 5 lines 18–19) for a query per Section VI-B5:
// with AND semantics the smallest per-keyword bound applies (every result
// tweet contains every keyword), with OR the largest. Keywords without a
// specific bound fall back to the global bound; useSpecific=false forces
// the global bound (the Figure 12 baseline).
func (b *Bounds) ForQuery(terms []string, and, useSpecific bool) float64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	global := b.MaxObserved
	if !useSpecific || len(terms) == 0 {
		return global
	}
	var bound float64
	first := true
	for _, term := range terms {
		kb, ok := b.PerKeyword[term]
		if !ok {
			kb = global
		}
		switch {
		case first:
			bound = kb
			first = false
		case and && kb < bound:
			bound = kb
		case !and && kb > bound:
			bound = kb
		}
	}
	return bound
}

// RaiseForRoot records that a live-ingested reply changed the thread rooted
// at root to popularity pop: the root's φ-table entry becomes pop, and the
// global bound and every keyword bound (which of them the root's text could
// violate is not tracked) are lifted to at least pop. Raising a bound can
// only relax pruning, never tighten it, so it is always sound. Safe for
// concurrent use with ForQuery and PhiBatch.
func (b *Bounds) RaiseForRoot(root social.PostID, pop float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if pop > b.MaxObserved {
		b.MaxObserved = pop
	}
	b.setPhi(root, pop)
	for kw, v := range b.PerKeyword {
		if pop > v {
			b.PerKeyword[kw] = pop
		}
	}
}

// boundsWire is the gob image of Bounds: the exported bound fields plus
// the φ table. Gob matches fields by name and skips mismatches in either
// direction, so images written by earlier code that encoded *Bounds
// directly (or lacked the φ fields) still decode — they just come back
// without a φ table, which CheckParams refuses.
type boundsWire struct {
	TM          int
	Depth       int
	Def11       float64
	MaxObserved float64
	PerKeyword  map[string]float64
	PhiSIDs     []social.PostID
	PhiVals     []float64
	PhiFloor    float64
}

// EncodeGob writes the bounds to w under the read lock, so a snapshot save
// racing RaiseForRoot sees a consistent (TM, Depth, Def11, MaxObserved,
// PerKeyword) tuple instead of gob walking mutating fields unlocked.
func (b *Bounds) EncodeGob(w io.Writer) error {
	b.mu.RLock()
	wire := boundsWire{
		TM:          b.TM,
		Depth:       b.Depth,
		Def11:       b.Def11,
		MaxObserved: b.MaxObserved,
		PerKeyword:  make(map[string]float64, len(b.PerKeyword)),
		PhiSIDs:     append([]social.PostID(nil), b.phiSIDs...),
		PhiVals:     append([]float64(nil), b.phiVals...),
		PhiFloor:    b.phiFloor,
	}
	for kw, v := range b.PerKeyword {
		wire.PerKeyword[kw] = v
	}
	b.mu.RUnlock()
	return gob.NewEncoder(w).Encode(&wire)
}

// DecodeBoundsGob reads bounds written by EncodeGob (or by older code that
// gob-encoded *Bounds directly).
func DecodeBoundsGob(r io.Reader) (*Bounds, error) {
	var wire boundsWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, err
	}
	b := &Bounds{
		TM:          wire.TM,
		Depth:       wire.Depth,
		Def11:       wire.Def11,
		MaxObserved: wire.MaxObserved,
		PerKeyword:  wire.PerKeyword,
		phiSIDs:     wire.PhiSIDs,
		phiVals:     wire.PhiVals,
		phiFloor:    wire.PhiFloor,
	}
	if len(b.phiSIDs) != len(b.phiVals) {
		return nil, fmt.Errorf("thread: φ table has %d SIDs but %d values", len(b.phiSIDs), len(b.phiVals))
	}
	return b, nil
}
