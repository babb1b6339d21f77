package core

// This file is retrieval's merge layer over the blocked postings layout
// (internal/invindex/blocks.go) — the lazy block-at-a-time AND/OR merges
// gather runs once per partition — and MaxScore-style early termination for
// the sum ranking. Everything here is result-preserving — the candidate
// set, every score, and the final top-k are byte-identical to an exhaustive
// scan (internal/baseline is the reference); only decode work and thread
// constructions are avoided:
//
//   - The AND merge is an exact set intersection. Non-driver terms advance
//     by SkipTo, and a block whose directory says MinSID > target is ruled
//     out without decoding, so long lists stay mostly undecoded.
//   - Blocks are a decode/skip unit only. The per-candidate popularity
//     bound is evaluated where the pruning decision is made, as
//     min(query bound, thread.Bounds.Phi(tid)): the φ table's entry for the
//     candidate's own SID, which Ingest keeps exact through RaiseForRoot.
//     It can only tighten the Section V-B popularity bound, never replace
//     a score.
//   - Sum ranking cannot skip candidates (every candidate feeds Σρ and
//     δ(u,q)), so termination happens at user granularity: users are scored
//     in descending upper-bound order and scoring stops once the running
//     kth exact score strictly exceeds the next user's bound.

import (
	"cmp"
	"container/heap"
	"context"
	"math"
	"slices"
	"time"

	"repro/internal/invindex"
	"repro/internal/score"
	"repro/internal/social"
	"repro/internal/telemetry"
	"repro/internal/thread"
)

// PostingsOpener is the optional lazy extension of PostingsSource: sources
// that can serve one postings list as a block-at-a-time iterator (one
// payload read, decode on demand) implement it. *invindex.Index and sealed
// segments do; sources that don't (the memtable) are adapted through
// FetchPostings and a slice iterator, which keeps the merges correct (if
// skip-free) over any source.
type PostingsOpener interface {
	OpenPostings(geohash, term string) (*invindex.PostingsIterator, error)
}

// openTermIterators opens one iterator per non-empty ⟨cell, term⟩ pair of
// one source (Algorithm 4/5 lines 4–7). The number of non-empty postings
// lists pulled is returned rather than written into QueryStats so
// concurrent callers need no shared counter.
func openTermIterators(src PostingsSource, cells []string, term string) ([]*invindex.PostingsIterator, int64, error) {
	opener, lazy := src.(PostingsOpener)
	var its []*invindex.PostingsIterator
	var fetched int64
	for _, cell := range cells {
		if lazy {
			it, err := opener.OpenPostings(cell, term)
			if err != nil {
				return nil, 0, err
			}
			if it != nil {
				fetched++
				its = append(its, it)
			}
			continue
		}
		ps, err := src.FetchPostings(cell, term)
		if err != nil {
			return nil, 0, err
		}
		if ps != nil {
			fetched++
			its = append(its, invindex.NewSliceIterator(ps))
		}
	}
	return its, fetched, nil
}

// closeIterators finishes one partition's merge by skipping every iterator
// to the end: blocks the merge never decoded are credited as skipped, and
// any decode error surfaces instead of passing as a short list.
func closeIterators(termIts [][]*invindex.PostingsIterator, stats *QueryStats) error {
	for _, its := range termIts {
		for _, it := range its {
			it.SkipTo(social.PostID(math.MaxInt64))
			if err := it.Err(); err != nil {
				return err
			}
			s := it.Stats()
			stats.BlocksSkipped += s.BlocksSkipped
			stats.PostingsSkipped += s.PostingsSkipped
		}
	}
	return nil
}

// intersectIterators is the lazy AND merge. The driver is the term with the
// fewest postings; its blocks all decode (its postings are the candidate
// superset), while the other terms advance by SkipTo and only decode a
// block when its directory admits the target TID. The cells of one
// partition are disjoint, so at most one iterator per term holds any TID.
func intersectIterators(termIts [][]*invindex.PostingsIterator) []candidate {
	if len(termIts) == 0 {
		return nil
	}
	driver, driverLen := 0, 0
	for ti, its := range termIts {
		n := 0
		for _, it := range its {
			n += it.Len()
		}
		if n == 0 {
			return nil // one term matches nothing: empty intersection
		}
		if ti == 0 || n < driverLen {
			driver, driverLen = ti, n
		}
	}
	var out []candidate
outer:
	for {
		// The driver's smallest current TID across its cell iterators.
		var drv *invindex.PostingsIterator
		var dp invindex.Posting
		for _, it := range termIts[driver] {
			p, ok := it.Cur()
			if !ok {
				continue
			}
			if drv == nil || p.TID < dp.TID {
				drv, dp = it, p
			}
		}
		if drv == nil {
			break // driver exhausted
		}
		total := int(dp.TF)
		for ti, its := range termIts {
			if ti == driver {
				continue
			}
			found, alive := false, false
			for _, it := range its {
				if !it.SkipTo(dp.TID) {
					continue
				}
				alive = true
				info, ok := it.BlockMax()
				if !ok || info.MinSID > dp.TID {
					continue // provably past the target; leave undecoded
				}
				p, ok := it.Cur()
				if !ok {
					continue
				}
				if p.TID == dp.TID {
					total += int(p.TF)
					found = true
					break
				}
			}
			if !alive {
				break outer // term exhausted: no further TID can match
			}
			if !found {
				drv.Next()
				continue outer
			}
		}
		out = append(out, candidate{tid: dp.TID, matches: total})
		drv.Next()
	}
	return out
}

// iterHeap is a min-heap of iterators keyed by current TID, for the k-way
// OR merge. Every iterator in the heap is positioned on a posting.
type iterHeap []*invindex.PostingsIterator

func (h iterHeap) Len() int { return len(h) }
func (h iterHeap) Less(i, j int) bool {
	pi, _ := h[i].Cur()
	pj, _ := h[j].Cur()
	return pi.TID < pj.TID
}
func (h iterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *iterHeap) Push(x any)   { *h = append(*h, x.(*invindex.PostingsIterator)) }
func (h *iterHeap) Pop() (x any) { old := *h; n := len(old); x = old[n-1]; *h = old[:n-1]; return }

// unionIterators is the lazy OR merge (Algorithm 4 lines 12–14): a k-way
// heap merge folding equal TIDs, term frequencies summing across the terms
// that matched (bag semantics). Every posting is a candidate, so every
// block decodes — OR gains no skips.
func unionIterators(termIts [][]*invindex.PostingsIterator) []candidate {
	var h iterHeap
	for _, its := range termIts {
		for _, it := range its {
			if _, ok := it.Cur(); ok {
				h = append(h, it)
			}
		}
	}
	heap.Init(&h)
	var out []candidate
	for h.Len() > 0 {
		it := h[0]
		p, _ := it.Cur()
		if n := len(out); n > 0 && out[n-1].tid == p.TID {
			out[n-1].matches += int(p.TF)
		} else {
			out = append(out, candidate{tid: p.TID, matches: int(p.TF)})
		}
		it.Next()
		if _, ok := it.Cur(); ok {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}

// userGroup is one candidate user in the sum-ranking early-termination
// pass: its row of the user table (uid, exact δ(u,q)), its candidates (as
// indexes into the candidate slice, ascending), and the upper bound on its
// combined score.
type userGroup struct {
	u     *candUser
	cands []int
	ub    float64
}

// sumGroupChunk is how many user groups a streaming round scores before
// re-checking the termination bound. The first round takes enough to fill
// the top-k outright; once the heap is full every extra build past the
// termination point is pure waste, so later rounds advance in small steps
// and re-check often. Derived from the query and the heap state alone —
// never from the worker count — so the pruning counters are deterministic
// at any Parallelism.
func sumGroupChunk(k int, full bool) int {
	if !full {
		return max(k, 8)
	}
	return max(k/4, 4)
}

// rankSumPruned is rankSum with MaxScore-style early termination. Phase 1
// computes, per user, an upper bound on the Definition-10 score: the exact
// δ(u,q) (the user table's — the same floats the exhaustive reduction
// derives) combined with Σ over the user's candidates of the keyword
// relevance under the tightest available popularity bound. Phase 2 scores
// users exactly in descending-bound order, stopping once the running kth
// exact score strictly exceeds the next bound.
//
// Soundness: each candidate's true thread popularity never exceeds its
// bound, KeywordRelevance is monotone in popularity and Combine in ρ, and
// the float sums compare term-wise in identical order, so ub ≥ exact score.
// The kth exact score only grows, and ties in the final ranking break by
// ascending UID among *equal* scores — a user strictly below the kth score
// can never enter. Hence every skipped user is outside the final top-k, and
// the emitted results are byte-identical to rankSum's sort-and-truncate.
func (e *Engine) rankSumPruned(ctx context.Context, cs *candidateSet) ([]UserResult, error) {
	p := e.Opts.Params
	q, cands, stats, rec := &cs.q, cs.cands, cs.stats, cs.rec
	popBound := e.Bounds.ForQuery(cs.terms, q.Semantic == And, e.Opts.UseSpecificBounds)

	// Phase 1 — group per user (table order is first-candidate order) and
	// bound each group's score.
	stopPrune := rec.Start(telemetry.StagePrune)
	groups := make([]userGroup, len(cs.users))
	for i := range cands {
		g := &groups[cands[i].user]
		g.cands = append(g.cands, i)
	}
	for ui := range groups {
		g := &groups[ui]
		g.u = &cs.users[ui]
		var ubRs float64
		for _, i := range g.cands {
			c := &cands[i]
			// The φ table holds the batch-exact popularity of every root,
			// raised on ingest, so this bound is near-exact — it is what
			// lets the termination below fire long before the candidate
			// list runs out.
			ubRs += score.KeywordRelevance(c.Matches, min(popBound, e.Bounds.Phi(c.TID)), p.N) * e.recencyFactor(c.TID)
		}
		g.ub = score.Combine(p.Alpha, ubRs, g.u.du)
	}
	slices.SortFunc(groups, func(a, b userGroup) int {
		if a.ub != b.ub {
			if a.ub > b.ub {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.u.uid, b.u.uid)
	})
	stopPrune()

	// Phase 2 — exact scoring in bound order. Chunks fan thread
	// construction across the pool; each job scores one user's candidates
	// sequentially in candidate order, keeping every float identical to
	// the exhaustive reduction's.
	tk := newTopK(q.K)
	maxChunk := sumGroupChunk(q.K, false)
	rhoSums := make([]float64, maxChunk)
	tss := make([]thread.Stats, maxChunk)
	for idx := 0; idx < len(groups); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if tk.full() && groups[idx].ub < tk.peek() {
			for _, g := range groups[idx:] {
				stats.ThreadsPruned += int64(len(g.cands))
			}
			break
		}
		chunkSize := sumGroupChunk(q.K, tk.full())
		chunk := append([]userGroup(nil), groups[idx:min(idx+chunkSize, len(groups))]...)
		// Build the chunk's threads in SID order, not bound order: thread
		// expansion walks B⁺-tree leaves, and ascending-SID builds share
		// pages the way the exhaustive scan does. Safe — admission into the
		// top-k below is order-independent (the weakest-member rule yields
		// the k best under (score desc, UID asc) however members arrive).
		slices.SortFunc(chunk, func(a, b userGroup) int {
			return cmp.Compare(cands[a.cands[0]].TID, cands[b.cands[0]].TID)
		})
		t0 := time.Now()
		err := RunJobs(ctx, e.workers(), len(chunk), func(ctx context.Context, j int) error {
			tss[j] = thread.Stats{}
			var rs float64
			for _, i := range chunk[j].cands {
				c := &cands[i]
				pop, _ := e.builder.Popularity(c.TID, p.Epsilon, &tss[j])
				rs += score.KeywordRelevance(c.Matches, pop, p.N) * e.recencyFactor(c.TID)
			}
			rhoSums[j] = rs
			return nil
		})
		if err != nil {
			return nil, err
		}
		rec.Observe(telemetry.StageThreadBuild, t0, time.Since(t0))
		for j, g := range chunk {
			stats.addThreads(&tss[j])
			us := score.Combine(p.Alpha, rhoSums[j], g.u.du)
			if !tk.full() {
				tk.add(g.u.uid, us)
				continue
			}
			// Admit under exactly the sort-then-truncate order: higher
			// score, or equal score with a smaller UID than the weakest.
			wuid, ws := tk.weakest()
			if us > ws || (us == ws && g.u.uid < wuid) {
				tk.removeWeakest()
				tk.add(g.u.uid, us)
			}
		}
		idx += len(chunk)
	}
	return tk.results(), nil
}
