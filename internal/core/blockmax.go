package core

// This file is retrieval's merge layer over the blocked postings layout
// (internal/invindex/blocks.go) — the lazy block-at-a-time AND/OR merges
// gather runs once per partition, each writing into the query's scratch —
// and MaxScore-style early termination for the sum ranking. Everything here
// is result-preserving — the candidate set, every score, and the final top-k
// are byte-identical to an exhaustive scan (internal/baseline is the
// reference); only decode work and thread constructions are avoided:
//
//   - The AND merge is an exact set intersection. Non-driver terms advance
//     by SkipTo, and a block whose directory says MinSID > target is ruled
//     out without decoding, so long lists stay mostly undecoded.
//   - The OR merge is a typed min-heap of run heads — one per postings list:
//     the undrained rest of its decoded block, the front TID cached where the
//     heap compares it. The smallest run drains for as long as it stays the
//     smallest, so a posting costs a compare and a store, not a heap
//     operation, and a list is asked for a block at a time.
//   - Blocks are a decode/skip unit only. The per-candidate popularity
//     bound is min(query bound, φ(tid)) — the φ table's entry for the
//     candidate's own SID, which Ingest keeps exact through RaiseForRoot —
//     read for all candidates in one thread.Bounds.PhiBatch (popBounds). It
//     can only tighten the Section V-B popularity bound, never replace a
//     score.
//   - Sum ranking cannot skip candidates (every candidate feeds Σρ and
//     δ(u,q)), so termination happens at user granularity: users are scored
//     in descending upper-bound order and scoring stops once the running
//     kth exact score strictly exceeds the next user's bound.

import (
	"cmp"
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
// one source (Algorithm 4/5 lines 4–7), counting each non-empty postings
// list in stats.PostingsFetched.
func openTermIterators(src PostingsSource, cells []string, term string, stats *QueryStats) ([]*invindex.PostingsIterator, error) {
	opener, lazy := src.(PostingsOpener)
	var its []*invindex.PostingsIterator
	for _, cell := range cells {
		if lazy {
			it, err := opener.OpenPostings(cell, term)
			if err != nil {
				return nil, err
			}
			if it != nil {
				its = append(its, it)
			}
			continue
		}
		ps, err := src.FetchPostings(cell, term)
		if err != nil {
			return nil, err
		}
		if ps != nil {
			its = append(its, invindex.NewSliceIterator(ps))
		}
	}
	stats.PostingsFetched += int64(len(its))
	return its, nil
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
// The result lives in sc.merged.
func intersectIterators(termIts [][]*invindex.PostingsIterator, sc *scratch) []candidate {
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
	out := sc.merged[:0]
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
	sc.merged = out
	return out
}

// runHead is one postings list inside the OR merge: the undrained rest of
// its current decoded block, with the TID at the front cached where the heap
// compares it.
type runHead struct {
	tid  social.PostID // rest[0].TID
	rest []invindex.Posting
	it   *invindex.PostingsIterator
}

// siftDown restores the min-heap order of h below slot i.
func siftDown(h []runHead, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].tid < h[c].tid {
			c++
		}
		if h[i].tid <= h[c].tid {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// unionIterators is the lazy OR merge (Algorithm 4 lines 12–14): a k-way
// merge folding equal TIDs, term frequencies summing across the terms that
// matched (bag semantics). Every posting is a candidate, so every block
// decodes — OR gains no skips. The result lives in sc.merged, sized from the
// lists' lengths, so the merge allocates nothing once the scratch has grown.
func unionIterators(termIts [][]*invindex.PostingsIterator, sc *scratch) []candidate {
	h, total := sc.heap[:0], 0
	for _, its := range termIts {
		for _, it := range its {
			total += it.Len()
			if rest := it.Rest(); len(rest) > 0 {
				h = append(h, runHead{tid: rest[0].TID, rest: rest, it: it})
			}
		}
	}
	sc.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	out, n := grow(&sc.merged, total), 0
	for len(h) > 0 {
		// The root's run stays the smallest up to the smaller of its
		// children's heads; drain it that far in one go. Equal TIDs fold
		// whichever run delivers them first, so ties may drain too.
		limit := social.PostID(math.MaxInt64)
		if len(h) > 1 {
			limit = h[1].tid
			if len(h) > 2 && h[2].tid < limit {
				limit = h[2].tid
			}
		}
		rest, i := h[0].rest, 0
		for ; i < len(rest) && rest[i].TID <= limit; i++ {
			if p := rest[i]; n > 0 && out[n-1].tid == p.TID {
				out[n-1].matches += int(p.TF)
			} else {
				out[n] = candidate{tid: p.TID, matches: int(p.TF)}
				n++
			}
		}
		if i == len(rest) {
			rest, i = h[0].it.NextRest(), 0
		}
		if i < len(rest) {
			h[0].tid, h[0].rest = rest[i].TID, rest[i:]
		} else { // list exhausted (or failed to decode: closeIterators reports it)
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return out[:n]
}

// boundKey is one candidate user in the sum ranking's early-termination
// pass: the upper bound on its combined score, and its UID beside it so the
// bound-order sort touches nothing but the 24-byte keys. group is the user's
// row of the user table, which also names its span of the grouped candidates.
type boundKey struct {
	ub    float64
	uid   social.UserID
	group int32
}

// popBounds returns, per candidate, the popularity bound the prune sites
// evaluate: the smaller of the query-level bound (Section V-B) and the
// candidate's own φ — near-exact, the table holding the batch-exact
// popularity of every root, raised on ingest — read for the whole ascending
// candidate list in one locked forward pass. The result lives in the scratch.
func (e *Engine) popBounds(cs *candidateSet) []float64 {
	sids := grow(&cs.sc.sids, len(cs.cands))
	for i := range cs.cands {
		sids[i] = cs.cands[i].TID
	}
	bounds := grow(&cs.sc.phi, len(sids))
	e.Bounds.PhiBatch(sids, bounds)
	queryBound := e.Bounds.ForQuery(cs.terms, cs.q.Semantic == And, e.Opts.UseSpecificBounds)
	for i, phi := range bounds {
		bounds[i] = min(queryBound, phi)
	}
	return bounds
}

// sumGroupChunk is how many user groups a streaming round scores before
// re-checking the termination bound. The first round takes enough to fill
// the top-k outright; once the heap is full every extra build past the
// termination point is pure waste, so later rounds advance in small steps
// and re-check often. Derived from the query and the heap state alone, so
// the pruning counters are a function of the query and the corpus.
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
	q, cands, users, stats, rec := &cs.q, cs.cands, cs.users, cs.stats, cs.rec

	// Phase 1 — bound each user's score. One pass over the candidates sums
	// every user's relevance bounds in candidate order, the order the exact
	// pass below sums in; a counting pass then groups the candidate indexes
	// per user (byUser[first[u]:first[u+1]], ascending) for that pass.
	stopPrune := rec.Start(telemetry.StagePrune)
	bounds := e.popBounds(cs)
	keys := grow(&cs.sc.keys, len(users))
	first := grow(&cs.sc.first, len(users)+1)
	clear(first)
	for u := range keys {
		keys[u] = boundKey{uid: users[u].uid, group: int32(u)}
	}
	for i := range cands {
		c := &cands[i]
		keys[c.user].ub += score.KeywordRelevance(c.Matches, bounds[i], p.N) * e.recencyFactor(cs, c.TID)
		first[c.user+1]++
	}
	for u := range keys {
		keys[u].ub = score.Combine(p.Alpha, keys[u].ub, users[u].du)
		first[u+1] += first[u]
	}
	byUser := grow(&cs.sc.byUser, len(cands))
	for i := range cands { // first[u] walks u's span; afterwards it is first[u+1]
		u := cands[i].user
		byUser[first[u]] = int32(i)
		first[u]++
	}
	copy(first[1:], first)
	first[0] = 0
	candsOf := func(k boundKey) []int32 { return byUser[first[k.group]:first[k.group+1]] }
	slices.SortFunc(keys, func(a, b boundKey) int {
		if c := cmp.Compare(b.ub, a.ub); c != 0 {
			return c
		}
		return cmp.Compare(a.uid, b.uid)
	})
	stopPrune()

	// Phase 2 — exact scoring in bound order, a chunk of users at a time.
	// Each user's candidates are scored in candidate order, keeping every
	// float identical to the exhaustive reduction's.
	tk := newTopK(q.K)
	var ts thread.Stats
	for idx := 0; idx < len(keys); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if tk.full() && keys[idx].ub < tk.peek() {
			for _, k := range keys[idx:] {
				stats.ThreadsPruned += int64(len(candsOf(k)))
			}
			break
		}
		chunk := keys[idx:min(idx+sumGroupChunk(q.K, tk.full()), len(keys))]
		// Build the chunk's threads in SID order, not bound order: thread
		// expansion walks B⁺-tree leaves, and ascending-SID builds share
		// pages the way the exhaustive scan does. Safe — admission into the
		// top-k below is order-independent (the weakest-member rule yields
		// the k best under (score desc, UID asc) however members arrive) and
		// only bounds past the chunk are looked at again.
		slices.SortFunc(chunk, func(a, b boundKey) int {
			return cmp.Compare(cands[candsOf(a)[0]].TID, cands[candsOf(b)[0]].TID)
		})
		t0 := time.Now()
		for _, k := range chunk {
			var rs float64
			for _, i := range candsOf(k) {
				c := &cands[i]
				pop, _ := e.builder.Popularity(c.TID, p.Epsilon, &ts)
				rs += score.KeywordRelevance(c.Matches, pop, p.N) * e.recencyFactor(cs, c.TID)
			}
			us := score.Combine(p.Alpha, rs, users[k.group].du)
			if !tk.full() {
				tk.add(k.uid, us)
				continue
			}
			// Admit under exactly the sort-then-truncate order: higher
			// score, or equal score with a smaller UID than the weakest.
			wuid, ws := tk.weakest()
			if us > ws || (us == ws && k.uid < wuid) {
				tk.removeWeakest()
				tk.add(k.uid, us)
			}
		}
		rec.Observe(telemetry.StageThreadBuild, t0, time.Since(t0))
		idx += len(chunk)
	}
	stats.addThreads(&ts)
	return tk.results(), nil
}
