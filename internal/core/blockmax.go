package core

// This file is retrieval's merge layer over the blocked postings layout
// (internal/invindex/blocks.go): the lazy block-at-a-time AND/OR merges
// gather runs once per partition, each writing into the query's scratch.
// Both are exact — the candidate set is byte-identical to an exhaustive scan
// (internal/baseline is the reference); only decode work is avoided:
//
//   - The AND merge is an exact set intersection. Non-driver terms advance
//     by SkipTo, and a block whose directory says MinSID > target is ruled
//     out without decoding, so long lists stay mostly undecoded.
//   - The OR merge is a typed min-heap of run heads — one per postings list:
//     the undrained rest of its decoded block, the front TID cached where the
//     heap compares it. The smallest run drains for as long as it stays the
//     smallest, so a posting costs a compare and a store, not a heap
//     operation, and a list is asked for a block at a time.

import (
	"math"

	"repro/internal/invindex"
	"repro/internal/social"
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
