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
//   - The OR merge over a partition with its own rows is a row bitmap: each
//     posting sets its row's bit and adds its TF to the row's count, and one
//     ascending scan of the set bits — found through a second bitmap of the
//     non-empty words, so the scan follows the postings, not the rows —
//     yields the merged candidates and clears what it read.
//   - The OR merge over the paper's paged index, whose postings carry tweet
//     IDs, is a typed min-heap of run heads — one per postings list: the
//     undrained rest of its decoded block, the front TID cached where the
//     heap compares it. The smallest run drains for as long as it stays the
//     smallest, so a posting costs a compare and a store, not a heap
//     operation, and a list is asked for a block at a time.
//
// A posting's TID field is a row ordinal in a partition with its own rows
// and a tweet ID in the paper's paged index. Both ascend with tweet time
// within a partition, so the merges, which only compare and fold equal
// IDs, read either the same way and call it TID; both OR merges return the
// same candidates in the same order.

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/invindex"
	"repro/internal/social"
)

// openTermIterators opens one iterator per non-empty ⟨cell, term⟩ pair of
// one source (Algorithm 4/5 lines 4–7), counting each non-empty postings
// list in stats.PostingsFetched.
func openTermIterators(src PostingsSource, cells []string, term string, stats *QueryStats) ([]*invindex.PostingsIterator, error) {
	var its []*invindex.PostingsIterator
	for _, cell := range cells {
		it, err := src.OpenPostings(cell, term)
		if err != nil {
			return nil, err
		}
		if it != nil {
			its = append(its, it)
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
		out = append(out, candidate{doc: dp.TID, matches: total})
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
			if p := rest[i]; n > 0 && out[n-1].doc == p.TID {
				out[n-1].matches += int(p.TF)
			} else {
				out[n] = candidate{doc: p.TID, matches: int(p.TF)}
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

// unionRows is the OR merge (Algorithm 4 lines 12–14) for a partition
// holding rows rows: unionIterators' result, candidates in ascending row
// order with their term frequencies summed, from a bitmap instead of a
// heap. A posting whose row the partition does not hold fails the merge,
// naming the smallest such row. Whatever the outcome, the scan leaves the
// scratch's bitmaps and counts all zero, as every call finds them. A row's
// count is 32 bits; a sum that wraps is carried in sc.carry and added back,
// so matches is the int sum the heap merge computes.
func unionRows(termIts [][]*invindex.PostingsIterator, rows int, sc *scratch) ([]candidate, error) {
	set := grow(&sc.rowSet, (rows+63)/64)
	words := grow(&sc.rowWords, (len(set)+63)/64)
	tf := grow(&sc.rowTF, rows)
	total, bad := 0, uint64(math.MaxUint64)
	for _, its := range termIts {
		for _, it := range its {
			total += it.Len()
			// A list that fails to decode ends early: closeIterators reports it.
			for rest := it.Rest(); len(rest) > 0; rest = it.NextRest() {
				for _, p := range rest {
					r := uint64(p.TID)
					if r >= uint64(rows) {
						bad = min(bad, r)
						continue
					}
					set[r>>6] |= 1 << (r & 63)
					words[r>>12] |= 1 << (r >> 6 & 63)
					if tf[r] += p.TF; tf[r] < p.TF {
						sc.carry = append(sc.carry, uint32(r))
					}
				}
			}
		}
	}
	out, n := grow(&sc.merged, total), 0
	for wi, ws := range words {
		if ws == 0 {
			continue
		}
		words[wi] = 0
		for ; ws != 0; ws &= ws - 1 {
			w := wi<<6 | bits.TrailingZeros64(ws)
			for b := set[w]; b != 0; b &= b - 1 {
				r := w<<6 | bits.TrailingZeros64(b)
				out[n] = candidate{doc: social.PostID(r), matches: int(tf[r])}
				tf[r] = 0
				n++
			}
			set[w] = 0
		}
	}
	out = out[:n]
	for _, r := range sc.carry {
		i := sort.Search(n, func(i int) bool { return out[i].doc >= social.PostID(r) })
		out[i].matches += math.MaxUint32 + 1
	}
	sc.carry = sc.carry[:0]
	if bad != math.MaxUint64 {
		return nil, fmt.Errorf("core: corrupt index: a posting names row %d of a partition holding %d", bad, rows)
	}
	return out, nil
}
