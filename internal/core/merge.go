package core

import (
	"cmp"
	"slices"

	"repro/internal/invindex"
	"repro/internal/social"
)

// candidate is one tweet surviving the keyword semantics, carrying the
// bag-model match count |q.W ∩ p.W| of Definition 6 (the sum of term
// frequencies of the matched query terms).
type candidate struct {
	tid     social.PostID
	matches int
}

// termPostings gathers, for one query term, the postings of every cover
// cell (Algorithm 4/5 lines 4–7) from one postings source, merged into a
// TID-sorted list. Cells are disjoint, so concatenation never duplicates
// a TID within one source. The number of non-empty postings lists pulled is
// returned rather than written into QueryStats so concurrent callers need
// no shared counter.
func termPostings(src PostingsSource, cells []string, term string) ([]invindex.Posting, int64, error) {
	var merged []invindex.Posting
	var fetched int64
	for _, cell := range cells {
		ps, err := src.FetchPostings(cell, term)
		if err != nil {
			return nil, 0, err
		}
		if ps != nil {
			fetched++
			merged = append(merged, ps...)
		}
	}
	slices.SortFunc(merged, func(a, b invindex.Posting) int {
		return cmp.Compare(a.TID, b.TID)
	})
	return merged, fetched, nil
}

// intersectPostings implements the AND semantic (Algorithm 4 lines 9–11):
// a tweet qualifies only if it appears in every term's list. Lists are
// TID-sorted, so a k-way sorted intersection suffices; match counts sum
// the term frequencies across terms (bag semantics). Cursors advance by
// galloping search, so a rare term intersected with a hot term costs
// O(short · log long) instead of O(long).
func intersectPostings(lists [][]invindex.Posting) []candidate {
	if len(lists) == 0 {
		return nil
	}
	for _, l := range lists {
		if len(l) == 0 {
			return nil
		}
	}
	shortest := 0
	for i, l := range lists {
		if len(l) < len(lists[shortest]) {
			shortest = i
		}
	}
	cursors := make([]int, len(lists))
	var out []candidate
outer:
	for _, p := range lists[shortest] {
		total := int(p.TF)
		for i, l := range lists {
			if i == shortest {
				continue
			}
			cursors[i] = gallopTo(l, cursors[i], p.TID)
			if cursors[i] >= len(l) || l[cursors[i]].TID != p.TID {
				if cursors[i] >= len(l) {
					return out // this list is exhausted; no more matches possible
				}
				continue outer
			}
			total += int(l[cursors[i]].TF)
		}
		out = append(out, candidate{tid: p.TID, matches: total})
	}
	return out
}

// gallopTo returns the smallest index >= start whose TID is >= target,
// using exponential probing followed by binary search within the bracket.
func gallopTo(l []invindex.Posting, start int, target social.PostID) int {
	if start >= len(l) || l[start].TID >= target {
		return start
	}
	// Exponential probe: find a bracket (lo, hi] with l[lo] < target <= l[hi].
	step := 1
	lo := start
	hi := start + step
	for hi < len(l) && l[hi].TID < target {
		lo = hi
		step *= 2
		hi = lo + step
	}
	if hi > len(l) {
		hi = len(l)
	}
	// Binary search in (lo, hi].
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if l[mid].TID < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// unionPostings implements the OR semantic (Algorithm 4 lines 12–14):
// a tweet qualifies if it appears in any term's list; match counts sum the
// term frequencies of the terms that matched. Lists are TID-sorted, so the
// union is a merge: concatenate, sort, and fold equal TIDs in one pass.
func unionPostings(lists [][]invindex.Posting) []candidate {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	merged := make([]invindex.Posting, 0, total)
	for _, l := range lists {
		merged = append(merged, l...)
	}
	slices.SortFunc(merged, func(a, b invindex.Posting) int {
		return cmp.Compare(a.TID, b.TID)
	})
	out := make([]candidate, 0, total)
	for _, p := range merged {
		if n := len(out); n > 0 && out[n-1].tid == p.TID {
			out[n-1].matches += int(p.TF)
			continue
		}
		out = append(out, candidate{tid: p.TID, matches: int(p.TF)})
	}
	return out
}
