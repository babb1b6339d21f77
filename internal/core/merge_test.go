package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/invindex"
	"repro/internal/score"
	"repro/internal/social"
)

func ps(pairs ...int) []invindex.Posting {
	out := make([]invindex.Posting, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, invindex.Posting{TID: social.PostID(pairs[i]), TF: uint32(pairs[i+1])})
	}
	return out
}

// iters wraps each term's decoded list in one slice iterator — the shape
// gather hands the lazy merges for a source without block iterators. The
// merges consume their iterators, so every call gets fresh ones.
func iters(lists [][]invindex.Posting) [][]*invindex.PostingsIterator {
	out := make([][]*invindex.PostingsIterator, len(lists))
	for i, l := range lists {
		out[i] = []*invindex.PostingsIterator{invindex.NewSliceIterator(l)}
	}
	return out
}

func intersectLists(lists [][]invindex.Posting) []candidate {
	return intersectIterators(iters(lists), new(scratch))
}
func unionLists(lists [][]invindex.Posting) []candidate {
	return unionIterators(iters(lists), new(scratch))
}

func TestIntersectPostings(t *testing.T) {
	lists := [][]invindex.Posting{
		ps(1, 1, 3, 2, 5, 1, 9, 4),
		ps(3, 1, 5, 3, 7, 1),
	}
	got := intersectLists(lists)
	want := []candidate{{doc: 3, matches: 3}, {doc: 5, matches: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("intersect = %+v, want %+v", got, want)
	}
}

func TestIntersectEmptyAndDisjoint(t *testing.T) {
	if got := intersectLists(nil); got != nil {
		t.Errorf("intersect(nil) = %v", got)
	}
	if got := intersectLists([][]invindex.Posting{ps(1, 1), nil}); got != nil {
		t.Errorf("intersect with empty list = %v", got)
	}
	if got := intersectLists([][]invindex.Posting{ps(1, 1, 2, 1), ps(3, 1, 4, 1)}); got != nil {
		t.Errorf("disjoint intersect = %v", got)
	}
}

func TestIntersectSingleList(t *testing.T) {
	got := intersectLists([][]invindex.Posting{ps(2, 3, 8, 1)})
	want := []candidate{{doc: 2, matches: 3}, {doc: 8, matches: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("single-list intersect = %+v, want %+v", got, want)
	}
}

func TestIntersectThreeWay(t *testing.T) {
	lists := [][]invindex.Posting{
		ps(1, 1, 2, 1, 3, 1, 4, 1),
		ps(2, 2, 4, 2),
		ps(2, 5, 3, 1, 4, 1),
	}
	got := intersectLists(lists)
	want := []candidate{{doc: 2, matches: 8}, {doc: 4, matches: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("3-way intersect = %+v, want %+v", got, want)
	}
}

func TestUnionPostings(t *testing.T) {
	lists := [][]invindex.Posting{
		ps(1, 1, 3, 2),
		ps(3, 1, 7, 1),
	}
	got := unionLists(lists)
	want := []candidate{{doc: 1, matches: 1}, {doc: 3, matches: 3}, {doc: 7, matches: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("union = %+v, want %+v", got, want)
	}
	if got := unionLists(nil); len(got) != 0 {
		t.Errorf("union(nil) = %v", got)
	}
}

func TestTopK(t *testing.T) {
	tk := newTopK(2, 2)
	if tk.full() {
		t.Error("fresh topK reports full")
	}
	tk.add(1, 0.5)
	tk.add(2, 0.7)
	if !tk.full() {
		t.Error("topK with k entries not full")
	}
	if tk.peek() != 0.5 {
		t.Errorf("peek = %v, want 0.5", tk.peek())
	}
	// Raising a member's score only ever increases it.
	tk.raise(1, 0.3)
	if tk.peek() != 0.5 {
		t.Error("raise lowered a score")
	}
	tk.raise(1, 0.9)
	if tk.peek() != 0.7 {
		t.Errorf("peek after raise = %v, want 0.7", tk.peek())
	}
	// Replace the weakest.
	tk.removeWeakest()
	tk.add(3, 0.8)
	res := tk.results()
	if len(res) != 2 || res[0].UID != 1 || res[1].UID != 3 {
		t.Errorf("results = %+v", res)
	}
	if !tk.contains(3) || tk.contains(2) {
		t.Error("membership wrong after eviction")
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	tk := newTopK(2, 2)
	tk.add(5, 0.5)
	tk.add(9, 0.5)
	tk.removeWeakest() // tie: the larger UID goes
	if tk.contains(9) || !tk.contains(5) {
		t.Error("tie break should evict the larger UID")
	}
}

func TestSortResults(t *testing.T) {
	rs := []UserResult{{UID: 3, Score: 0.5}, {UID: 1, Score: 0.9}, {UID: 2, Score: 0.5}}
	sortResults(rs)
	if rs[0].UID != 1 || rs[1].UID != 2 || rs[2].UID != 3 {
		t.Errorf("sortResults order = %+v", rs)
	}
}

// TestReducePartialsSumMatchesSortAndTruncate: the router's sum reduction
// admits users through the bounded top-k, and must answer exactly as
// scoring every user, sortResults and truncating to K would. Scores come
// from a few discrete ρ, δ and |P_u| values, so whole groups of users tie,
// and every K from 1 to past the user count puts a tie across place K.
func TestReducePartialsSumMatchesSortAndTruncate(t *testing.T) {
	const alpha = 0.5
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		nUsers := 10 + rng.Intn(30)
		posts := make(map[social.UserID]int, nUsers)
		for u := 1; u <= nUsers; u++ {
			posts[social.UserID(u)] = 2 * (1 + rng.Intn(2))
		}
		// Candidates in ascending TID order, dealt to two shards.
		parts := []*Partials{{}, {}}
		var merged []CandidateScore
		for tid := social.PostID(1); tid <= social.PostID(2*nUsers); tid++ {
			c := CandidateScore{
				TID: tid, UID: social.UserID(1 + rng.Intn(nUsers)),
				Rho: 0.1 * float64(1+rng.Intn(2)), Delta: 0.5 * float64(1+rng.Intn(2)),
			}
			merged = append(merged, c)
			p := parts[rng.Intn(2)]
			p.Cands = append(p.Cands, c)
			seen := false
			for _, u := range p.Users {
				seen = seen || u.UID == c.UID
			}
			if !seen {
				p.Users = append(p.Users, UserPartial{UID: c.UID, Posts: posts[c.UID]})
			}
		}

		// Reference: every candidate user's score, sorted and truncated.
		rhoSum := make(map[social.UserID]float64)
		deltaSum := make(map[social.UserID]float64)
		for _, c := range merged {
			rhoSum[c.UID] += c.Rho
			deltaSum[c.UID] += c.Delta
		}
		var all []UserResult
		for uid, rs := range rhoSum {
			all = append(all, UserResult{UID: uid, Score: score.Combine(alpha, rs, score.UserDistance(deltaSum[uid], posts[uid]))})
		}
		sortResults(all)
		for k := 1; k <= len(all)+2; k++ {
			want := all[:min(k, len(all))]
			got, _, err := MergePartials(Query{K: k, Ranking: SumScore}, alpha, parts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, k=%d over %d users: got %v, want %v", trial, k, len(all), got, want)
			}
		}
	}
}
