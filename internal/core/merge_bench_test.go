package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/invindex"
	"repro/internal/social"
)

// hashIntersect is the alternative the sorted-merge intersection is
// benchmarked against (DESIGN.md ablation "sorted-postings merge vs
// hash-set intersection"): build a map from the shortest list, probe the
// others.
func hashIntersect(lists [][]invindex.Posting) []candidate {
	if len(lists) == 0 {
		return nil
	}
	shortest := 0
	for i, l := range lists {
		if len(l) < len(lists[shortest]) {
			shortest = i
		}
	}
	acc := make(map[social.PostID]int, len(lists[shortest]))
	for _, p := range lists[shortest] {
		acc[p.TID] = int(p.TF)
	}
	for i, l := range lists {
		if i == shortest {
			continue
		}
		next := make(map[social.PostID]int, len(acc))
		for _, p := range l {
			if m, ok := acc[p.TID]; ok {
				next[p.TID] = m + int(p.TF)
			}
		}
		acc = next
	}
	// Emit in TID order to match intersectIterators.
	out := make([]candidate, 0, len(acc))
	for _, p := range lists[shortest] {
		if m, ok := acc[p.TID]; ok {
			out = append(out, candidate{tid: p.TID, matches: m})
		}
	}
	return out
}

func syntheticLists(rng *rand.Rand, nLists, length int, overlap float64) [][]invindex.Posting {
	lists := make([][]invindex.Posting, nLists)
	for i := range lists {
		var tid social.PostID
		for j := 0; j < length; j++ {
			if rng.Float64() < overlap {
				tid += 1 // dense region: likely shared across lists
			} else {
				tid += social.PostID(rng.Intn(5) + 1)
			}
			lists[i] = append(lists[i], invindex.Posting{TID: tid, TF: uint32(rng.Intn(3) + 1)})
		}
	}
	return lists
}

func TestHashIntersectMatchesSortedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		lists := syntheticLists(rng, rng.Intn(3)+2, rng.Intn(200)+1, 0.5)
		a := intersectLists(lists)
		b := hashIntersect(lists)
		if len(a) != len(b) {
			t.Fatalf("trial %d: sizes %d vs %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: element %d differs: %+v vs %+v", trial, i, a[i], b[i])
			}
		}
	}
}

func BenchmarkAblationIntersection(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	lists := syntheticLists(rng, 3, 20000, 0.3)
	b.Run("sorted-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			intersectLists(lists)
		}
	})
	b.Run("hash-set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hashIntersect(lists)
		}
	})
	// Asymmetric lists: a rare term against a hot term is where SkipTo on
	// the long list pays off.
	rare := syntheticLists(rng, 1, 50, 0.1)[0]
	hot := syntheticLists(rng, 1, 100000, 0.9)[0]
	asym := [][]invindex.Posting{rare, hot}
	b.Run("asymmetric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			intersectLists(asym)
		}
	})
}

func TestGallopingIntersectionMatchesHashOnAsymmetricLists(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		short := syntheticLists(rng, 1, rng.Intn(20)+1, 0.2)[0]
		long := syntheticLists(rng, 1, rng.Intn(5000)+100, 0.8)[0]
		lists := [][]invindex.Posting{short, long}
		a := intersectLists(lists)
		b := hashIntersect(lists)
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d element %d: %+v vs %+v", trial, i, a[i], b[i])
			}
		}
	}
}

// benchPartials spreads n candidates, TID-ascending with random gaps, over
// fanout shards by a random draw per candidate — shards own regions, not
// time ranges, so their lists interleave — with users drawn from 400 and each
// shard naming its users in first-candidate order.
func benchPartials(rng *rand.Rand, n, fanout int) []*Partials {
	parts := make([]*Partials, fanout)
	for i := range parts {
		parts[i] = &Partials{}
	}
	var tid social.PostID
	for j := 0; j < n; j++ {
		tid += social.PostID(rng.Intn(1000) + 1)
		uid := social.UserID(rng.Intn(400))
		p := parts[rng.Intn(fanout)]
		p.Cands = append(p.Cands, CandidateScore{TID: tid, UID: uid, Delta: rng.Float64(), Rho: rng.Float64()})
	}
	for _, p := range parts {
		seen := map[social.UserID]bool{}
		for _, c := range p.Cands {
			if !seen[c.UID] {
				seen[c.UID] = true
				p.Users = append(p.Users, UserPartial{UID: c.UID, Posts: 1 + int(c.UID)%17})
			}
		}
	}
	return parts
}

// BenchmarkMergePartials times the router's half of a scatter-gather query —
// the k-way candidate merge plus the per-user reduction — over 1146
// candidates (a sharded-city query's count) at fan-out 1, 2 and 4.
func BenchmarkMergePartials(b *testing.B) {
	for _, fanout := range []int{1, 2, 4} {
		parts := benchPartials(rand.New(rand.NewSource(5)), 1146, fanout)
		q := Query{K: 10, Ranking: SumScore}
		b.Run(fmt.Sprintf("fanout-%d", fanout), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := MergePartials(q, 0.5, parts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkUnionPostings(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	lists := syntheticLists(rng, 3, 20000, 0.3)
	sc := new(scratch) // one per query in the engine: the merge buffer is reused
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		unionIterators(iters(lists), sc)
	}
}
