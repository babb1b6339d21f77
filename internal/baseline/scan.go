// Package baseline provides the two comparison systems of the evaluation:
//
//   - ScanRanker, an index-free exhaustive ranker that computes TkLUS
//     results directly from Definitions 4–10. It is the correctness oracle
//     for the engine's index-based algorithms and the "straightforward
//     approach" strawman of the introduction.
//   - CentralizedBuild, a single-threaded index constructor standing in for
//     the centralized systems (I³, IR-tree variants) the paper compares its
//     MapReduce construction against in Figure 5.
package baseline

import (
	"sort"

	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/social"
)

// ScanRanker answers TkLUS queries by scanning every post. It shares the
// exact scoring model with the engine but uses no index, no metadata
// database, and no pruning.
type ScanRanker struct {
	params   score.Params
	posts    []*social.Post
	children map[social.PostID][]social.PostID
	numPosts map[social.UserID]int // |P_u|
	minSID   social.PostID         // the corpus time span recency ages against
	maxSID   social.PostID

	// RecencyHalfLife mirrors core.Options.RecencyHalfLife; 0 disables it.
	RecencyHalfLife float64
}

// NewScanRanker prepares the in-memory structures for exhaustive ranking.
func NewScanRanker(posts []*social.Post, params score.Params) *ScanRanker {
	r := &ScanRanker{
		params:   params,
		posts:    posts,
		children: make(map[social.PostID][]social.PostID),
		numPosts: make(map[social.UserID]int),
	}
	for _, p := range posts {
		if p.RSID != social.NoPost {
			r.children[p.RSID] = append(r.children[p.RSID], p.SID)
		}
		r.numPosts[p.UID]++
		if r.maxSID == 0 || p.SID < r.minSID {
			r.minSID = p.SID
		}
		r.maxSID = max(r.maxSID, p.SID)
	}
	return r
}

// popularity mirrors Algorithm 1 over the in-memory adjacency.
func (r *ScanRanker) popularity(root social.PostID) float64 {
	var levels []uint32
	frontier := []social.PostID{root}
	for d := 1; d <= r.params.ThreadDepth && len(frontier) > 0; d++ {
		var next []social.PostID
		for _, tid := range frontier {
			next = append(next, r.children[tid]...)
		}
		if len(next) == 0 {
			break
		}
		levels = append(levels, uint32(len(next)))
		frontier = next
	}
	return score.Popularity(levels, r.params.Epsilon)
}

// matches computes the bag-model |q.W ∩ p.W| under the given semantics;
// the boolean reports whether the post qualifies at all.
func matches(postWords []string, terms []string, and bool) (int, bool) {
	tf := make(map[string]int, len(postWords))
	for _, w := range postWords {
		tf[w]++
	}
	total := 0
	matched := 0
	for _, term := range terms {
		if n := tf[term]; n > 0 {
			total += n
			matched++
		}
	}
	if and && matched != len(terms) {
		return 0, false
	}
	return total, matched > 0
}

// Search computes the exact TkLUS answer for q by exhaustive evaluation.
func (r *ScanRanker) Search(q core.Query) []core.UserResult {
	terms := core.QueryTerms(q.Keywords)
	and := q.Semantic == core.And
	p := r.params

	type agg struct {
		sumRho    float64
		maxRho    float64
		candDelta float64 // Σ δ(p,q) over this user's candidates
	}
	users := make(map[social.UserID]*agg)
	for _, post := range r.posts {
		if q.TimeWindow != nil &&
			(post.SID < social.PostID(q.TimeWindow.From.UnixNano()) ||
				post.SID > social.PostID(q.TimeWindow.To.UnixNano())) {
			continue
		}
		if p.Metric.DistanceKm(q.Loc, post.Loc) > q.RadiusKm {
			continue
		}
		m, ok := matches(post.Words, terms, and)
		if !ok {
			continue
		}
		rho := score.KeywordRelevance(m, r.popularity(post.SID), p.N)
		if r.RecencyHalfLife > 0 && r.maxSID > r.minSID {
			rho *= score.RecencyBoost(float64(r.maxSID-post.SID)/float64(r.maxSID-r.minSID), r.RecencyHalfLife)
		}
		a := users[post.UID]
		if a == nil {
			a = &agg{}
			users[post.UID] = a
		}
		a.sumRho += rho
		if rho > a.maxRho {
			a.maxRho = rho
		}
		a.candDelta += score.TweetDistance(post.Loc, q.Loc, q.RadiusKm, p.Metric)
	}

	results := make([]core.UserResult, 0, len(users))
	for uid, a := range users {
		// δ(u,q), Definition 9 as the engine reads it: the candidates'
		// distance scores over |P_u|.
		du := score.UserDistance(a.candDelta, r.numPosts[uid])
		rho := a.sumRho
		if q.Ranking == core.MaxScore {
			rho = a.maxRho
		}
		results = append(results, core.UserResult{UID: uid, Score: score.Combine(p.Alpha, rho, du)})
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].UID < results[j].UID
	})
	if len(results) > q.K {
		results = results[:q.K]
	}
	return results
}
