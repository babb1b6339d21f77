package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/score"
	"repro/internal/social"
)

// This file implements the shard half of the scatter-gather serving tier:
// SearchPartials runs retrieval and per-candidate scoring on one shard and
// returns per-candidate partial scores; MergePartials combines the partials of
// every overlapping shard into the final top-k.
//
// The split point is chosen so the merged result is byte-identical to a
// monolithic Search over the union corpus. User-level scores are float
// reductions over candidate order (Σρ for sum ranking, the candidate-only
// Σδ feeding δ(u,q) in both), and float addition is not associative — so
// shards must not pre-reduce per user. Instead each shard ships one record
// per candidate tweet, in ascending tweet-ID order, and the router re-runs
// the exact monolithic reduction over the TID-merged stream. Tweet IDs are
// globally unique and each tweet is indexed by exactly one shard, so the
// merged stream reproduces the monolithic candidate order exactly.
//
// The expensive work — postings retrieval, the radius filter, the user
// table — stays on the shards; the router's merge is a cheap k-way merge of
// the shards' ascending lists (mergeCands) + reduction (reducePartials).
//
// A shard indexes only its own region's posts, and the rows its radius
// filter resolves are its own too: the rows of the posts it indexes. What
// spans regions is shared — every shard holds a replica of the corpus
// table and popularity table (the paper keeps its metadata centralized;
// a production shard replicates them) for thread popularity and the |P_u|
// denominator of Definition 9. Both therefore see the full corpus and match
// the monolithic engine's values even when a thread or a user spans shard
// boundaries.

// CandidateScore is one keyword-matching tweet inside the query circle
// with its per-tweet partial scores. Rho is ρ(p,q) times the recency
// factor; Delta is δ(p,q).
type CandidateScore struct {
	TID   social.PostID
	UID   social.UserID
	Delta float64
	Rho   float64
}

// UserPartial carries the user-level fact a shard contributes for one user
// with at least one candidate: the user's total post count |P_u| (from the
// replicated corpus table, so it is the global count).
type UserPartial struct {
	UID   social.UserID
	Posts int
}

// Partials is one shard's contribution to a scatter-gather query.
type Partials struct {
	// Cands lists every candidate of the shard in ascending TID order.
	Cands []CandidateScore
	// Users lists the distinct users appearing in Cands, in first-candidate
	// order.
	Users []UserPartial
	// Stats reports the shard-local work.
	Stats QueryStats
}

// SearchPartials executes the shard side of a scatter-gather query:
// retrieval plus every candidate's ρ, stopping short of the per-user
// reduction so the router can merge several shards exactly (see the file
// comment). Both rankings ship the same records.
func (e *Engine) SearchPartials(ctx context.Context, q Query) (*Partials, error) {
	if q.Ranking != SumScore && q.Ranking != MaxScore {
		return nil, fmt.Errorf("core: %w: unknown ranking %d", ErrBadQuery, q.Ranking)
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	cs, err := e.gather(ctx, q, sc)
	if err != nil {
		return nil, err
	}
	rankStart := time.Now()
	cs.exactDeltas()
	e.resolveUsers(cs)
	rho := e.relevance(cs)
	out := &Partials{Users: userPartials(cs), Cands: make([]CandidateScore, len(cs.cands))}
	for i, c := range cs.cands {
		out.Cands[i] = CandidateScore{TID: c.TID, UID: c.UID, Delta: c.Delta, Rho: rho[i]}
	}
	out.Stats = *cs.rankDone(rankStart)
	return out, nil
}

// userPartials lists the set's users in first-candidate order with their
// global post counts — the user table after resolveUsers, as the router
// reads it.
func userPartials(cs *candidateSet) []UserPartial {
	out := make([]UserPartial, len(cs.users))
	for i, u := range cs.users {
		out[i] = UserPartial{UID: u.uid, Posts: u.posts}
	}
	return out
}

// MergePartials combines the partials of every answering shard into the
// final top-k, byte-identical to a monolithic Search over the union corpus
// (see the file comment for why the reduction must happen here). alpha is
// the scoring model's Definition 10 weight and must match the shards'.
//
// The returned stats sum the shards' work counters; Cells reports the
// largest per-shard cover (each shard computes the full circle cover, so
// summing would multiply the monolithic figure by the shard count).
// Elapsed, Spans and DegradedShards are the router's to fill.
func MergePartials(q Query, alpha float64, parts []*Partials) ([]UserResult, *QueryStats, error) {
	stats := &QueryStats{}
	for _, p := range parts {
		if p == nil {
			return nil, nil, fmt.Errorf("core: nil shard partials")
		}
		stats.Add(&p.Stats)
		stats.Cells = max(stats.Cells, p.Stats.Cells)
	}
	merged, err := mergeCands(parts)
	if err != nil {
		return nil, nil, err
	}
	results, err := reducePartials(&q, alpha, merged, parts)
	if err != nil {
		return nil, nil, err
	}
	return results, stats, nil
}

// mergeCands restores the global candidate order: a k-way merge of the
// shards' lists, each of which the Partials contract makes strictly
// TID-ascending. ShardBackend is an open interface — NewSharded takes any
// implementation, not only an Engine — so the router cannot assume the
// contract holds: a list that breaks it is an error, not something to sort
// back into shape, and so is a tweet two shards both report (each tweet is
// indexed by exactly one shard), and so is a NaN or infinite ρ or δ, which
// would otherwise reach Combine and order the ranking by garbage. A single
// list is the order as is.
func mergeCands(parts []*Partials) ([]CandidateScore, error) {
	total := 0
	for i, p := range parts {
		for j, c := range p.Cands {
			if !finite(c.Rho) || !finite(c.Delta) {
				return nil, fmt.Errorf("core: shard partials %d report tweet %d with ρ %v and δ %v; both must be finite",
					i, c.TID, c.Rho, c.Delta)
			}
			if j > 0 && c.TID <= p.Cands[j-1].TID {
				return nil, fmt.Errorf("core: shard partials %d not in ascending tweet order at candidate %d (tweet %d after %d)",
					i, j, c.TID, p.Cands[j-1].TID)
			}
		}
		total += len(p.Cands)
	}
	if len(parts) == 1 {
		return parts[0].Cands, nil
	}
	// Fan-out is a handful of shards, so the smallest head is a linear scan.
	// When a tweet is the smallest head, every list holding it has it at its
	// head, so a duplicate always meets the scan as a tie.
	merged := make([]CandidateScore, 0, total)
	heads := make([]int, len(parts))
	for len(merged) < total {
		best := -1
		for i, p := range parts {
			if heads[i] == len(p.Cands) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			tid, bestTID := p.Cands[heads[i]].TID, parts[best].Cands[heads[best]].TID
			if tid == bestTID {
				return nil, fmt.Errorf("core: tweet %d reported by two shards — overlapping shard indexes", tid)
			}
			if tid < bestTID {
				best = i
			}
		}
		merged = append(merged, parts[best].Cands[heads[best]])
		heads[best]++
	}
	return merged, nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// ErrPartialsDisagree marks shard partials that contradict each other on a
// corpus fact every shard reads from the same replicated metadata
// database — a user's |P_u| — so no merge of them is the monolithic answer.
var ErrPartialsDisagree = errors.New("core: shard partials disagree")

// reducePartials is the per-user reduction of both rankings over merged:
// every candidate of parts in ascending tweet-ID order — the router's half
// of a scatter-gather query, reproducing the monolithic rankSum and rankMax
// float for float. Each user gets one row of a table, in first-report
// order, found through one map: its |P_u| and the Σδ and Σρ of its
// candidates, summed in merged order as the monolithic user table sums
// them. A shard lists only users with a candidate, and that candidate is
// one of the user's posts, so a reported |P_u| below 1 is an error rather
// than a δ(u,q) of 0; two shards reporting one user with different counts
// is ErrPartialsDisagree rather than the first one's count.
func reducePartials(q *Query, alpha float64, merged []CandidateScore, parts []*Partials) ([]UserResult, error) {
	if q.Ranking != SumScore && q.Ranking != MaxScore {
		return nil, fmt.Errorf("core: %w: unknown ranking %d", ErrBadQuery, q.Ranking)
	}
	type userSums struct {
		uid              social.UserID
		posts            int // |P_u|, as every shard naming u reports it
		cands            int
		deltaSum, rhoSum float64
	}
	reported := 0
	for _, p := range parts {
		reported += len(p.Users)
	}
	row := make(map[social.UserID]int, reported)
	users := make([]userSums, 0, reported)
	for i, p := range parts {
		for _, u := range p.Users {
			if u.Posts < 1 {
				return nil, fmt.Errorf("core: shard partials %d report user %d with %d posts, but a candidate user has at least one",
					i, u.UID, u.Posts)
			}
			r, dup := row[u.UID]
			if !dup {
				row[u.UID] = len(users)
				users = append(users, userSums{uid: u.UID, posts: u.Posts})
				continue
			}
			if n := users[r].posts; n != u.Posts {
				first := slices.IndexFunc(parts, func(p *Partials) bool {
					return slices.ContainsFunc(p.Users, func(v UserPartial) bool { return v.UID == u.UID })
				})
				return nil, fmt.Errorf("%w: shard partials %d report user %d with %d posts, shard partials %d with %d",
					ErrPartialsDisagree, first, u.UID, n, i, u.Posts)
			}
		}
	}

	// Σδ and Σρ per user, in merged order — identical floats to the
	// monolithic user table's. The max ranking offers every candidate
	// again once its user's Σδ is complete, so it keeps their rows.
	var rows []int
	if q.Ranking == MaxScore {
		rows = make([]int, len(merged))
	}
	for i, c := range merged {
		r, ok := row[c.UID]
		if !ok {
			return nil, fmt.Errorf("core: candidate user %d missing from shard user partials", c.UID)
		}
		u := &users[r]
		u.cands++
		u.deltaSum += c.Delta
		u.rhoSum += c.Rho
		if rows != nil {
			rows[i] = r
		}
	}

	tk := newTopK(q.K, len(users))
	if q.Ranking == SumScore {
		for _, u := range users {
			if u.cands > 0 {
				tk.admit(u.uid, score.Combine(alpha, u.rhoSum, score.UserDistance(u.deltaSum, u.posts)))
			}
		}
		return tk.results(), nil
	}
	for i, c := range merged {
		u := &users[rows[i]]
		tk.offer(c.UID, score.Combine(alpha, c.Rho, score.UserDistance(u.deltaSum, u.posts)))
	}
	return tk.results(), nil
}
