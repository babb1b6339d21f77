package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/score"
	"repro/internal/social"
	"repro/internal/telemetry"
	"repro/internal/thread"
)

// This file implements the shard half of the scatter-gather serving tier:
// SearchPartials runs retrieval and thread scoring on one shard and returns
// per-candidate partial scores; MergePartials combines the partials of
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
// The expensive work — postings retrieval, the radius filter, and above all
// thread construction (the paper's stated bottleneck) — stays on the
// shards; the router's merge is a cheap sort + reduction.
//
// Shards are expected to hold a replica of the centralized metadata
// database (the paper keeps it centralized; a production shard replicates
// it) while indexing only their own region's posts. Thread expansion and
// the |P_u| denominator of Definition 9 therefore see the full corpus and
// match the monolithic engine's values even when a thread or a user spans
// shard boundaries.

// CandidateScore is one keyword-matching tweet inside the query circle
// with its per-tweet partial scores. Rho is ρ(p,q) times the recency
// factor; Delta is δ(p,q). Pruned marks max-ranking candidates whose
// thread the shard skipped under the popularity upper bound: their Rho is
// unset and they are excluded from top-k streaming, but their Delta still
// feeds δ(u,q), exactly as in the monolithic Algorithm 5.
type CandidateScore struct {
	TID    social.PostID `json:"tid"`
	UID    social.UserID `json:"uid"`
	Delta  float64       `json:"delta"`
	Rho    float64       `json:"rho"`
	Pruned bool          `json:"pruned,omitempty"`
}

// UserPartial carries the user-level facts a shard contributes for one
// user with at least one candidate: the user's total post count |P_u|
// (from the replicated metadata database, so it is the global count), and
// — in exact-distance mode only — the candidate-independent δ(u,q).
type UserPartial struct {
	UID   social.UserID `json:"uid"`
	Posts int           `json:"posts"`
	Du    float64       `json:"du,omitempty"`
}

// Partials is one shard's contribution to a scatter-gather query.
type Partials struct {
	// Cands lists every candidate of the shard in ascending TID order.
	Cands []CandidateScore `json:"cands"`
	// Users lists the distinct users appearing in Cands, in first-candidate
	// order.
	Users []UserPartial `json:"users"`
	// ExactDistance records whether Du on Users carries the exact
	// Definition 9 value (Options.ExactUserDistance); the merge refuses to
	// mix modes.
	ExactDistance bool `json:"exact_distance,omitempty"`
	// Stats reports the shard-local work.
	Stats QueryStats `json:"stats"`
}

// SearchPartials executes the shard side of a scatter-gather query:
// retrieval plus thread scoring, stopping short of the per-user reduction
// so the router can merge several shards exactly (see the file comment).
//
// For sum ranking every candidate's thread is scored across the worker
// pool. For max ranking with pruning enabled, the shard applies a
// conservative version of Algorithm 5's upper-bound pruning: the distance
// component of the bound is its maximum 1 (the router knows the user's
// true δ(u,q), the shard may not — the user can hold candidates on other
// shards), and the running top-k tracks lower-bound user scores built from
// the shard-local candidate distances. Both substitutions only weaken the
// bound, so every candidate a shard prunes is one the monolithic engine's
// final top-k could never admit — results stay identical, only the amount
// of pruning differs.
func (e *Engine) SearchPartials(ctx context.Context, q Query) (*Partials, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	stats := &QueryStats{}
	rec := telemetry.NewSpanRecorder()

	terms := QueryTerms(q.Keywords)
	if len(terms) == 0 {
		return nil, fmt.Errorf("core: %w: keywords %v reduce to no terms", ErrBadQuery, q.Keywords)
	}
	if q.Ranking != SumScore && q.Ranking != MaxScore {
		return nil, fmt.Errorf("core: %w: unknown ranking %d", ErrBadQuery, q.Ranking)
	}

	cands, err := e.gatherCandidates(ctx, &q, terms, stats, rec)
	if err != nil {
		return nil, err
	}
	stats.Candidates = len(cands)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := &Partials{ExactDistance: e.Opts.ExactUserDistance}
	rankStart := time.Now()
	if q.Ranking == MaxScore && e.Opts.UsePruning {
		err = e.partialsMaxPruned(ctx, &q, terms, cands, out, stats, rec)
	} else {
		err = e.partialsScoreAll(ctx, cands, out, stats, rec)
	}
	if err != nil {
		return nil, err
	}
	out.Users = e.userPartials(&q, cands)
	rec.Observe(telemetry.StageRank, rankStart,
		time.Since(rankStart)-rec.Total(telemetry.StageThreadBuild))
	stats.Spans = rec.Spans()
	stats.Elapsed = time.Since(start)
	out.Stats = *stats
	return out, nil
}

// partialsScoreAll scores every candidate's thread across the worker pool
// (the shard-side analogue of rankSum's scoring phase; also used for max
// ranking with pruning disabled).
func (e *Engine) partialsScoreAll(ctx context.Context, cands []scoredCandidate, out *Partials, stats *QueryStats, rec *telemetry.SpanRecorder) error {
	p := e.Opts.Params
	type scored struct {
		rho float64
		ts  thread.Stats
	}
	sc := make([]scored, len(cands))
	buildStart := time.Now()
	err := RunJobs(ctx, e.workers(), len(cands), func(ctx context.Context, i int) error {
		c := &cands[i]
		pop, _ := e.builder.Popularity(c.tid, p.Epsilon, &sc[i].ts)
		sc[i].rho = score.KeywordRelevance(c.matches, pop, p.N) * e.recencyFactor(c.tid)
		return nil
	})
	if err != nil {
		return err
	}
	if len(cands) > 0 {
		rec.Observe(telemetry.StageThreadBuild, buildStart, time.Since(buildStart))
	}
	var tstats threadStats
	out.Cands = make([]CandidateScore, len(cands))
	for i, c := range cands {
		tstats.add(&sc[i].ts)
		out.Cands[i] = CandidateScore{TID: c.tid, UID: c.uid, Delta: c.delta, Rho: sc[i].rho}
	}
	tstats.fold(stats)
	return nil
}

// partialsMaxPruned streams candidates through the conservative shard-side
// pruning described on SearchPartials. Pruned candidates are emitted with
// Pruned set so their δ(p,q) still reaches the router's δ(u,q) reduction.
func (e *Engine) partialsMaxPruned(ctx context.Context, q *Query, terms []string, cands []scoredCandidate, out *Partials, stats *QueryStats, rec *telemetry.SpanRecorder) error {
	p := e.Opts.Params
	popBound := e.Bounds.ForQuery(terms, q.Semantic == And, e.Opts.UseSpecificBounds)

	// Shard-local candidate distance sums: in candidate-only mode these
	// lower-bound the user's true δ(u,q) (other shards can only add
	// non-negative δ terms); in exact mode userDistance is candidate-
	// independent and therefore already the true value.
	candDelta := make(map[social.UserID]float64)
	if !e.Opts.ExactUserDistance {
		for _, c := range cands {
			candDelta[c.uid] += c.delta
		}
	}
	udc := newUserDistCache(e, q)

	tk := newTopK(q.K)
	out.Cands = make([]CandidateScore, 0, len(cands))
	var tstats threadStats
	var threads threadClock
	for i, c := range cands {
		if i%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		uid := c.uid
		duLower := udc.get(uid, candDelta[uid])
		if tk.full() {
			// Upper bound with the distance part at its maximum 1
			// (Section V-B's own bound): sound regardless of how the
			// user's candidates are distributed across shards. The
			// candidate's own φ-table entry tightens the popularity part.
			ub := score.Combine(p.Alpha, score.KeywordRelevance(c.matches, min(popBound, e.Bounds.Phi(c.tid)), p.N), 1)
			if ub <= tk.peek() {
				stats.ThreadsPruned++
				out.Cands = append(out.Cands, CandidateScore{
					TID: c.tid, UID: uid, Delta: c.delta, Pruned: true,
				})
				continue
			}
		}
		t0 := threads.begin()
		pop, _ := e.builder.Popularity(c.tid, p.Epsilon, &tstats.s)
		threads.end(t0)
		rho := score.KeywordRelevance(c.matches, pop, p.N) * e.recencyFactor(c.tid)
		out.Cands = append(out.Cands, CandidateScore{TID: c.tid, UID: uid, Delta: c.delta, Rho: rho})

		// Track lower-bound user scores: duLower never exceeds the true
		// δ(u,q), so the running kth score never exceeds the true global
		// kth and the prune above stays result-neutral.
		lb := score.Combine(p.Alpha, rho, duLower)
		switch {
		case tk.contains(uid):
			tk.raise(uid, lb)
		case !tk.full():
			tk.add(uid, lb)
		case tk.peek() < lb:
			tk.removeWeakest()
			tk.add(uid, lb)
		}
	}
	tstats.fold(stats)
	threads.fold(rec)
	return nil
}

// userPartials collects the distinct users of the candidate list in
// first-candidate order with their global post counts (and exact δ(u,q)
// when that mode is on).
func (e *Engine) userPartials(q *Query, cands []scoredCandidate) []UserPartial {
	seen := make(map[social.UserID]struct{}, len(cands))
	out := make([]UserPartial, 0, len(cands))
	for _, c := range cands {
		uid := c.uid
		if _, dup := seen[uid]; dup {
			continue
		}
		seen[uid] = struct{}{}
		up := UserPartial{UID: uid, Posts: e.DB.PostCountOfUser(uid)}
		if e.Opts.ExactUserDistance {
			up.Du = e.userDistance(q, uid, 0)
		}
		out = append(out, up)
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
	var total int
	for _, p := range parts {
		if p == nil {
			return nil, nil, fmt.Errorf("core: nil shard partials")
		}
		if p.ExactDistance != parts[0].ExactDistance {
			return nil, nil, fmt.Errorf("core: shards disagree on ExactUserDistance")
		}
		total += len(p.Cands)
		stats.PostingsFetched += p.Stats.PostingsFetched
		stats.Candidates += p.Stats.Candidates
		stats.ThreadsBuilt += p.Stats.ThreadsBuilt
		stats.ThreadsPruned += p.Stats.ThreadsPruned
		stats.TweetsPulled += p.Stats.TweetsPulled
		stats.PopCacheHits += p.Stats.PopCacheHits
		stats.DBBatchLookups += p.Stats.DBBatchLookups
		stats.DBPagesSaved += p.Stats.DBPagesSaved
		stats.BlocksSkipped += p.Stats.BlocksSkipped
		stats.PostingsSkipped += p.Stats.PostingsSkipped
		stats.PartitionsPruned += p.Stats.PartitionsPruned
		if p.Stats.Cells > stats.Cells {
			stats.Cells = p.Stats.Cells
		}
	}

	// Restore the global candidate order. Each tweet is indexed by exactly
	// one shard and per-shard lists are already TID-ascending, so a sort of
	// the concatenation has no duplicates to resolve.
	merged := make([]CandidateScore, 0, total)
	users := make(map[social.UserID]*UserPartial)
	for _, p := range parts {
		merged = append(merged, p.Cands...)
		for i := range p.Users {
			u := &p.Users[i]
			if _, dup := users[u.UID]; !dup {
				users[u.UID] = u
			}
		}
	}
	slices.SortFunc(merged, func(a, b CandidateScore) int {
		return cmp.Compare(a.TID, b.TID)
	})
	for i := 1; i < len(merged); i++ {
		if merged[i].TID == merged[i-1].TID {
			return nil, nil, fmt.Errorf("core: tweet %d reported by two shards — overlapping shard indexes", merged[i].TID)
		}
	}
	exact := len(parts) > 0 && parts[0].ExactDistance

	// δ(u,q) per user, from the merged candidate order — identical floats
	// to the monolithic userDistCache.
	deltaSum := make(map[social.UserID]float64, len(users))
	for _, c := range merged {
		deltaSum[c.UID] += c.Delta
	}
	du := func(uid social.UserID) (float64, error) {
		u := users[uid]
		if u == nil {
			return 0, fmt.Errorf("core: candidate user %d missing from shard user partials", uid)
		}
		if exact {
			return u.Du, nil
		}
		return score.UserDistance(deltaSum[uid], u.Posts), nil
	}

	var results []UserResult
	switch q.Ranking {
	case SumScore:
		type agg struct{ rs float64 }
		sums := make(map[social.UserID]*agg, len(users))
		for _, c := range merged {
			if c.Pruned {
				return nil, nil, fmt.Errorf("core: pruned candidate %d in sum-ranking partials", c.TID)
			}
			a := sums[c.UID]
			if a == nil {
				a = &agg{}
				sums[c.UID] = a
			}
			a.rs += c.Rho
		}
		results = make([]UserResult, 0, len(sums))
		for uid, a := range sums {
			d, err := du(uid)
			if err != nil {
				return nil, nil, err
			}
			results = append(results, UserResult{UID: uid, Score: score.Combine(alpha, a.rs, d)})
		}
		sortResults(results)
		if len(results) > q.K {
			results = results[:q.K]
		}
	case MaxScore:
		tk := newTopK(q.K)
		for _, c := range merged {
			if c.Pruned {
				continue // shard proved it cannot reach the final top-k
			}
			d, err := du(c.UID)
			if err != nil {
				return nil, nil, err
			}
			us := score.Combine(alpha, c.Rho, d)
			switch {
			case tk.contains(c.UID):
				tk.raise(c.UID, us)
			case !tk.full():
				tk.add(c.UID, us)
			case tk.peek() < us:
				tk.removeWeakest()
				tk.add(c.UID, us)
			}
		}
		results = tk.results()
	default:
		return nil, nil, fmt.Errorf("core: %w: unknown ranking %d", ErrBadQuery, q.Ranking)
	}
	return results, stats, nil
}
