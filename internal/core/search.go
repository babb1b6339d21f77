package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/score"
	"repro/internal/social"
	"repro/internal/telemetry"
	"repro/internal/thread"
)

// scoredCandidate is a keyword-matching tweet that survived the radius and
// time-window filters, with its author and distance score attached.
type scoredCandidate struct {
	tid     social.PostID
	matches int
	uid     social.UserID
	delta   float64 // δ(p,q), Definition 5
}

// Search executes a TkLUS query and returns the top-k users with their
// scores plus per-query statistics. The query aborts with the context's
// error at the next candidate boundary once ctx is done — useful for
// serving large-radius OR queries under a deadline.
//
// Every query is traced: the returned QueryStats carry one span per
// pipeline stage (cell cover, postings fetch, candidate filter, thread
// build, rank/top-k) so callers can see where the time went without
// re-running the query under a profiler.
func (e *Engine) Search(ctx context.Context, q Query) ([]UserResult, *QueryStats, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	stats := &QueryStats{}
	rec := telemetry.NewSpanRecorder()

	terms := QueryTerms(q.Keywords)
	if len(terms) == 0 {
		return nil, nil, fmt.Errorf("core: %w: keywords %v reduce to no terms", ErrBadQuery, q.Keywords)
	}

	cands, err := e.gatherCandidates(ctx, &q, terms, stats, rec)
	if err != nil {
		return nil, nil, err
	}
	stats.Candidates = len(cands)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	var results []UserResult
	rankStart := time.Now()
	switch q.Ranking {
	case SumScore:
		results, err = e.rankSum(ctx, &q, terms, cands, stats, rec)
	case MaxScore:
		results, err = e.rankMax(ctx, &q, terms, cands, stats, rec)
	default:
		return nil, nil, fmt.Errorf("core: unknown ranking %d", q.Ranking)
	}
	if err != nil {
		return nil, nil, err
	}
	// Thread construction (and the sum ranking's bound pass) run
	// interleaved inside the ranking loop and are recorded as their own
	// stages; the rank span is the remainder, so the stage durations sum to
	// (approximately) the query's elapsed time.
	rec.Observe(telemetry.StageRank, rankStart,
		time.Since(rankStart)-rec.Total(telemetry.StageThreadBuild)-rec.Total(telemetry.StagePrune))
	stats.Spans = rec.Spans()
	stats.Elapsed = time.Since(start)
	return results, stats, nil
}

// cancelCheckInterval bounds how many candidates are processed between
// context checks; thread construction dominates per-candidate cost, so a
// small stride keeps cancellation prompt without measurable overhead.
const cancelCheckInterval = 64

// gatherCandidates runs the shared front half of Algorithms 4 and 5:
// circle cover (line 1), postings retrieval (lines 4–7), AND/OR merging
// (lines 8–14), and the radius filter (lines 15–17), plus the optional
// time-window filter of the temporal extension. Postings retrieval and the
// candidate filter fan out across the engine's worker pool; results are
// assembled in job order, so candidate lists — and therefore every
// downstream score — are identical to the sequential path's. Each phase is
// recorded as a span on rec (which may be nil for un-instrumented
// callers); spans around parallel phases measure wall time, not summed
// worker time.
func (e *Engine) gatherCandidates(ctx context.Context, q *Query, terms []string, stats *QueryStats, rec *telemetry.SpanRecorder) ([]scoredCandidate, error) {
	// Stage 1 — cell cover: computed once per geohash precision in use
	// (partitions normally share one precision). Windowed queries prune
	// partitions entirely outside the window here.
	all := *e.parts.Load()
	if len(all) == 0 {
		return nil, fmt.Errorf("core: %w", ErrClosed)
	}
	stopCover := rec.Start(telemetry.StageCellCover)
	parts := make([]*Partition, 0, len(all))
	var covers coverSet
	for i := range all {
		part := &all[i]
		if !part.overlapsWindow(q.TimeWindow) {
			stats.PartitionsPruned++ // whole time slice outside the window
			continue
		}
		parts = append(parts, part)
		precision := part.Source.GeohashLen()
		if !covers.has(precision) {
			c := geo.CircleCover(q.Loc, q.RadiusKm, precision)
			covers.add(precision, c)
			stats.Cells += len(c)
		}
	}
	stopCover()

	// Stage 2 — postings retrieval, then stage 3 — candidate filter: the
	// AND/OR merge, then the window filter, metadata lookup and exact
	// radius check. Under UseBlockMax retrieval opens lazy iterators and
	// the merge decodes block at a time (gatherBlockMax); otherwise every
	// ⟨partition, term⟩ pair is one independent batch of DFS round trips,
	// fanned across the pool, with per-term lists concatenated in
	// (partition, term) order so the merge sees exactly the sequential
	// path's input. Both produce the same candidates in the same order. In
	// the default batched mode the window filter (a pure SID comparison)
	// runs first so one multi-get fetches every surviving row — dozens of
	// shared data pages instead of one descent per posting — and the pool
	// only shards the geometric check. Point-lookup mode keeps the
	// one-descent-per-candidate pattern. Either way candidates come out in
	// merge order, so every downstream score is identical.
	var merged []candidate
	if e.Opts.UseBlockMax {
		var err error
		merged, err = e.gatherBlockMax(ctx, q, parts, &covers, terms, stats, rec)
		if err != nil {
			return nil, err
		}
		defer rec.Start(telemetry.StageCandidateFilter)()
	} else {
		stopFetch := rec.Start(telemetry.StagePostingsFetch)
		nJobs := len(parts) * len(terms)
		fetched := make([][]invindex.Posting, nJobs)
		counts := make([]int64, nJobs)
		err := RunJobs(ctx, e.workers(), nJobs, func(ctx context.Context, i int) error {
			part := parts[i/len(terms)]
			ps, n, err := termPostings(part.Source, covers.get(part.Source.GeohashLen()), terms[i%len(terms)])
			if err != nil {
				return err
			}
			fetched[i], counts[i] = ps, n
			return nil
		})
		if err != nil {
			stopFetch()
			return nil, err
		}
		termLists := make([][]invindex.Posting, len(terms))
		for i, ps := range fetched {
			stats.PostingsFetched += counts[i]
			ti := i % len(terms)
			termLists[ti] = append(termLists[ti], ps...)
		}
		// Partitions are time-disjoint, so concatenation has no duplicate
		// TIDs, but ordering across partitions must be restored.
		if len(all) > 1 {
			for ti := range termLists {
				slices.SortFunc(termLists[ti], func(a, b invindex.Posting) int {
					return cmp.Compare(a.TID, b.TID)
				})
			}
		}
		stopFetch()
		defer rec.Start(telemetry.StageCandidateFilter)()
		if q.Semantic == And {
			merged = intersectPostings(termLists)
		} else {
			merged = unionPostings(termLists)
		}
	}

	type filtered struct {
		sc   scoredCandidate
		keep bool
	}

	if ms := e.DB.RowMetaSnapshot(); ms != nil {
		// Snapshot-served filter: the radius test and δ(p,q) read the same
		// float64 coordinates the row store holds, just without the per-row
		// B⁺-tree descent and page read — at city radii most merged
		// postings are resolved only to be rejected. Sequential: the whole
		// pass is in-memory arithmetic.
		out := make([]scoredCandidate, 0, len(merged))
		for _, c := range merged {
			if q.TimeWindow != nil && !q.TimeWindow.contains(c.tid) {
				continue
			}
			m, ok := ms.Get(c.tid)
			if !ok {
				return nil, fmt.Errorf("core: indexed tweet %d missing from metadata db", c.tid)
			}
			loc := geo.Point{Lat: m.Lat, Lon: m.Lon}
			if e.Opts.Params.Metric.DistanceKm(q.Loc, loc) > q.RadiusKm {
				continue // cover cells may stick out of the circle
			}
			delta := score.TweetDistance(loc, q.Loc, q.RadiusKm, e.Opts.Params.Metric)
			out = append(out, scoredCandidate{tid: c.tid, matches: c.matches, uid: m.UID, delta: delta})
		}
		return out, nil
	}

	survivors := merged
	if q.TimeWindow != nil {
		survivors = make([]candidate, 0, len(merged))
		for _, c := range merged {
			if q.TimeWindow.contains(c.tid) {
				survivors = append(survivors, c)
			}
		}
	}
	sids := make([]social.PostID, len(survivors))
	for i, c := range survivors {
		sids[i] = c.tid
	}
	rows, found, bs := e.DB.GetBySIDBatch(sids)
	stats.DBBatchLookups += bs.Lookups
	stats.DBPagesSaved += bs.PagesSaved
	for i := range survivors {
		if !found[i] {
			return nil, fmt.Errorf("core: indexed tweet %d missing from metadata db", survivors[i].tid)
		}
	}
	results := make([]filtered, len(survivors))
	err := RunJobs(ctx, e.workers(), len(survivors), func(ctx context.Context, i int) error {
		c := survivors[i]
		row := rows[i]
		if e.Opts.Params.Metric.DistanceKm(q.Loc, row.Loc()) > q.RadiusKm {
			return nil // cover cells may stick out of the circle
		}
		delta := score.TweetDistance(row.Loc(), q.Loc, q.RadiusKm, e.Opts.Params.Metric)
		results[i] = filtered{
			sc:   scoredCandidate{tid: c.tid, matches: c.matches, uid: row.UID, delta: delta},
			keep: true,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]scoredCandidate, 0, len(survivors))
	for i := range results {
		if results[i].keep {
			out = append(out, results[i].sc)
		}
	}
	return out, nil
}

// rankSum is the back half of Algorithm 4: per-candidate thread scoring
// accumulated per user (Definition 7), then the combined user score
// (Definition 10), sort, top k. Thread constructions are mutually
// independent, so the scoring phase fans across the worker pool with each
// worker confined to its candidate's slot; the per-user reduction then runs
// sequentially in candidate order, making the float accumulation — and so
// every score — bit-identical to the sequential path. With block-max
// traversal and pruning both enabled, rankSumPruned takes over: same
// results, but users provably outside the top k are never thread-scored.
func (e *Engine) rankSum(ctx context.Context, q *Query, terms []string, cands []scoredCandidate, stats *QueryStats, rec *telemetry.SpanRecorder) ([]UserResult, error) {
	if e.Opts.UseBlockMax && e.Opts.UsePruning {
		return e.rankSumPruned(ctx, q, terms, cands, stats, rec)
	}
	p := e.Opts.Params

	// Phase 1 — thread scoring (the per-candidate Algorithm 1 runs).
	type scored struct {
		rho float64 // ρ(p,q) · recency
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
		return nil, err
	}
	if len(cands) > 0 {
		// Wall time of the whole scoring phase, not summed worker time.
		rec.Observe(telemetry.StageThreadBuild, buildStart, time.Since(buildStart))
	}

	// Phase 2 — per-user reduction in candidate order.
	type agg struct {
		rs       float64 // Σ ρ(p,q), Definition 7
		deltaSum float64 // Σ δ(p,q) over this user's candidates
	}
	users := make(map[social.UserID]*agg)
	var tstats threadStats
	for i, c := range cands {
		tstats.add(&sc[i].ts)
		a := users[c.uid]
		if a == nil {
			a = &agg{}
			users[c.uid] = a
		}
		a.rs += sc[i].rho
		a.deltaSum += c.delta
	}
	tstats.fold(stats)

	udc := newUserDistCache(e, q)
	results := make([]UserResult, 0, len(users))
	for uid, a := range users {
		results = append(results, UserResult{
			UID:   uid,
			Score: score.Combine(p.Alpha, a.rs, udc.get(uid, a.deltaSum)),
		})
	}
	sortResults(results)
	if len(results) > q.K {
		results = results[:q.K]
	}
	return results, nil
}

// rankMax is Algorithm 5: candidates stream through a bounded top-k
// structure; before constructing a candidate's thread, an optimistic upper
// bound on its user score is compared against the current kth score, and
// dominated candidates are skipped (lines 18–19).
func (e *Engine) rankMax(ctx context.Context, q *Query, terms []string, cands []scoredCandidate, stats *QueryStats, rec *telemetry.SpanRecorder) ([]UserResult, error) {
	p := e.Opts.Params
	popBound := e.Bounds.ForQuery(terms, q.Semantic == And, e.Opts.UseSpecificBounds)

	tk := newTopK(q.K)
	udc := newUserDistCache(e, q)
	candDelta := make(map[social.UserID]float64) // candidate-only Σδ per user
	if !e.Opts.ExactUserDistance {
		for _, c := range cands {
			candDelta[c.uid] += c.delta
		}
	}
	var tstats threadStats
	var threads threadClock
	for i, c := range cands {
		if i%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		uid := c.uid
		du := udc.get(uid, candDelta[uid])
		if e.Opts.UsePruning && tk.full() {
			// Optimistic user score: maximal keyword relevance under the
			// popularity bound, combined with the user's distance score.
			// The paper bounds the distance part by the maximal value 1
			// (Section V-B); δ(u,q) is independent of the thread being
			// considered and already computed here, so using it keeps the
			// bound sound while pruning far more thread constructions —
			// thread construction being the stated bottleneck. The
			// candidate's own φ-table entry tightens the popularity part.
			ub := score.Combine(p.Alpha, score.KeywordRelevance(c.matches, min(popBound, e.Bounds.Phi(c.tid)), p.N), du)
			if ub <= tk.peek() {
				stats.ThreadsPruned++
				continue
			}
		}
		t0 := threads.begin()
		pop, _ := e.builder.Popularity(c.tid, p.Epsilon, &tstats.s)
		threads.end(t0)
		rho := score.KeywordRelevance(c.matches, pop, p.N) * e.recencyFactor(c.tid)

		us := score.Combine(p.Alpha, rho, du)

		switch {
		case tk.contains(uid):
			tk.raise(uid, us)
		case !tk.full():
			tk.add(uid, us)
		case tk.peek() < us:
			tk.removeWeakest()
			tk.add(uid, us)
		}
	}
	tstats.fold(stats)
	threads.fold(rec)
	return tk.results(), nil
}

// CandidateTweet is one keyword-matching tweet inside the query circle,
// as produced by the shared retrieval front half of Algorithms 4 and 5.
type CandidateTweet struct {
	TID     social.PostID
	UID     social.UserID
	Matches int     // bag-model |q.W ∩ p.W|
	Delta   float64 // δ(p,q), Definition 5
}

// CandidateTweets runs only the retrieval stage of query processing
// (circle cover, postings fetch, AND/OR merge, radius and window filters)
// and returns the surviving tweets in ascending tweet-ID order. Used by
// the evidence API and by retrieval-only baselines.
func (e *Engine) CandidateTweets(q Query) ([]CandidateTweet, *QueryStats, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	terms := QueryTerms(q.Keywords)
	if len(terms) == 0 {
		return nil, nil, fmt.Errorf("core: %w: keywords %v reduce to no terms", ErrBadQuery, q.Keywords)
	}
	stats := &QueryStats{}
	start := time.Now()
	rec := telemetry.NewSpanRecorder()
	cands, err := e.gatherCandidates(context.Background(), &q, terms, stats, rec)
	if err != nil {
		return nil, nil, err
	}
	stats.Candidates = len(cands)
	stats.Spans = rec.Spans()
	stats.Elapsed = time.Since(start)
	out := make([]CandidateTweet, len(cands))
	for i, c := range cands {
		out[i] = CandidateTweet{TID: c.tid, UID: c.uid, Matches: c.matches, Delta: c.delta}
	}
	return out, stats, nil
}

// Evidence returns the IDs of the tweets that make one user a candidate
// for q — the tweets behind the "(userId, tweet content)" result lines of
// the user study (Section VI-B6) — in ascending tweet-ID order, capped at
// limit (0 means no cap).
func (e *Engine) Evidence(q Query, uid social.UserID, limit int) ([]social.PostID, error) {
	cands, _, err := e.CandidateTweets(q)
	if err != nil {
		return nil, err
	}
	var out []social.PostID
	for _, c := range cands {
		if c.UID != uid {
			continue
		}
		out = append(out, c.TID)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, nil
}

// userDistCache memoizes δ(u,q) for one query. Definition 9 is a property
// of the user, not of any individual candidate, so both ranking algorithms
// compute it at most once per user — in exact mode each computation fetches
// every post of the user, which this cache keeps off the per-candidate path.
type userDistCache struct {
	e *Engine
	q *Query
	d map[social.UserID]float64
}

func newUserDistCache(e *Engine, q *Query) *userDistCache {
	return &userDistCache{e: e, q: q, d: make(map[social.UserID]float64)}
}

func (c *userDistCache) get(uid social.UserID, candDeltaSum float64) float64 {
	if du, ok := c.d[uid]; ok {
		return du
	}
	du := c.e.userDistance(c.q, uid, candDeltaSum)
	c.d[uid] = du
	return du
}

// userDistance computes δ(u,q) (Definition 9). In exact mode it averages
// the distance score of every post of the user, fetching each post's row;
// in candidate-only mode it divides the pre-accumulated candidate distance
// sum by |P_u| (tweets outside the radius contribute 0 either way).
func (e *Engine) userDistance(q *Query, uid social.UserID, candidateDeltaSum float64) float64 {
	total := e.DB.PostCountOfUser(uid)
	if !e.Opts.ExactUserDistance {
		return score.UserDistance(candidateDeltaSum, total)
	}
	var sum float64
	sids := e.DB.PostsOfUser(uid)
	// P_u is clustered by SID, so one multi-get touches each of the
	// user's data pages once.
	rows, found, _ := e.DB.GetBySIDBatch(sids)
	for i := range rows {
		if !found[i] {
			continue
		}
		sum += score.TweetDistance(rows[i].Loc(), q.Loc, q.RadiusKm, e.Opts.Params.Metric)
	}
	return score.UserDistance(sum, total)
}

// recencyFactor returns the temporal boost for a tweet, 1 unless the
// extension is enabled.
func (e *Engine) recencyFactor(sid social.PostID) float64 {
	if e.Opts.RecencyHalfLife <= 0 {
		return 1
	}
	min, max := e.DB.SIDRange()
	if max <= min {
		return 1
	}
	age := float64(max-sid) / float64(max-min)
	return score.RecencyBoost(age, e.Opts.RecencyHalfLife)
}

// threadStats adapts thread.Stats into QueryStats.
type threadStats struct{ s thread.Stats }

func (t *threadStats) add(other *thread.Stats) {
	t.s.ThreadsBuilt += other.ThreadsBuilt
	t.s.TweetsPulled += other.TweetsPulled
	t.s.CacheHits += other.CacheHits
	t.s.BatchLookups += other.BatchLookups
	t.s.BatchPagesSaved += other.BatchPagesSaved
}

func (t *threadStats) fold(qs *QueryStats) {
	qs.ThreadsBuilt += t.s.ThreadsBuilt
	qs.TweetsPulled += t.s.TweetsPulled
	qs.PopCacheHits += t.s.CacheHits
	qs.DBBatchLookups += t.s.BatchLookups
	qs.DBPagesSaved += t.s.BatchPagesSaved
}

// threadClock accumulates the wall time of the thread constructions that
// run interleaved inside the ranking loops, folding them into one
// thread_build span. Two time.Now calls per surviving candidate are noise
// next to a thread construction's metadata I/O.
type threadClock struct {
	first time.Time
	total time.Duration
}

func (c *threadClock) begin() time.Time {
	t := time.Now()
	if c.first.IsZero() {
		c.first = t
	}
	return t
}

func (c *threadClock) end(t0 time.Time) { c.total += time.Since(t0) }

func (c *threadClock) fold(rec *telemetry.SpanRecorder) {
	if c.total > 0 {
		rec.Observe(telemetry.StageThreadBuild, c.first, c.total)
	}
}
