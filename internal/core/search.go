package core

// Query processing is one pipeline. gather runs the shared front half of
// Algorithms 4 and 5 — validate, stem, circle cover, postings retrieval,
// then per time partition the AND/OR merge, the window filter, the row
// reads and the radius filter — and hands every exit the same
// candidateSet: the surviving tweets in ascending tweet-ID order, each with
// its post ordinal in the corpus table, and the query's books. The radius
// filter brackets each distance with polynomials (geo.Circle.Bracket): a
// point surely inside keeps an upper bound of its δ(p,q) and its location,
// and only the points the bracket cannot decide pay the exact haversine.
// CandidateTweets and SearchPartials replace every bound by the exact δ
// (exactDeltas) and hand out no bound. Search and SearchPartials call
// resolveUsers, which reads every candidate's author and φ from the corpus
// table by post ordinal and adds the set's dense user table (Σδ, |P_u|,
// δ(u,q) per user, each candidate pointing at its row and chained to the
// user's next), and relevance, which turns every candidate's φ into its
// ρ(p,q), and pass the set to one ranker. No ranker builds a per-user map
// of its own. Search's rankers bound, then refine: a user whose upper score
// cannot change the top k is passed over, and any other user with a bound
// gets the exact δ of every candidate before the top k sees its score (see
// refine) — so every top-k transition is the one the exact scores make.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/score"
	"repro/internal/social"
	"repro/internal/telemetry"
)

// CandidateTweet is one keyword-matching tweet inside the query circle, as
// produced by the shared retrieval front half of Algorithms 4 and 5 — the
// one candidate record every ranker consumes.
type CandidateTweet struct {
	TID     social.PostID
	UID     social.UserID
	Matches int // bag-model |q.W ∩ p.W|
	// Delta is δ(p,q), Definition 5: exact in every record handed out
	// (CandidateTweets, and the records SearchPartials ships). Inside a
	// search it is an upper bound while pending is set.
	Delta   float64
	post    uint32 // the tweet's ordinal in the corpus table
	user    int32  // row of UID in the candidate set's user table
	next    int32  // the user's next candidate, -1 after its last
	pending bool   // Delta is an upper bound; the location is in the set's locs
}

// candUser is one row of a candidate set's user table. deltaSum accumulates
// in candidate (ascending tweet-ID) order, which keeps δ(u,q) — and every
// score built on it — byte-identical wherever it is consumed. While pending
// is set, deltaSum and du are upper bounds: the same sum over the
// candidates' Delta, some of them bounds.
type candUser struct {
	uid         social.UserID
	deltaSum    float64 // Σ δ(p,q) over the user's candidates
	posts       int     // |P_u|; set by resolveUsers
	du          float64 // δ(u,q), Definition 9; set by resolveUsers
	rhoSum      float64 // Σ ρ(p,q) over the user's candidates; set by rankSum
	first, last int32   // the user's first and last candidates
	pending     bool    // some candidate's Delta is a bound
}

// candidateSet is the hand-off between retrieval and ranking: one query's
// candidates, their users in first-candidate order (once resolveUsers has
// run), and the query's books. cands and users are views into sc.
type candidateSet struct {
	q      Query
	terms  []string
	circle geo.Circle // the radius test, prepared once
	cands  []CandidateTweet
	locs   []geo.Point // each candidate's location, for the exact δ of a pending one
	users  []candUser
	sc     *scratch

	// The corpus SID span the recency extension ages tweets against, sampled
	// once so every candidate of the query ages against one span under live
	// ingest.
	minSID, maxSID social.PostID

	stats *QueryStats
	rec   *telemetry.SpanRecorder
	start time.Time
}

// scratch is the working memory of one query from the postings merge to the
// per-candidate scores: every buffer sized by the merged postings or the
// candidates.
// Search, SearchPartials and CandidateTweets each take one from the pool on
// entry and release it on return, so whatever outlives the call — results,
// Partials, the slice CandidateTweets hands out — is a copy, never a view.
type scratch struct {
	heap []runHead // unionIterators
	// unionRows' row bitmap, its bitmap of non-empty words, the rows'
	// summed term frequencies and the rows whose sum wrapped: all zero (or
	// empty) between calls.
	rowSet   []uint64
	rowWords []uint64
	rowTF    []uint32
	carry    []uint32
	merged   []candidate      // one partition's merged postings
	sids     []social.PostID  // the paged row batch's keys
	cands    []CandidateTweet // candidateSet.cands
	locs     []geo.Point      // candidateSet.locs
	posts    []uint32         // the corpus batch's keys: each candidate's post ordinal
	authors  []uint32         // each candidate's author, by user ordinal
	rho      []float64        // φ per candidate, then relevance's ρ
	users    []candUser       // candidateSet.users
	ords     []uint32         // the user table's user ordinals: the |P_u| batch's keys
	counts   []int            // the |P_u| batch's counts
	// slots maps a user ordinal to its row of the user table; a slot is
	// live only when its gen is the current query's, so no query clears it.
	slots []userSlot
	gen   uint32
}

// userSlot is resolveUsers' entry for one user ordinal.
type userSlot struct {
	gen uint32
	row int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release returns the scratch to the pool, dropping the merge's references
// to postings iterators so a pooled scratch pins no index memory.
func (sc *scratch) release() {
	clear(sc.heap[:cap(sc.heap)])
	scratchPool.Put(sc)
}

// grow resizes *buf to n elements, reallocating only when its capacity falls
// short. The contents are whatever the buffer last held.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// done stamps the recorded spans and the elapsed time on the query's stats.
func (cs *candidateSet) done() *QueryStats {
	cs.stats.Spans = cs.rec.Spans()
	cs.stats.Elapsed = time.Since(cs.start)
	return cs.stats
}

// rankDone closes a ranked query: the rank span covers the user table, the
// per-candidate scores and the top-k.
func (cs *candidateSet) rankDone(rankStart time.Time) *QueryStats {
	cs.rec.Observe(telemetry.StageRank, rankStart, time.Since(rankStart))
	return cs.done()
}

// Search executes a TkLUS query and returns the top-k users with their
// scores plus per-query statistics. The query aborts with the context's
// error at the next partition boundary once ctx is done — useful for
// serving large-radius OR queries under a deadline.
//
// Every query is traced: the returned QueryStats carry one span per
// pipeline stage (cell cover, postings fetch, candidate filter, rank/top-k)
// so callers can see where the time went without re-running the query under
// a profiler.
func (e *Engine) Search(ctx context.Context, q Query) ([]UserResult, *QueryStats, error) {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	cs, err := e.gather(ctx, q, sc)
	if err != nil {
		return nil, nil, err
	}
	rankStart := time.Now()
	e.resolveUsers(cs)
	rho := e.relevance(cs)
	var results []UserResult
	switch q.Ranking {
	case SumScore:
		results = e.rankSum(cs, rho)
	case MaxScore:
		results = e.rankMax(cs, rho)
	default:
		return nil, nil, fmt.Errorf("core: unknown ranking %d", q.Ranking)
	}
	return results, cs.rankDone(rankStart), nil
}

// gather is the one front half of every query: it validates and stems the
// query, runs circle cover (Algorithms 4 and 5 line 1) and postings
// retrieval (lines 4–7) across the partitions the window admits, and then,
// one partition at a time in time order, the AND/OR merge (lines 8–14), the
// optional time-window filter of the temporal extension, the row reads and
// the radius filter (lines 15–17). Everything runs on the query's own
// goroutine. Partitions are time-disjoint and ordered, so the per-partition
// survivors concatenate into the global ascending candidate list — and every
// downstream score — exactly as one merge over all partitions would produce
// it. Each phase is recorded as a span. The set's buffers are sc's.
func (e *Engine) gather(ctx context.Context, q Query, sc *scratch) (*candidateSet, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	cs := &candidateSet{
		q: q, terms: QueryTerms(q.Keywords), sc: sc,
		circle: geo.NewCircle(q.Loc, q.RadiusKm, e.Opts.Params.Metric),
		stats:  &QueryStats{}, rec: telemetry.NewSpanRecorder(), start: time.Now(),
	}
	if e.Opts.RecencyHalfLife > 0 {
		cs.minSID, cs.maxSID = e.Corpus.SIDRange()
	}
	terms, stats, rec := cs.terms, cs.stats, cs.rec
	if len(terms) == 0 {
		return nil, fmt.Errorf("core: %w: keywords %v reduce to no terms", ErrBadQuery, q.Keywords)
	}

	// Stage 1 — cell cover: computed once per geohash precision in use
	// (partitions normally share one precision). Windowed queries prune
	// partitions entirely outside the window here. A cancelled query stops
	// after the cover, and before each partition's fetch, so it opens no
	// postings it will not merge.
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

	// Stage 2 — postings retrieval: one lazy iterator per non-empty ⟨cell,
	// term⟩ list, for every ⟨partition, term⟩ pair in partition-major order.
	stopFetch := rec.Start(telemetry.StagePostingsFetch)
	opened := make([][]*invindex.PostingsIterator, 0, len(parts)*len(terms))
	for _, part := range parts {
		if err := ctx.Err(); err != nil {
			stopFetch()
			return nil, err
		}
		cells := covers.get(part.Source.GeohashLen())
		for _, term := range terms {
			its, err := openTermIterators(part.Source, cells, term, stats)
			if err != nil {
				stopFetch()
				return nil, err
			}
			opened = append(opened, its)
		}
	}
	stopFetch()

	// Stage 3 — merge and filter, one partition at a time: a partition's
	// per-term iterator lists are one run of opened. Each partition's merged
	// postings are filtered before the next partition merges, so one merge
	// buffer serves them all.
	defer rec.Start(telemetry.StageCandidateFilter)()
	cs.cands, cs.locs = sc.cands[:0], sc.locs[:0]
	for pi, part := range parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		termIts := opened[pi*len(terms) : (pi+1)*len(terms)]
		var recs []social.RowMeta
		if part.Rows != nil {
			recs = part.Rows.Records() // after the fetch: it covers the postings
		}
		var merged []candidate
		var mergeErr error
		switch {
		case q.Semantic == And:
			merged = intersectIterators(termIts, sc)
		case part.Rows != nil:
			merged, mergeErr = unionRows(termIts, len(recs), sc)
		default:
			merged = unionIterators(termIts, sc)
		}
		if err := closeIterators(termIts, stats); err != nil {
			return nil, err
		}
		if mergeErr != nil {
			return nil, mergeErr
		}
		if err := e.filter(cs, part, recs, merged); err != nil {
			return nil, err
		}
	}
	sc.cands, sc.locs = cs.cands, cs.locs // keeps what the appends grew
	stats.Candidates = len(cs.cands)
	return cs, ctx.Err()
}

// coverSet holds the circle cover per geohash precision. Nearly every
// deployment runs all partitions at one precision, so the first precision
// is kept inline and the overflow map is only allocated when a second
// precision actually appears.
type coverSet struct {
	init  bool
	prec  int
	cells []string
	more  map[int][]string
}

func (cs *coverSet) has(prec int) bool {
	if cs.init && cs.prec == prec {
		return true
	}
	_, ok := cs.more[prec]
	return ok
}

func (cs *coverSet) add(prec int, cells []string) {
	if !cs.init {
		cs.init, cs.prec, cs.cells = true, prec, cells
		return
	}
	if cs.more == nil {
		cs.more = make(map[int][]string)
	}
	cs.more[prec] = cells
}

func (cs *coverSet) get(prec int) []string {
	if cs.init && cs.prec == prec {
		return cs.cells
	}
	return cs.more[prec]
}

// filter is the tail of gather for one partition: the window filter, the
// row reads and the radius check over the partition's merged postings,
// survivors appended in merge order. A partition with its own rows reads
// each posting's record — recs, the partition's records as gather read
// them — by the row ordinal the posting carries — one independent load, no
// search — and takes the survivor's SID and author from it; a time window
// is the ordinal range of the records inside it, so the postings outside
// are cut off the ascending merge without a load. A partition that keeps
// none (the paper's paged index) filters the window by tweet ID and
// resolves the rest in one multi-get against the paged row store (dozens of
// shared data pages instead of one descent each).
func (e *Engine) filter(cs *candidateSet, part *Partition, recs []social.RowMeta, merged []candidate) error {
	if part.Rows == nil {
		return e.filterPaged(cs, part.Lookup, merged)
	}
	posts := part.Rows.PostOrdinals() // after the records: it covers them
	if w := cs.q.TimeWindow; w != nil {
		lo, hi := w.ordinals(recs)
		from := sort.Search(len(merged), func(i int) bool { return merged[i].doc >= lo })
		to := sort.Search(len(merged), func(i int) bool { return merged[i].doc >= hi })
		merged = merged[from:max(from, to)]
	}
	// Load a chunk of records and their post ordinals, then test the chunk:
	// the loads depend on no branch and on one another not at all, so the
	// processor overlaps their cache misses, and the radius tests then run
	// over records in cache.
	var chunk [64]social.RowMeta
	var chunkPosts [64]uint32
	for len(merged) > 0 {
		n := min(len(merged), len(chunk))
		for i, c := range merged[:n] {
			if uint64(c.doc) >= uint64(len(recs)) {
				return fmt.Errorf("core: corrupt index: a posting names row %d of a partition holding %d", c.doc, len(recs))
			}
			chunk[i] = recs[c.doc]
			chunkPosts[i] = posts[c.doc]
		}
		for i := range chunk[:n] {
			r := &chunk[i]
			cs.admit(r.SID, merged[i].matches, geo.Point{Lat: r.Lat, Lon: r.Lon}, r.UID, chunkPosts[i])
		}
		merged = merged[n:]
	}
	return nil
}

// filterPaged is filter for a partition without rows of its own: the
// postings carry tweet IDs, resolved in one batch through the partition's
// row lookup, and each survivor's post ordinal by a search of the corpus
// table.
func (e *Engine) filterPaged(cs *candidateSet, lookup RowLookup, merged []candidate) error {
	if w := cs.q.TimeWindow; w != nil {
		inWindow := merged[:0]
		for _, c := range merged {
			if w.contains(c.doc) {
				inWindow = append(inWindow, c)
			}
		}
		merged = inWindow
	}
	sids := grow(&cs.sc.sids, len(merged))
	for i, c := range merged {
		sids[i] = c.doc
	}
	rows, found, saved := lookup.LookupRows(sids)
	cs.stats.DBBatchLookups += int64(len(sids))
	cs.stats.DBPagesSaved += saved
	for i, c := range merged {
		post, ok := e.Corpus.Ordinal(c.doc)
		if !found[i] || !ok {
			return fmt.Errorf("core: indexed tweet %d missing from metadata db", c.doc)
		}
		cs.admit(c.doc, c.matches, rows[i].Loc(), rows[i].UID, post)
	}
	return nil
}

// admit runs the radius check on one posting's row — cover cells may stick
// out of the circle — and appends the survivor, its δ(p,q) (Definition 5),
// its location and its post ordinal. The bracket decides most points
// without trigonometry; a point surely inside gets the upper bound of δ that
// the bracket's shortest distance gives, pending its exact value, and only
// an undecided point pays Circle.Distance here. Either way the survivors
// are exactly the points Distance admits.
func (cs *candidateSet) admit(tid social.PostID, matches int, loc geo.Point, uid social.UserID, post uint32) {
	c := CandidateTweet{TID: tid, UID: uid, Matches: matches, post: post}
	switch lo, _, v := cs.circle.Bracket(loc); v {
	case geo.Outside:
		return
	case geo.Inside:
		c.Delta, c.pending = score.DistanceScore(geo.MinArcKm(lo), cs.q.RadiusKm), true
	default:
		d, inside := cs.circle.Distance(loc)
		if !inside {
			return
		}
		c.Delta = score.DistanceScore(d, cs.q.RadiusKm)
	}
	cs.cands = append(cs.cands, c)
	cs.locs = append(cs.locs, loc)
}

// exact replaces candidate i's bound, if it has one, by its exact δ(p,q):
// Circle.Distance on its location, the value admit would have computed.
func (cs *candidateSet) exact(i int) {
	if c := &cs.cands[i]; c.pending {
		d, _ := cs.circle.Distance(cs.locs[i])
		c.Delta, c.pending = score.DistanceScore(d, cs.q.RadiusKm), false
	}
}

// exactDeltas gives every candidate its exact δ(p,q), for the exits that
// hand every δ out.
func (cs *candidateSet) exactDeltas() {
	for i := range cs.cands {
		cs.exact(i)
	}
}

// refine replaces the bounds in u's candidates by their exact δ and re-sums
// u's Σδ over its chain — candidate order, as resolveUsers sums it — so
// deltaSum and δ(u,q) are what an exact user table holds, bit for bit.
func (cs *candidateSet) refine(u *candUser) {
	sum := 0.0
	for i := u.first; i >= 0; i = cs.cands[i].next {
		cs.exact(int(i))
		sum += cs.cands[i].Delta
	}
	u.deltaSum, u.du, u.pending = sum, score.UserDistance(sum, u.posts), false
	cs.stats.UsersRefined++
}

// resolveUsers reads, by post ordinal, every candidate's author and the
// exact popularity φ(p) of its thread from the corpus table in one batch
// (social.Corpus.Score, so no thread is built; φ waits in the scratch for
// relevance), then builds the set's user table — one row per distinct user
// in first-candidate order, found by the user ordinal's slot, Σδ
// accumulated in candidate order, each candidate pointed at its row and
// chained to the user's next — and fills in |P_u| and δ(u,q) (Definition
// 9). A user with a pending candidate gets upper bounds of both: rounding
// is monotone, so a sum in the same order over terms no smaller, and its
// quotient, are no smaller than the exact ones. It runs once per ranked query;
// retrieval-only callers never pay for it. δ(u,q) is read the way
// Algorithms 4 and 5 can compute it from the retrieved postings: the user's
// candidate distance sum divided by |P_u|. Posts outside the radius
// contribute 0 to Definition 9 either way; the user's in-radius posts that
// match no query keyword are the ones left out. So δ depends on the corpus
// only through |P_u|, read by user ordinal in a second batch.
func (e *Engine) resolveUsers(cs *candidateSet) {
	sc := cs.sc
	posts := grow(&sc.posts, len(cs.cands))
	for i := range cs.cands {
		posts[i] = cs.cands[i].post
	}
	authors := grow(&sc.authors, len(posts))
	e.Corpus.Score(posts, e.Opts.Params.Epsilon, authors, grow(&sc.rho, len(posts)))

	if sc.gen++; sc.gen == 0 { // wrapped: no slot may look live
		clear(sc.slots)
		sc.gen = 1
	}
	users, ords := sc.users[:0], sc.ords[:0]
	for i := range cs.cands {
		c, a := &cs.cands[i], authors[i]
		if int(a) >= len(sc.slots) {
			sc.slots = slices.Grow(sc.slots, int(a)+1-len(sc.slots))
			sc.slots = sc.slots[:cap(sc.slots)]
		}
		slot := &sc.slots[a]
		if slot.gen != sc.gen {
			slot.gen, slot.row = sc.gen, int32(len(users))
			users = append(users, candUser{uid: c.UID, first: int32(i)})
			ords = append(ords, a)
		} else {
			cs.cands[users[slot.row].last].next = int32(i)
		}
		c.user, c.next = slot.row, -1
		u := &users[c.user]
		u.last = int32(i)
		u.deltaSum += c.Delta
		u.pending = u.pending || c.pending
	}
	sc.users, sc.ords, cs.users = users, ords, users
	counts := grow(&sc.counts, len(ords))
	e.Corpus.UserPosts(ords, counts)
	for i, n := range counts {
		u := &cs.users[i]
		u.posts, u.du = n, score.UserDistance(u.deltaSum, n)
	}
}

// relevance returns ρ(p,q) per candidate, in candidate order: the keyword
// relevance of Definition 6 under the thread's exact popularity φ(p), which
// resolveUsers read, times the recency factor. It is the one per-candidate
// score both rankings and SearchPartials consume. The result lives in the
// scratch.
func (e *Engine) relevance(cs *candidateSet) []float64 {
	rho := cs.sc.rho[:len(cs.cands)]
	for i := range cs.cands {
		c := &cs.cands[i]
		rho[i] = score.KeywordRelevance(c.Matches, rho[i], e.Opts.Params.N) * e.recencyFactor(cs, c.TID)
	}
	return rho
}

// rankSum is the back half of Algorithm 4: Σρ per user, summed in candidate
// order (Definition 7), combined with δ(u,q) (Definition 10), and the top k
// admitted under the sort-then-truncate order. Combine rounds monotonically
// in δ(u,q) (α ≤ 1), so a user whose bounded score falls below the weakest
// member's is admit's no-op and is passed over; any other pending user is
// refined first, so admit sees only exact scores.
func (e *Engine) rankSum(cs *candidateSet, rho []float64) []UserResult {
	for i := range cs.cands {
		cs.users[cs.cands[i].user].rhoSum += rho[i]
	}
	alpha := e.Opts.Params.Alpha
	tk := newTopK(cs.q.K, len(cs.users))
	for i := range cs.users {
		u := &cs.users[i]
		if u.pending {
			if tk.full() && score.Combine(alpha, u.rhoSum, u.du) < tk.peek() {
				continue
			}
			cs.refine(u)
		}
		tk.admit(u.uid, score.Combine(alpha, u.rhoSum, u.du))
	}
	return tk.results()
}

// rankMax is the back half of Algorithm 5: each candidate's user score —
// its ρ combined with its user's δ(u,q) — streams through the bounded top-k,
// a user keeping its best (Definition 8). As Algorithm 5 tests its
// popularity bound against topKUser.peek(), a bounded score no higher than
// the weakest member's is offer's no-op and is passed over; any other
// offer of a pending user refines it first.
func (e *Engine) rankMax(cs *candidateSet, rho []float64) []UserResult {
	alpha := e.Opts.Params.Alpha
	tk := newTopK(cs.q.K, len(cs.users))
	for i := range cs.cands {
		c := &cs.cands[i]
		u := &cs.users[c.user]
		if u.pending {
			if tk.full() && score.Combine(alpha, rho[i], u.du) <= tk.peek() {
				continue
			}
			cs.refine(u)
		}
		tk.offer(c.UID, score.Combine(alpha, rho[i], u.du))
	}
	return tk.results()
}

// CandidateTweets runs only the retrieval stage of query processing
// (circle cover, postings fetch, AND/OR merge, radius and window filters)
// and returns the surviving tweets in ascending tweet-ID order, each with
// its exact δ(p,q), as the caller's own copy. Used by the evidence API and
// by retrieval-only baselines.
func (e *Engine) CandidateTweets(q Query) ([]CandidateTweet, *QueryStats, error) {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	cs, err := e.gather(context.Background(), q, sc)
	if err != nil {
		return nil, nil, err
	}
	cs.exactDeltas()
	return slices.Clone(cs.cands), cs.done(), nil
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

// recencyFactor returns the temporal boost for a tweet of cs's query, 1
// unless the extension is enabled.
func (e *Engine) recencyFactor(cs *candidateSet, sid social.PostID) float64 {
	if e.Opts.RecencyHalfLife <= 0 || cs.maxSID <= cs.minSID {
		return 1
	}
	age := float64(cs.maxSID-sid) / float64(cs.maxSID-cs.minSID)
	return score.RecencyBoost(age, e.Opts.RecencyHalfLife)
}
