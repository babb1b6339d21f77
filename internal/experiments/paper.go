package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/social"
	"repro/internal/textutil"
)

// paperArm runs queries in the regime the paper's evaluation times. The
// serving engine reads every candidate's thread popularity φ from the exact
// corpus table (social.Corpus) and builds no thread. The paper instead runs
// Algorithm 1 per candidate against the metadata database — its stated
// bottleneck — and, under max ranking, lets Algorithm 5's upper bound
// (lines 18–19) skip the runs that cannot matter. paperArm reproduces that
// over the engine's own retrieval (CandidateTweets) and the engine's own
// reduction (core.MergePartials over one part), so its answers equal
// Engine.Search byte for byte and only the work differs: the thread, pruning
// and page counters, and the time.
type paperArm struct {
	sys *PaperSystem
	// bounds are the query-level bounds pruning reads; nil for a system
	// Setup.System did not build, which only sum ranking may run on.
	bounds *paperBounds
	// prune enables Algorithm 5's upper-bound pruning (max ranking only:
	// Algorithm 4 prunes nothing).
	prune bool
	// specific bounds popularity by the hot-keyword bounds of Section V-B
	// instead of the global bound (Figure 12).
	specific bool
}

// paper is the paper's standard configuration over sys: pruning with the
// hot-keyword bounds.
func (s *Setup) paper(sys *PaperSystem) paperArm {
	return paperArm{sys: sys, bounds: s.bounds[sys], prune: true, specific: true}
}

// Search answers q as Algorithm 4 (sum) or Algorithm 5 (max) would. The
// returned stats are the retrieval's plus the thread-construction counters,
// and Elapsed covers the whole query.
func (a paperArm) Search(q core.Query) ([]core.UserResult, *core.QueryStats, error) {
	start := time.Now()
	eng := a.sys.Engine
	p := eng.Opts.Params
	if eng.Opts.RecencyHalfLife > 0 {
		return nil, nil, fmt.Errorf("experiments: the paper's regime has no recency extension")
	}
	cands, stats, err := eng.CandidateTweets(q)
	if err != nil {
		return nil, nil, err
	}

	// δ(u,q) per user, Definition 9 as the engine reads it: the candidates'
	// distance sum, in candidate order, over |P_u|.
	row := make(map[social.UserID]int)
	var uids []social.UserID
	var deltaSum []float64
	for _, c := range cands {
		u, ok := row[c.UID]
		if !ok {
			u = len(uids)
			row[c.UID] = u
			uids = append(uids, c.UID)
			deltaSum = append(deltaSum, 0)
		}
		deltaSum[u] += c.Delta
	}
	part := &core.Partials{Users: make([]core.UserPartial, len(uids)), Cands: make([]core.CandidateScore, len(cands))}
	du := make([]float64, len(uids))
	for u, uid := range uids {
		n := eng.Corpus.PostCountOfUser(uid)
		part.Users[u] = core.UserPartial{UID: uid, Posts: n}
		du[u] = score.UserDistance(deltaSum[u], n)
	}

	// One Algorithm 1 run per candidate, unless Algorithm 5's bound — the
	// query's popularity bound as keyword relevance, combined with δ(u,q) —
	// cannot beat the current kth score. A skipped candidate keeps ρ = 0:
	// its score stays at or below that kth score, so the reduction's top-k
	// passes it over exactly as it would the true one.
	builder := Builder{DB: a.sys.DB, Depth: p.ThreadDepth}
	prune := a.prune && q.Ranking == core.MaxScore
	var bound float64
	if prune {
		if a.bounds == nil {
			return nil, nil, fmt.Errorf("experiments: max-score pruning needs the paper's bounds of a Setup.System")
		}
		bound = a.bounds.ForQuery(core.QueryTerms(q.Keywords), q.Semantic == core.And, a.specific)
	}
	top := topUsers{k: q.K, best: make(map[social.UserID]float64, q.K)}
	var ts ThreadStats
	for i, c := range cands {
		d := du[row[c.UID]]
		part.Cands[i] = core.CandidateScore{TID: c.TID, UID: c.UID, Delta: c.Delta}
		if prune && top.full() && score.Combine(p.Alpha, score.KeywordRelevance(c.Matches, bound, p.N), d) <= top.kth() {
			stats.ThreadsPruned++
			continue
		}
		pop, _ := builder.Popularity(c.TID, p.Epsilon, &ts)
		part.Cands[i].Rho = score.KeywordRelevance(c.Matches, pop, p.N)
		top.offer(c.UID, score.Combine(p.Alpha, part.Cands[i].Rho, d))
	}
	results, _, err := core.MergePartials(q, p.Alpha, []*core.Partials{part})
	if err != nil {
		return nil, nil, err
	}
	stats.ThreadsBuilt += ts.ThreadsBuilt
	stats.TweetsPulled += ts.TweetsPulled
	stats.DBBatchLookups += ts.BatchLookups
	stats.DBPagesSaved += ts.BatchPagesSaved
	stats.Elapsed = time.Since(start)
	return results, stats, nil
}

// topUsers is Algorithm 5's topKUser as its pruning test reads it: the k
// best users so far, each at its best score, and the weakest of those
// scores. Which of several tied users holds a slot never changes that
// score, so ties need no order here; the final ranking is MergePartials'.
type topUsers struct {
	k    int
	best map[social.UserID]float64
}

func (t *topUsers) full() bool { return len(t.best) >= t.k }

// weakest returns a member holding the lowest score, and that score.
func (t *topUsers) weakest() (social.UserID, float64) {
	var w social.UserID
	ws := 0.0
	first := true
	for uid, s := range t.best {
		if first || s < ws {
			w, ws, first = uid, s, false
		}
	}
	return w, ws
}

func (t *topUsers) kth() float64 {
	_, s := t.weakest()
	return s
}

// offer enters one candidate's user score: a member keeps its best, a
// newcomer takes a free slot or displaces a strictly weaker weakest member.
func (t *topUsers) offer(uid social.UserID, s float64) {
	if old, ok := t.best[uid]; ok {
		t.best[uid] = max(old, s)
		return
	}
	if !t.full() {
		t.best[uid] = s
		return
	}
	if w, ws := t.weakest(); s > ws {
		delete(t.best, w)
		t.best[uid] = s
	}
}

// paperBounds are the query-level popularity bounds of Section V-B, which
// only the paper's max-score pruning reads. They are computed once per
// system, from the corpus and the level sizes its corpus table counts, at
// the state the figures query: no ingest follows.
type paperBounds struct {
	// TM is t_m, the largest number of replies/forwards any single tweet
	// has: the largest level-1 count in the table.
	TM int
	// Def11 is the global bound of Definition 11 for TM and the depth limit.
	// As defined in the paper it assumes every level is capped by t_m;
	// threads where several tweets at one level each attract replies can
	// exceed it, so it is a heuristic bound.
	Def11 float64
	// MaxObserved is the largest actual thread popularity in the corpus, a
	// sound global bound ("selecting the largest thread score"): the bound
	// ForQuery returns for a keyword without a specific one.
	MaxObserved float64
	// PerKeyword maps each hot keyword (stemmed) to the largest popularity
	// among threads rooted at tweets containing it — the paper's "specific
	// keyword related" bound, precomputed offline for the frequent keywords
	// (Table II). A hot keyword no tweet contains maps to ε.
	PerKeyword map[string]float64
}

// newPaperBounds derives the paper's bounds for the engine eng over posts,
// with specific bounds for hotKeywords (raw words, stemmed here as the
// index stems them).
func newPaperBounds(eng *core.Engine, posts []*social.Post, hotKeywords []string) *paperBounds {
	p := eng.Opts.Params
	b := &paperBounds{PerKeyword: make(map[string]float64)}
	eng.Corpus.Levels(func(_ social.PostID, levels []uint32) {
		b.TM = max(b.TM, int(levels[0]))
	})
	b.Def11 = def11Bound(b.TM, p.ThreadDepth)

	// The table holds exactly these posts, so the i-th by SID is post
	// ordinal i.
	bySID := slices.Clone(posts)
	slices.SortFunc(bySID, func(x, y *social.Post) int { return cmp.Compare(x.SID, y.SID) })
	ords := make([]uint32, len(bySID))
	for i := range ords {
		ords[i] = uint32(i)
	}
	phi := make([]float64, len(ords))
	eng.Corpus.Score(ords, p.Epsilon, make([]uint32, len(ords)), phi)
	hot := make(map[string]bool)
	for _, kw := range hotKeywords {
		for _, term := range textutil.Terms(kw) {
			hot[term] = true
		}
	}
	for i, post := range bySID {
		b.MaxObserved = max(b.MaxObserved, phi[i])
		for _, w := range post.Words {
			if hot[w] && phi[i] > b.PerKeyword[w] {
				b.PerKeyword[w] = phi[i]
			}
		}
	}
	// Keywords never observed still get an explicit (ε) entry, so ForQuery
	// tells "hot keyword with a tiny bound" from "not a hot keyword".
	for kw := range hot {
		if _, ok := b.PerKeyword[kw]; !ok {
			b.PerKeyword[kw] = p.Epsilon
		}
	}
	return b
}

// def11Bound computes the Definition 11 global bound for a given t_m and
// depth limit: t_m · Σ_{i=2}^{depth+1} 1/i.
func def11Bound(tm, depth int) float64 {
	var sum float64
	for i := 2; i <= depth+1; i++ {
		sum += 1.0 / float64(i)
	}
	return float64(tm) * sum
}

// ForQuery selects the popularity bound of the paper's max-score pruning
// (Algorithm 5 lines 18–19) for a query per Section VI-B5: with AND
// semantics the smallest per-keyword bound applies (every result tweet
// contains every keyword), with OR the largest. Keywords without a specific
// bound fall back to the global bound; useSpecific=false forces the global
// bound (the Figure 12 baseline).
func (b *paperBounds) ForQuery(terms []string, and, useSpecific bool) float64 {
	global := b.MaxObserved
	if !useSpecific || len(terms) == 0 {
		return global
	}
	var bound float64
	for i, term := range terms {
		kb, ok := b.PerKeyword[term]
		if !ok {
			kb = global
		}
		switch {
		case i == 0:
			bound = kb
		case and:
			bound = min(bound, kb)
		default:
			bound = max(bound, kb)
		}
	}
	return bound
}
