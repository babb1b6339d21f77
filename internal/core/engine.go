// Package core implements TkLUS query processing (Section V of the paper):
// the retrieval front half Algorithms 4 and 5 share, the sum-score and
// maximum-score rankings (Definitions 7 and 8), AND/OR keyword semantics, and
// the temporal extension sketched in the paper's future-work section. It
// sits on top of the hybrid index (a segment store's, or the paper's paged
// internal/invindex) and the corpus table (social.Corpus), which holds, by
// post and user ordinal, every thread's level sizes and so its exact
// popularity φ, each post's author and each user's |P_u|: the engine reads
// a candidate's by the post ordinal its row carries and builds no thread.
// A search bounds, then refines: the radius filter brackets each distance
// without trigonometry, the rankers pass over every user whose upper score
// cannot change the top k, and only the others pay the exact haversine, so
// the answer is the one exact scores give, bit for bit. The paper's regime —
// Algorithm 1 per candidate, with Algorithm 5's upper-bound pruning — is
// what the figures time, and lives with them in internal/experiments.
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/score"
	"repro/internal/social"
	"repro/internal/telemetry"
	"repro/internal/textutil"
)

// Semantic selects how multiple query keywords combine (Section V-A).
type Semantic int

const (
	// Or keeps tweets containing any query keyword.
	Or Semantic = iota
	// And keeps only tweets containing every query keyword.
	And
)

func (s Semantic) String() string {
	if s == And {
		return "AND"
	}
	return "OR"
}

// Ranking selects the user scoring function.
type Ranking int

const (
	// SumScore ranks users by Definition 7 (Algorithm 4).
	SumScore Ranking = iota
	// MaxScore ranks users by Definition 8 (Algorithm 5).
	MaxScore
)

func (r Ranking) String() string {
	if r == MaxScore {
		return "max"
	}
	return "sum"
}

// Query is a TkLUS query q(l, r, W) plus the result size k and processing
// choices.
type Query struct {
	Loc      geo.Point
	RadiusKm float64
	Keywords []string // raw keywords; the engine stems them like documents
	K        int
	Semantic Semantic
	Ranking  Ranking

	// TimeWindow optionally restricts the search to tweets whose
	// timestamp (SID) falls within [From, To] — the paper's temporal
	// extension ("define a query for a particular period of time").
	// A nil window searches all tweets.
	TimeWindow *TimeWindow
}

// TimeWindow is a closed time interval. Post IDs are timestamps
// (Section IV-A), so the filter compares SIDs directly.
type TimeWindow struct {
	From, To time.Time
}

// contains reports whether the post with the given SID (a UnixNano
// timestamp by corpus convention) falls inside the window.
func (w *TimeWindow) contains(sid social.PostID) bool {
	t := int64(sid)
	return t >= w.From.UnixNano() && t <= w.To.UnixNano()
}

// ordinals returns the range [lo, hi) of the records, ascending by SID,
// whose posts the window contains.
func (w *TimeWindow) ordinals(recs []social.RowMeta) (lo, hi social.PostID) {
	from, to := w.From.UnixNano(), w.To.UnixNano()
	lo = social.PostID(sort.Search(len(recs), func(i int) bool { return int64(recs[i].SID) >= from }))
	hi = social.PostID(sort.Search(len(recs), func(i int) bool { return int64(recs[i].SID) > to }))
	return lo, hi
}

// Validate rejects malformed queries. Every failure wraps ErrBadQuery so
// callers (and the HTTP server) classify it with errors.Is rather than by
// message.
func (q *Query) Validate() error {
	if !q.Loc.Valid() {
		return fmt.Errorf("core: %w: invalid query location %v", ErrBadQuery, q.Loc)
	}
	if q.RadiusKm <= 0 || !finite(q.RadiusKm) {
		return fmt.Errorf("core: %w: query radius %v must be positive and finite", ErrBadQuery, q.RadiusKm)
	}
	if len(q.Keywords) == 0 {
		return fmt.Errorf("core: %w: query needs at least one keyword", ErrBadQuery)
	}
	if q.K <= 0 {
		return fmt.Errorf("core: %w: k = %d must be positive", ErrBadQuery, q.K)
	}
	if q.TimeWindow != nil && q.TimeWindow.To.Before(q.TimeWindow.From) {
		return fmt.Errorf("core: %w: empty time window", ErrBadQuery)
	}
	return nil
}

// Options tunes engine behaviour beyond the scoring parameters.
type Options struct {
	Params score.Params
	// RecencyHalfLife, when positive, multiplies each tweet's keyword
	// relevance by score.RecencyBoost with this half-life expressed as a
	// fraction of the corpus time span (future-work extension: "give
	// priority to more recent tweets").
	RecencyHalfLife float64
}

// DefaultOptions is the paper's scoring model with no extension enabled.
func DefaultOptions() Options {
	return Options{Params: score.DefaultParams()}
}

// PostingsSource is what the engine needs from a hybrid index: the geohash
// precision it was built with and, per ⟨cell, term⟩, a block-at-a-time
// iterator over the postings list (one payload read, decode on demand), nil
// when the key has none. Segments, the memtable and the paper's paged
// *invindex.Index implement it. The IDs the postings carry are row ordinals
// when the partition has a RowSource, tweet IDs when it has none.
type PostingsSource interface {
	GeohashLen() int
	OpenPostings(geohash, term string) (*invindex.PostingsIterator, error)
}

// RowSource is the row contract between the engine and storage: the
// source's rows as packed records, and each row's post ordinal in the
// engine's corpus table, both indexed by the row ordinals its postings name,
// so ordinal order is SID order. Sealed segments and the memtable implement
// it; rows a source appends later lie beyond the length it returned, and
// the ordinals read after the records cover every record read.
type RowSource interface {
	Records() []social.RowMeta
	PostOrdinals() []uint32
}

// RowLookup resolves tweet IDs to rows in one batch, for a partition whose
// postings carry tweet IDs: the paper's paged metadata database, which the
// figures build (internal/experiments).
type RowLookup interface {
	// LookupRows returns the rows of sids and which of them were found,
	// aligned with sids, and the simulated page touches the batch saved
	// against a single-key loop.
	LookupRows(sids []social.PostID) (rows []social.Row, found []bool, pagesSaved int64)
}

// Partition is one time slice of the corpus with its own index — the
// paper's batch setting builds one index per collection period
// (Section IV-A: "periodically (e.g., one day) collect the spatial tweets
// and then build the index") — and the unit that answers both of a query's
// reads: the postings of the covered keys and the rows behind them.
// MinSID/MaxSID bound the tweet IDs (timestamps) the partition covers; a
// zero MaxSID means unbounded. Partitions are time-disjoint and in time
// order, so per-partition candidate lists concatenate into the global
// ascending one.
type Partition struct {
	Source PostingsSource
	// Rows holds the rows this partition's postings name by ordinal: the
	// segment or memtable that holds them — a System's build image or a
	// store view. Nil means the partition keeps none of its own (the paged
	// index the figures build the paper's way): its postings carry tweet
	// IDs, resolved through one multi-get against Lookup. Whoever publishes
	// the partition set decides; queries never probe for it.
	Rows   RowSource
	Lookup RowLookup
	MinSID social.PostID
	MaxSID social.PostID
}

// overlapsWindow reports whether the partition may contain tweets inside
// the query window.
func (p *Partition) overlapsWindow(w *TimeWindow) bool {
	if w == nil {
		return true
	}
	if p.MaxSID != 0 && social.PostID(w.From.UnixNano()) > p.MaxSID {
		return false
	}
	if social.PostID(w.To.UnixNano()) < p.MinSID {
		return false
	}
	return true
}

// Engine executes TkLUS queries.
type Engine struct {
	Corpus *social.Corpus
	Opts   Options

	// parts is every postings source, in time order. Each query loads it
	// once, so a storage engine can swap the set under live traffic.
	parts atomic.Pointer[[]Partition]
}

// NewPartitionedEngine wires an engine over one or more time-partitioned
// indexes sharing one corpus table. Queries with a TimeWindow skip
// partitions entirely outside the window. Every score reads φ from the
// corpus table, so a table counted for another thread depth is refused
// (ErrParamsMismatch); any ε reads the same counts.
func NewPartitionedEngine(parts []Partition, corpus *social.Corpus, opts Options) (*Engine, error) {
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	if len(parts) == 0 || corpus == nil {
		return nil, fmt.Errorf("core: engine needs partitions and a corpus table")
	}
	if d := corpus.Depth(); d != opts.Params.ThreadDepth {
		return nil, fmt.Errorf("core: %w: corpus table counted for thread depth %d, the model says %d",
			ErrParamsMismatch, d, opts.Params.ThreadDepth)
	}
	for i, p := range parts {
		if p.Source == nil {
			return nil, fmt.Errorf("core: partition %d has no postings source", i)
		}
		if p.Rows == nil && p.Lookup == nil {
			return nil, fmt.Errorf("core: partition %d has neither rows nor a row lookup", i)
		}
	}
	eng := &Engine{Corpus: corpus, Opts: opts}
	eng.SetPartitions(parts)
	return eng, nil
}

// SetPartitions atomically replaces the engine's partitions (in time
// order, every Source non-nil). Queries in flight finish on the set they
// loaded — postings and rows both — so the caller keeps replaced sources
// readable until those drain. An
// empty set closes the engine: every later query fails with ErrClosed.
func (e *Engine) SetPartitions(parts []Partition) {
	e.parts.Store(&parts)
}

// Partitions returns a copy of the partition set queries currently load.
func (e *Engine) Partitions() []Partition {
	return slices.Clone(*e.parts.Load())
}

// UserResult is one ranked user.
type UserResult struct {
	UID   social.UserID
	Score float64
}

// QueryStats reports the work one query performed.
type QueryStats struct {
	Cells            int   // geohash cells in the circle cover
	PostingsFetched  int64 // non-empty ⟨cell, term⟩ postings lists opened across the partitions
	Candidates       int   // tweets surviving semantics + radius + window
	ThreadsBuilt     int64 // Algorithm 1 invocations; set only by the paper's regime (internal/experiments)
	ThreadsPruned    int64 // candidates Algorithm 5 skipped by the upper bound; set only by the paper's regime
	TweetsPulled     int64 // rows fetched during thread expansion; set only by the paper's regime
	PopCacheHits     int64 // always 0; only the frozen internal/bench reads it — delete with the harness's next move (ROADMAP 1(d))
	DBBatchLookups   int64 // keys this query resolved through multi-get batches
	DBPagesSaved     int64 // simulated page+node touches the batches avoided
	BlocksSkipped    int64 // postings blocks passed over without decoding
	PostingsSkipped  int64 // postings inside those skipped blocks
	PartitionsPruned int64 // time-partitioned sources skipped by the query window
	UsersRefined     int64 // users whose bounded δs a ranking replaced by exact ones
	Elapsed          time.Duration

	// Spans are the per-stage timings of the query pipeline (cell cover →
	// postings fetch → candidate filter → rank/top-k), in first-start
	// order. Serving code returns them in the /search reply and feeds them
	// into the per-stage latency histograms.
	Spans []telemetry.Span

	// ReplicaLagSIDs is the worst replication lag, in acknowledged-but-
	// unapplied ingest records, among the replicas that served this
	// scatter-gather query. 0 means every answer came from a fully
	// caught-up copy (leaders report 0 by definition); a positive value
	// bounds how much of the most recent ingest stream the answer may not
	// yet reflect. Always 0 for single-node and unreplicated queries.
	ReplicaLagSIDs int64

	// DegradedShards lists the shards of a scatter-gather query that did
	// not contribute results (timeout, error, or open circuit breaker).
	// Empty for single-node queries and for sharded queries where every
	// overlapping shard answered. Non-empty means the results are merged
	// from the shards that did answer — correct for their regions, but
	// possibly missing users whose posts live on a degraded shard.
	DegradedShards []ShardFailure
}

// Add folds other's work counters into s — the one place they are summed,
// so a counter added to QueryStats is forgotten by no caller. Cells is left
// to the caller (the largest cover across shards of one query, the sum
// across platforms or queries), as are Elapsed, Spans, ReplicaLagSIDs and
// DegradedShards, which are not sums.
func (s *QueryStats) Add(other *QueryStats) {
	s.PostingsFetched += other.PostingsFetched
	s.Candidates += other.Candidates
	s.ThreadsBuilt += other.ThreadsBuilt
	s.ThreadsPruned += other.ThreadsPruned
	s.TweetsPulled += other.TweetsPulled
	s.PopCacheHits += other.PopCacheHits
	s.DBBatchLookups += other.DBBatchLookups
	s.DBPagesSaved += other.DBPagesSaved
	s.BlocksSkipped += other.BlocksSkipped
	s.PostingsSkipped += other.PostingsSkipped
	s.PartitionsPruned += other.PartitionsPruned
	s.UsersRefined += other.UsersRefined
}

// Degraded reports whether any shard failed to contribute to this query.
func (s *QueryStats) Degraded() bool { return len(s.DegradedShards) > 0 }

// ShardFailure identifies one shard that dropped out of a scatter-gather
// query and why.
type ShardFailure struct {
	Shard  string `json:"shard"`
	Reason string `json:"reason"`
}

// StageDuration returns the accumulated duration of one pipeline stage
// (a telemetry.Stage* constant), or 0 if the stage never ran.
func (s *QueryStats) StageDuration(stage string) time.Duration {
	for _, sp := range s.Spans {
		if sp.Stage == stage {
			return sp.Duration
		}
	}
	return 0
}

// QueryTerms stems and deduplicates query keywords with the same pipeline
// as documents, preserving order. It is exported so baselines and tools
// interpret keywords identically to the engine.
func QueryTerms(keywords []string) []string {
	seen := make(map[string]struct{}, len(keywords))
	var out []string
	for _, kw := range keywords {
		for _, term := range textutil.Terms(kw) {
			if _, dup := seen[term]; dup {
				continue
			}
			seen[term] = struct{}{}
			out = append(out, term)
		}
	}
	return out
}
