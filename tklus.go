// Package tklus is a from-scratch reproduction of "Finding Top-k Local
// Users in Geo-Tagged Social Media Data" (Jiang, Lu, Yang, Cui — ICDE
// 2015).
//
// A TkLUS query q(l, r, W) finds the k social-media users most relevant to
// the keywords W among those who posted keyword-matching tweets within r
// kilometres of location l. Relevance combines reply/forward cascade
// popularity ("tweet threads"), keyword relevance and spatial proximity.
//
// The package serves the paper's architecture (Figure 3) from memory and
// one storage engine:
//
//   - a corpus table (social.Corpus) in place of the paper's paged metadata
//     relation, keyed by dense post and user ordinals: each thread's level
//     sizes and so its popularity φ, each post's author, each user's post
//     count |P_u|, the SID range, and the reply graph threads are read
//     from. The paper's paged database with B⁺-tree
//     indexes on the tweet ID and the replied-to tweet ID is what the
//     figures build, in internal/experiments;
//   - a hybrid ⟨geohash, term⟩ inverted index, built by the indexer live
//     ingest uses and frozen into one heap-resident segment that also holds
//     the rows it indexes and their tweet texts (internal/segment,
//     internal/invindex's blocked postings). The paper's MapReduce build of
//     the index into a simulated distributed file system (internal/mapreduce,
//     internal/dfs) is what the figures measure, in internal/experiments;
//   - the sum-score and maximum-score user rankings, every candidate scored
//     from the corpus table's exact thread popularity (internal/core,
//     internal/score); internal/thread materializes a thread for /thread.
//
// Basic usage:
//
//	posts := []*tklus.Post{ ... }
//	sys, err := tklus.Build(posts, tklus.DefaultConfig())
//	results, stats, err := sys.Search(context.Background(), tklus.Query{
//	    Loc:      tklus.Point{Lat: 43.68, Lon: -79.37},
//	    RadiusKm: 10,
//	    Keywords: []string{"hotel"},
//	    K:        5,
//	    Ranking:  tklus.MaxScore,
//	})
package tklus

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/score"
	"repro/internal/segment"
	"repro/internal/social"
	"repro/internal/telemetry"
	"repro/internal/textutil"
	"repro/internal/thread"
	"repro/internal/wal"
)

// Re-exported data-model types.
type (
	// Post is a geo-tagged social media post (Definition 1 + metadata).
	Post = social.Post
	// PostID identifies a post; by convention it is the post's UnixNano
	// timestamp (Section IV-A: "the tweet ID ... is essentially the tweet
	// timestamp").
	PostID = social.PostID
	// UserID identifies a user.
	UserID = social.UserID
	// Point is a geographic location in degrees.
	Point = geo.Point
	// Query is a TkLUS query q(l, r, W) plus k and processing options.
	Query = core.Query
	// TimeWindow restricts a query to a time interval (temporal extension).
	TimeWindow = core.TimeWindow
	// UserResult is one ranked user.
	UserResult = core.UserResult
	// QueryStats reports per-query work counters.
	QueryStats = core.QueryStats
	// Params are the scoring-model parameters of Section III.
	Params = score.Params
	// Semantic selects Or / And keyword matching (Section V-A).
	Semantic = core.Semantic
	// Ranking selects SumScore / MaxScore user ranking (Definitions 7, 8).
	Ranking = core.Ranking
	// ShardFailure identifies one shard that dropped out of a
	// scatter-gather query (QueryStats.DegradedShards).
	ShardFailure = core.ShardFailure
	// Partials is a shard's half-finished answer to a scatter-gather
	// query: scored candidates plus per-user corpus facts, mergeable into
	// the exact monolithic top-k.
	Partials = core.Partials
	// CandidateScore is one scored candidate tweet inside Partials.
	CandidateScore = core.CandidateScore
	// UserPartial carries the per-user corpus facts inside Partials.
	UserPartial = core.UserPartial
	// WAL is the ingest write-ahead log attached by EnableWAL.
	WAL = wal.Log
	// WALOptions configures the ingest WAL's fsync policy.
	WALOptions = wal.Options
	// WALSyncPolicy selects when WAL appends reach stable storage.
	WALSyncPolicy = wal.SyncPolicy
)

// WAL fsync policies (see wal.SyncPolicy).
const (
	WALSyncEveryRecord = wal.SyncEveryRecord
	WALSyncInterval    = wal.SyncInterval
	WALSyncOff         = wal.SyncOff
)

// Re-exported error sentinels. Classify engine and router failures with
// errors.Is; the HTTP server maps them to 400, 404, 429 and 503.
var (
	// ErrBadQuery marks a query that fails validation.
	ErrBadQuery = core.ErrBadQuery
	// ErrNoResults marks a lookup whose subject does not exist.
	ErrNoResults = core.ErrNoResults
	// ErrShardUnavailable marks a scatter-gather query that could not be
	// answered because the shards it needed were down.
	ErrShardUnavailable = core.ErrShardUnavailable
	// ErrOverloaded marks a query shed by admission control before any
	// search work ran; back off and retry.
	ErrOverloaded = core.ErrOverloaded
	// ErrClosed marks a search or ingest on a closed system.
	ErrClosed = core.ErrClosed
	// ErrRejected marks a post refused for what it is: it fails
	// validation, repeats a SID, or arrives out of timestamp order.
	ErrRejected = social.ErrRejected
)

// Searcher is the one query interface every serving arrangement
// implements: a single monolithic System (over its segment store, on the
// heap or in a directory), a geo-sharded ShardedSystem, and a
// cross-platform Federation. Code written against Searcher — the HTTP
// server included — runs unchanged over any of them. The context carries
// cancellation and the deadline budget; implementations abort early once
// it is done.
type Searcher interface {
	Search(ctx context.Context, q Query) ([]UserResult, *QueryStats, error)
}

// Every serving arrangement satisfies Searcher.
var (
	_ Searcher = (*System)(nil)
	_ Searcher = (*ShardedSystem)(nil)
	_ Searcher = (*Federation)(nil)
)

// Relation kinds of a post.
const (
	None    = social.None
	Reply   = social.Reply
	Forward = social.Forward
)

// Keyword semantics (Section V-A).
const (
	Or  = core.Or
	And = core.And
)

// User ranking functions (Definitions 7 and 8).
const (
	SumScore = core.SumScore
	MaxScore = core.MaxScore
)

// Config controls how Build assembles the system.
type Config struct {
	// Index configures the hybrid index.
	Index IndexOptions
	// Engine configures query processing (scoring parameters, the recency
	// extension).
	Engine core.Options
}

// IndexOptions configures the hybrid index Build derives from the posts.
type IndexOptions struct {
	// GeohashLen is the geohash encoding length in characters (the paper
	// evaluates 1 through 4 and settles on 4).
	GeohashLen int
	// BlockSize is the postings-per-block target of the blocked layout;
	// non-positive selects the default (128).
	BlockSize int
}

// Option mutates a Config; DefaultConfig applies them in order.
type Option func(*Config)

// WithPopCache is accepted and changes nothing: the popularity cache is
// gone and only the frozen internal/bench harness still passes the option —
// delete with the harness's next move (ROADMAP 1(d)).
func WithPopCache(int) Option { return func(*Config) {} }

// popCacheStub is what is left of the cache's type: the one nil-safe call
// internal/bench makes on System.PopCache.
type popCacheStub struct{}

func (*popCacheStub) Stats() (s struct{ Evictions int64 }) { return s }

// WithReplySnapshot is accepted and changes nothing: ingest keeps the
// level-count table exact by arithmetic, so no reply-graph snapshot exists,
// and only the frozen internal/bench harness still passes the option —
// delete with the harness's next move (ROADMAP 1).
func WithReplySnapshot() Option { return func(*Config) {} }

// DefaultConfig returns the paper's standard configuration: 4-length
// geohash, α = 0.5, ε = 0.1, N = 40.
func DefaultConfig(opts ...Option) Config {
	cfg := Config{
		Index:  IndexOptions{GeohashLen: 4},
		Engine: core.DefaultOptions(),
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// System is a fully built TkLUS deployment over one corpus.
type System struct {
	Engine *core.Engine
	// DB is the corpus table: φ, |P_u|, the SID range and the reply graph,
	// appended by Ingest. Sharded builds share one across their shards.
	DB *social.Corpus
	// PopCache is always nil: only the frozen internal/bench harness reads
	// it — delete with the harness's next move (ROADMAP 1(d)).
	PopCache *popCacheStub
	// Store is the hybrid index the engine reads, with the rows and tweet
	// texts behind it: sealed segments, the build image first, then the
	// memtable ingest indexes into; on the heap until EnableSegments or Save
	// attaches a directory. Every store mutation and the partition swap
	// after it happen under ingestMu.
	Store *segment.Store
	// BuildTime is the wall-clock construction duration.
	BuildTime time.Duration
	// Recovery reports what Load replayed from the ingest WAL; nil on a
	// system built fresh from posts. Immutable after Load.
	Recovery *RecoveryStats

	// indexes, when set, picks the ingested posts the store indexes (a
	// shard's own region); the corpus table takes every post.
	indexes func(*Post) bool
	// ingestMu serializes Ingest against the seal and WAL rotation in Save —
	// the consistency point that makes "store + remaining WAL" always equal
	// the live state. Searches never take it.
	ingestMu sync.Mutex
	// wal, when attached by EnableWAL, receives every ingested post before
	// Ingest returns. Guarded by ingestMu.
	wal *wal.Log
	// closed fails ingest once Close has closed the store.
	closed bool
	// stopCompact / compactDone run the background compaction loop
	// EnableSegments starts when CompactInterval is set.
	stopCompact chan struct{}
	compactDone chan struct{}
	// saveMu serializes whole Save calls, and Close against a Save still
	// writing a copy of the segments out.
	saveMu sync.Mutex
	// snapshotsSaved / lastSnapshotUnix count checkpoints for the
	// persistence metrics; accessed atomically.
	snapshotsSaved   int64
	lastSnapshotUnix int64
}

// Build derives the corpus table from the posts — counting every thread's
// level sizes as it adds them — indexes them and their texts into one
// segment image (segment.FromPosts: the memtable ingest indexes through,
// sealed in memory, each row naming its post's ordinal in the table) that
// becomes the first sealed segment of a heap store, and returns a queryable
// system. Two posts with one SID fail with ErrRejected.
func Build(posts []*Post, cfg Config) (*System, error) {
	if len(posts) == 0 {
		return nil, fmt.Errorf("tklus: no posts to index")
	}
	start := time.Now()
	db, err := social.NewCorpus(posts, cfg.Engine.Params.ThreadDepth)
	if err != nil {
		return nil, fmt.Errorf("tklus: deriving the corpus table: %w", err)
	}
	img, err := segment.FromPosts(posts, db, cfg.Index.GeohashLen, cfg.Index.BlockSize)
	if err != nil {
		return nil, fmt.Errorf("tklus: building hybrid index: %w", err)
	}
	sys, err := newHeapSystem(cfg, db, nil, img)
	if err != nil {
		return nil, err
	}
	sys.BuildTime = time.Since(start)
	return sys, nil
}

// newHeapSystem serves a heap store whose one sealed segment is img: a
// build, a shard or a replica.
func newHeapSystem(cfg Config, db *social.Corpus, indexes func(*Post) bool, img *segment.Segment) (*System, error) {
	store, err := segment.OpenHeap(segment.Options{
		GeohashLen: img.GeohashLen(),
		BlockSize:  cfg.Index.BlockSize,
	}, img)
	if err != nil {
		return nil, fmt.Errorf("tklus: opening the store: %w", err)
	}
	return newSystem(cfg, db, indexes, store)
}

// newSystem is the one place a System is assembled — the engine over the
// store's views — so a build, a shard, a replica and a recovery all come up
// with the same serving surface.
func newSystem(cfg Config, db *social.Corpus, indexes func(*Post) bool, store *segment.Store) (*System, error) {
	engine, err := core.NewPartitionedEngine(partitions(store), db, cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("tklus: creating engine: %w", err)
	}
	return &System{Engine: engine, DB: db, Store: store, indexes: indexes}, nil
}

// Ingest appends live posts to the corpus table, in timestamp order (each
// SID must exceed every stored one — IDs are timestamps, Section IV-A; a
// post out of order or failing validation is ErrRejected), and indexes each
// one in the store's memtable, so an acknowledged post is a candidate for
// the very next query. Ingested replies and forwards extend tweet threads
// immediately: the corpus table counts each one into the level sizes every
// search reads φ(p) from, so the next query sees the updated φ(p). Crossing a
// time-bucket boundary seals the memtable and swaps the engine's
// partitions.
//
// When a WAL is attached (EnableWAL), each post is logged after it is
// applied and before Ingest returns, under the configured fsync policy —
// the log never holds a post the in-memory state rejected, and a crash
// can lose at most the post whose Ingest never returned. Ingest holds the
// ingest lock for the whole batch, so a concurrent Save captures either
// none or all of it.
func (s *System) Ingest(posts ...*Post) error {
	return s.IngestContext(context.Background(), posts...)
}

// IngestContext is Ingest with the caller's context threaded through for
// tracing: when the context carries a trace span (the HTTP ingest path), an
// "ingest" child span records the batch, with the accumulated corpus-table
// append and WAL append time attached as folded "db_append" / "wal_append"
// child spans. The context does not cancel an ingest — a half-applied
// batch would leave the table and the WAL disagreeing.
func (s *System) IngestContext(ctx context.Context, posts ...*Post) error {
	span := telemetry.SpanFromContext(ctx).StartChild("ingest")
	start := time.Now()
	var dbDur, walDur time.Duration
	err := s.ingest(posts, span != nil, &dbDur, &walDur)
	if span != nil {
		span.SetAttr("posts", fmt.Sprintf("%d", len(posts)))
		span.Fold("db_append", start, dbDur)
		span.Fold("wal_append", start.Add(dbDur), walDur)
		span.SetError(err)
		span.Finish()
	}
	return err
}

// ingest applies the batch under the ingest lock. timed gates the per-post
// clock reads so an untraced ingest pays nothing for instrumentation.
func (s *System) ingest(posts []*Post, timed bool, dbDur, walDur *time.Duration) error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.closed {
		return fmt.Errorf("tklus: ingest: %w", ErrClosed)
	}
	for _, p := range posts {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		if err := s.DB.Append(p); err != nil {
			return err
		}
		if timed {
			now := time.Now()
			*dbDur += now.Sub(t0)
			t0 = now
		}
		if s.wal != nil {
			if err := s.wal.Append(p); err != nil {
				return fmt.Errorf("tklus: ingest WAL append: %w", err)
			}
			if timed {
				*walDur += time.Since(t0)
			}
		}
		if s.indexes != nil && !s.indexes(p) {
			continue
		}
		// The single writer appended p last: its ordinal is Len()-1.
		sealed, err := s.Store.Add(p, uint32(s.DB.Len()-1))
		if sealed {
			s.publishPartitions()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ThreadNode is one tweet of a materialized tweet thread (Definition 3).
type ThreadNode = thread.Node

// Thread materializes the reply/forward cascade rooted at the given tweet
// up to the configured depth limit from the corpus table's reply graph,
// returning its nodes in BFS order and the thread's popularity score φ
// (Definition 4).
func (s *System) Thread(root PostID) ([]ThreadNode, float64) {
	p := s.Engine.Opts.Params
	return thread.Tree(s.DB, root, p.ThreadDepth, p.Epsilon)
}

// Evidence returns, for one returned user, the raw texts of the tweets
// that made them a candidate for q — the "(userId, tweet content)" result
// lines the paper's user study presents to judges — read from the store
// beside the rows, so an ingested post contributes its line from the next
// query on. limit caps the number of tweets (0 = no cap).
func (s *System) Evidence(q Query, uid UserID, limit int) ([]string, error) {
	sids, err := s.Engine.Evidence(q, uid, 0)
	if err != nil {
		return nil, err
	}
	texts := make([]string, 0, len(sids))
	for _, sid := range sids {
		if limit > 0 && len(texts) >= limit {
			break
		}
		if text, ok := s.Store.Text(sid); ok {
			texts = append(texts, text)
		}
	}
	return texts, nil
}

// Search executes a TkLUS query. The query aborts with the context's
// error at the next candidate boundary once ctx is done. It implements
// Searcher.
func (s *System) Search(ctx context.Context, q Query) ([]UserResult, *QueryStats, error) {
	return s.Engine.Search(ctx, q)
}

// NewPost builds a Post from raw text: the text is tokenized, stop-word
// filtered and stemmed with the same pipeline the index uses. The post ID
// is the UnixNano timestamp; callers must keep timestamps unique.
func NewPost(uid UserID, at time.Time, loc Point, text string) *Post {
	return &Post{
		SID:   PostID(at.UnixNano()),
		UID:   uid,
		Time:  at,
		Loc:   loc,
		Words: textutil.Terms(text),
		Text:  text,
	}
}

// NewReply builds a reply post referencing a parent post.
func NewReply(uid UserID, at time.Time, loc Point, text string, parent *Post) *Post {
	p := NewPost(uid, at, loc, text)
	p.Kind = Reply
	p.RUID = parent.UID
	p.RSID = parent.SID
	return p
}

// NewForward builds a forward (retweet) post referencing a parent post.
func NewForward(uid UserID, at time.Time, loc Point, text string, parent *Post) *Post {
	p := NewPost(uid, at, loc, text)
	p.Kind = Forward
	p.RUID = parent.UID
	p.RSID = parent.SID
	return p
}
