// Package server exposes a built TkLUS system as a JSON-over-HTTP query
// service — the serving half of the paper's architecture (Figure 3 ends at
// "query processing"; this is how an application would consume it).
//
// Endpoints:
//
//	POST /v1/search        versioned JSON search request (SearchRequestV1)
//	                       → ranked users, per-query stats, span timings
//	                       and any degraded shards
//	GET  /search           legacy parameter form (lat, lon, radius,
//	                       keywords, k, semantic, ranking, from, to);
//	                       decodes into the same v1 request struct
//	GET  /evidence         search parameters plus uid and limit → the
//	                       user's matching tweet texts
//	GET  /thread           tweet thread rooted at ?tid=
//	GET  /stats            cumulative I/O counters, query outcomes, and
//	                       per-stage latency summaries
//	GET  /metrics          Prometheus text exposition
//	GET  /healthz          liveness probe
//
// Every error is the one JSON envelope {"error": {"code", "message"}};
// typed sentinels map onto statuses through a single table:
// core.ErrBadQuery → 400 "bad_query", core.ErrNoResults → 404
// "not_found", core.ErrOverloaded → 429 "overloaded" (with Retry-After),
// core.ErrShardUnavailable → 503 "shard_unavailable", core.ErrClosed → 503
// "closed", tklus.ErrRejected (an ingested post refused for what it is)
// → 400 "rejected"; anything else is a 500 "internal".
//
// The server fronts any tklus.Searcher — a monolithic System (over its
// segment store), a ShardedSystem router, or a Federation. The
// system-introspection endpoints (/evidence, /thread, the I/O half of
// /stats) exist only when the backend is a *tklus.System; a router serves
// the query endpoints and its own metrics. A System serves every endpoint
// from the same engine, so /evidence reads the partitions /search does. A
// sharded router calls its shards in process.
//
// Every request flows through a middleware that records HTTP metrics and
// emits one structured access-log line; searches additionally feed the
// per-stage latency histograms and the slow-query log (see Options).
// Options.EnablePprof mounts net/http/pprof under /debug/pprof/.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	tklus "repro"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// Options configures the observability behaviour of a Server.
type Options struct {
	// Registry receives the server's metrics; nil creates a fresh one.
	// Pass a shared registry to combine server metrics with process-level
	// collectors.
	Registry *telemetry.Registry
	// Logger receives access-log and slow-query lines. nil disables
	// logging (the default keeps the library quiet; cmd/tklus-server
	// always passes a real logger).
	Logger *slog.Logger
	// SlowQueryThreshold makes search queries at or above this duration
	// emit a WARN log line with the full query shape and per-stage
	// breakdown. Zero disables the slow-query log.
	SlowQueryThreshold time.Duration
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
	// Keep it off on untrusted networks; cmd/tklus-server gates it behind
	// -debug.
	EnablePprof bool
	// Tracer enables tracing: every search and ingest request gets a
	// root span, completed traces land in the tracer's
	// tail-sampled store, and GET /debug/traces (+ /debug/traces/{id})
	// expose them. nil disables tracing at zero hot-path cost.
	Tracer *telemetry.Tracer
	// Admission wraps the query path in a tklus.AdmissionControl with
	// these options: bounded queue, bounded wait, optional cost-based
	// shedding. Shed queries answer 429 with Retry-After instead of
	// queueing without bound. The introspection endpoints bypass the
	// controller — only searches contend for admission slots. nil serves
	// every query unconditionally.
	Admission *tklus.AdmissionOptions
}

// Server routes HTTP requests to one TkLUS searcher.
type Server struct {
	searcher tklus.Searcher
	sys      *tklus.System // non-nil only for single-system backends
	// postCount enriches results with |P_u| when the backend has a
	// corpus table in reach; nil otherwise.
	postCount func(tklus.UserID) int
	// ingest is the backend's live-ingest entry point: its own
	// IngestContext when it has one (a replicated tier), the single
	// system's otherwise; nil for backends that cannot ingest.
	ingest func(context.Context, ...*tklus.Post) error
	// replicated is the unwrapped replica-group tier when the backend is
	// one: /stats reporting and the /debug/replication fault-injection
	// endpoints must see through admission wrapping.
	replicated *tklus.ReplicatedShardedSystem
	mux        *http.ServeMux
	opts       Options
	log        *slog.Logger
	metrics    *serverMetrics
	started    time.Time
}

// New creates a server over a built system with default options: fresh
// registry, no logging, no slow-query log, no pprof.
func New(sys *tklus.System) *Server {
	return NewWith(sys, Options{})
}

// NewWith creates a server over a built system with explicit
// observability options. The full endpoint set is available, including
// the introspection endpoints.
func NewWith(sys *tklus.System, opts Options) *Server {
	return newServer(sys, sys, opts)
}

// NewSearcher creates a server over any Searcher with default options.
func NewSearcher(sr tklus.Searcher) *Server {
	return NewSearcherWith(sr, Options{})
}

// NewSearcherWith creates a server over any Searcher — a sharded router,
// a federation, or a plain system. When sr is a *tklus.System (or a
// decorator surfacing one through UnderlyingSystem) the introspection
// endpoints come along; otherwise only the search, metrics and health
// endpoints are served. A backend with series of its own (a system's
// segment store, a router's shards, a replicated tier's groups) registers
// them into the server's registry.
func NewSearcherWith(sr tklus.Searcher, opts Options) *Server {
	var sys *tklus.System
	if u, ok := sr.(interface{ UnderlyingSystem() *tklus.System }); ok {
		sys = u.UnderlyingSystem()
	}
	return newServer(sr, sys, opts)
}

func newServer(sr tklus.Searcher, sys *tklus.System, opts Options) *Server {
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	// Interface-based wiring keys off the unwrapped backend: admission
	// control fronts only the application search path, and must not hide
	// the backend's other capabilities (shard metrics, post-count
	// enrichment, ingest) behind the wrapper type.
	backend := sr
	if opts.Admission != nil {
		ac := tklus.NewAdmissionControl(sr, *opts.Admission)
		ac.RegisterMetrics(opts.Registry)
		sr = ac
	}
	s := &Server{
		searcher: sr,
		sys:      sys,
		mux:      http.NewServeMux(),
		opts:     opts,
		log:      opts.Logger,
		metrics:  newServerMetrics(opts.Registry, sys),
		started:  time.Now(),
	}
	// Each backend registers its own series once: a system its segment
	// store's, a router its per-shard series, a replicated tier those plus
	// its replication health.
	if m, ok := backend.(interface{ RegisterMetrics(*telemetry.Registry) }); ok {
		m.RegisterMetrics(opts.Registry)
	}
	s.replicated, _ = backend.(*tklus.ReplicatedShardedSystem)
	if sys != nil {
		s.postCount = sys.DB.PostCountOfUser
	} else if pc, ok := backend.(interface{ PostCountOfUser(tklus.UserID) int }); ok {
		s.postCount = pc.PostCountOfUser
	}
	if ing, ok := backend.(interface {
		IngestContext(context.Context, ...*tklus.Post) error
	}); ok {
		s.ingest = ing.IngestContext
	} else if sys != nil {
		s.ingest = sys.IngestContext
	}
	s.mux.HandleFunc("POST /v1/search", s.handleSearchV1)
	s.mux.HandleFunc("GET /search", s.handleSearch)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if sys != nil {
		s.mux.HandleFunc("GET /evidence", s.handleEvidence)
		s.mux.HandleFunc("GET /thread", s.handleThread)
	}
	if s.ingest != nil {
		s.mux.HandleFunc("POST /v1/ingest", s.handleIngestV1)
	}
	if s.replicated != nil {
		s.mux.HandleFunc("POST /debug/replication/kill", s.handleReplicaKill)
		s.mux.HandleFunc("POST /debug/replication/revive", s.handleReplicaRevive)
	}
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if opts.Tracer != nil {
		s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
		s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	}
	if opts.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Registry returns the server's metrics registry, for callers that want to
// add their own collectors or flush a final snapshot at shutdown.
func (s *Server) Registry() *telemetry.Registry { return s.opts.Registry }

type userJSON struct {
	UID   int64   `json:"uid"`
	Score float64 `json:"score"`
	Posts int     `json:"posts,omitempty"`
}

type statsJSON struct {
	Cells           int   `json:"cells"`
	PostingsFetched int64 `json:"postings_fetched"`
	Candidates      int   `json:"candidates"`
	ThreadsBuilt    int64 `json:"threads_built"`
	ThreadsPruned   int64 `json:"threads_pruned"`
	DBBatchLookups  int64 `json:"db_batch_lookups"`
	DBPagesSaved    int64 `json:"db_pages_saved"`
	BlocksSkipped   int64 `json:"blocks_skipped"`
	PostingsSkipped int64 `json:"postings_skipped"`
	// PartitionsPruned counts time-bucketed segments the query window
	// discarded whole; nonzero only on a segmented backend.
	PartitionsPruned int64 `json:"partitions_pruned,omitempty"`
	// ReplicaLagSIDs is the worst replication lag (acked-but-unapplied
	// records) among the replicas that served this query; nonzero only on
	// a replicated backend reading from a catching-up follower.
	ReplicaLagSIDs int64                `json:"replica_lag_sids,omitempty"`
	ElapsedMicros  int64                `json:"elapsed_us"`
	Ranking        string               `json:"ranking"`
	Semantic       string               `json:"semantic"`
	Spans          []spanJSON           `json:"spans"`
	DegradedShards []tklus.ShardFailure `json:"degraded_shards,omitempty"`
}

// spanJSON is one pipeline-stage timing in the search reply. start_us is
// the offset from query start; us is the stage's accumulated duration.
type spanJSON struct {
	Stage       string `json:"stage"`
	StartMicros int64  `json:"start_us"`
	Micros      int64  `json:"us"`
}

func spansJSON(spans []telemetry.Span) []spanJSON {
	out := make([]spanJSON, 0, len(spans))
	for _, sp := range spans {
		out = append(out, spanJSON{
			Stage:       sp.Stage,
			StartMicros: sp.Start.Microseconds(),
			Micros:      sp.Duration.Microseconds(),
		})
	}
	return out
}

// handleSearchV1 serves POST /v1/search: a versioned JSON request body.
func (s *Server) handleSearchV1(w http.ResponseWriter, r *http.Request) {
	var req SearchRequestV1
	if err := decodeJSONBody(r, &req); err != nil {
		s.metrics.countQuery(outcomeBadRequest)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.runSearch(w, r, req)
}

// handleSearch serves the legacy GET /search parameter form by decoding
// it into the v1 request struct; execution is shared with /v1/search.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	req, err := requestFromURL(r.URL.Query())
	if err != nil {
		s.metrics.countQuery(outcomeBadRequest)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.runSearch(w, r, req)
}

// runSearch is the one execution path behind both search endpoints.
func (s *Server) runSearch(w http.ResponseWriter, r *http.Request, req SearchRequestV1) {
	q, err := req.Query()
	if err != nil {
		s.metrics.countQuery(outcomeBadRequest)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	span := telemetry.SpanFromContext(r.Context())
	results, stats, err := s.searcher.Search(r.Context(), q)
	if err != nil {
		span.SetError(err)
		if r.Context().Err() != nil {
			s.metrics.countQuery(outcomeCanceled)
			span.SetOutcome(outcomeCanceled)
			return // client went away; nothing to write
		}
		code, outcome := statusOf(err)
		s.metrics.countQuery(outcome)
		span.SetOutcome(outcome)
		httpError(w, code, err)
		return
	}
	if stats.Degraded() {
		s.metrics.countQuery(outcomeDegraded)
		span.SetOutcome(outcomeDegraded)
	} else {
		s.metrics.countQuery(outcomeOK)
		span.SetOutcome(outcomeOK)
	}
	// A monolithic backend returns its engine stage timings unfolded;
	// attach them as stage.* child spans of the server span. (A sharded
	// router folds each shard's stages under its attempt span and merges
	// with nil Spans, so this is a no-op there.)
	span.FoldStages(start, stats.Spans)
	s.metrics.observeQuery(stats)
	s.maybeLogSlowQuery(r.Context(), &q, stats, time.Since(start))

	resp := SearchResponseV1{
		Version: ProtocolVersion,
		Results: make([]userJSON, 0, len(results)),
		Stats: statsJSON{
			Cells:            stats.Cells,
			PostingsFetched:  stats.PostingsFetched,
			Candidates:       stats.Candidates,
			ThreadsBuilt:     stats.ThreadsBuilt,
			ThreadsPruned:    stats.ThreadsPruned,
			DBBatchLookups:   stats.DBBatchLookups,
			DBPagesSaved:     stats.DBPagesSaved,
			BlocksSkipped:    stats.BlocksSkipped,
			PostingsSkipped:  stats.PostingsSkipped,
			PartitionsPruned: stats.PartitionsPruned,
			ReplicaLagSIDs:   stats.ReplicaLagSIDs,
			ElapsedMicros:    stats.Elapsed.Microseconds(),
			Ranking:          q.Ranking.String(),
			Semantic:         strings.ToLower(q.Semantic.String()),
			Spans:            spansJSON(stats.Spans),
			DegradedShards:   stats.DegradedShards,
		},
	}
	for _, res := range results {
		u := userJSON{UID: int64(res.UID), Score: res.Score}
		if s.postCount != nil {
			u.Posts = s.postCount(res.UID)
		}
		resp.Results = append(resp.Results, u)
	}
	writeJSON(w, resp)
}

// handleIngestV1 serves POST /v1/ingest: a batch of live posts appended
// through the backend's ingest path, so thread popularity and the
// memtable's keyword index update immediately; when a WAL is attached, each
// post is durable before the 200 goes out. Registered only for backends
// that own a corpus table (shard routers don't).
func (s *Server) handleIngestV1(w http.ResponseWriter, r *http.Request) {
	var req IngestRequestV1
	if err := decodeJSONBody(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	posts, err := req.Decode()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.ingest(r.Context(), posts...); err != nil {
		// A rejected append (invalid post, out-of-order SID) is client
		// data: 400. A closed store is 503; anything else — a WAL write, a
		// seal — is the server's disk: 500.
		code, _ := statusOf(err)
		httpError(w, code, err)
		return
	}
	s.opts.Registry.Counter("tklus_http_ingested_posts_total",
		"Posts accepted through POST /v1/ingest.", nil).Add(int64(len(posts)))
	writeJSON(w, IngestResponseV1{Version: ProtocolVersion, Ingested: len(posts)})
}

// maybeLogSlowQuery emits the slow-query log line: full query shape plus
// the per-stage breakdown, at WARN so it stands out from access logs. It
// logs with the request context — not context.Background() — so
// context-aware slog handlers see the request, and carries the trace ID
// when the request is traced, making the log line → trace hop a copy-paste.
func (s *Server) maybeLogSlowQuery(ctx context.Context, q *tklus.Query, stats *tklus.QueryStats, elapsed time.Duration) {
	if s.opts.SlowQueryThreshold <= 0 || elapsed < s.opts.SlowQueryThreshold {
		return
	}
	attrs := []slog.Attr{
		slog.Duration("elapsed", elapsed),
		slog.Duration("threshold", s.opts.SlowQueryThreshold),
		slog.String("keywords", strings.Join(q.Keywords, " ")),
		slog.Float64("lat", q.Loc.Lat),
		slog.Float64("lon", q.Loc.Lon),
		slog.Float64("radius_km", q.RadiusKm),
		slog.Int("k", q.K),
		slog.String("semantic", strings.ToLower(q.Semantic.String())),
		slog.String("ranking", q.Ranking.String()),
		slog.Int("candidates", stats.Candidates),
	}
	for _, sp := range stats.Spans {
		attrs = append(attrs, slog.Duration("stage_"+sp.Stage, sp.Duration))
	}
	if span := telemetry.SpanFromContext(ctx); span != nil {
		attrs = append(attrs, slog.String("trace_id", span.TraceID().String()))
	}
	s.log.LogAttrs(ctx, slog.LevelWarn, "slow query", attrs...)
}

func (s *Server) handleEvidence(w http.ResponseWriter, r *http.Request) {
	req, err := requestFromURL(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	q, err := req.Query()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	uid, err := strconv.ParseInt(r.URL.Query().Get("uid"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("%w: parameter %q: %v", core.ErrBadQuery, "uid", err))
		return
	}
	limit := 10
	if raw := r.URL.Query().Get("limit"); raw != "" {
		if limit, err = strconv.Atoi(raw); err != nil {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("%w: parameter %q: %v", core.ErrBadQuery, "limit", err))
			return
		}
	}
	texts, err := s.sys.Evidence(q, tklus.UserID(uid), limit)
	if err != nil {
		code, _ := statusOf(err)
		httpError(w, code, err)
		return
	}
	writeJSON(w, map[string]any{"uid": uid, "tweets": texts})
}

// handleThread materializes the tweet thread rooted at ?tid= and returns
// its nodes (with texts where stored) plus the popularity score.
func (s *Server) handleThread(w http.ResponseWriter, r *http.Request) {
	tid, err := strconv.ParseInt(r.URL.Query().Get("tid"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("%w: parameter %q: %v", core.ErrBadQuery, "tid", err))
		return
	}
	if _, ok := s.sys.DB.Author(tklus.PostID(tid)); !ok {
		httpError(w, http.StatusNotFound,
			fmt.Errorf("%w: tweet %d not found", core.ErrNoResults, tid))
		return
	}
	nodes, popularity := s.sys.Thread(tklus.PostID(tid))
	type nodeJSON struct {
		SID    int64  `json:"sid"`
		UID    int64  `json:"uid"`
		Parent int64  `json:"parent,omitempty"`
		Level  int    `json:"level"`
		Text   string `json:"text,omitempty"`
	}
	out := make([]nodeJSON, 0, len(nodes))
	for _, n := range nodes {
		text, _ := s.sys.Store.Text(n.SID)
		out = append(out, nodeJSON{
			SID: int64(n.SID), UID: int64(n.UID),
			Parent: int64(n.Parent), Level: n.Level, Text: text,
		})
	}
	writeJSON(w, map[string]any{"popularity": popularity, "nodes": out})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"uptime_seconds":   time.Since(s.started).Seconds(),
		"queries":          s.metrics.queryOutcomes(),
		"stage_latency_us": s.metrics.stageSummaries(),
	}
	if s.sys != nil {
		out["index_keys"] = s.sys.Store.NumKeys()
		out["rows"] = s.sys.DB.Len()
	}
	if ss, ok := s.searcher.(*tklus.ShardedSystem); ok {
		out["shards"] = ss.ShardNames()
		out["breakers"] = ss.BreakerStates()
	}
	if rs := s.replicated; rs != nil {
		out["shards"] = rs.ShardNames()
		out["breakers"] = rs.BreakerStates()
		groups := map[string]any{}
		for _, g := range rs.Groups() {
			reps := map[string]any{}
			for _, rep := range g.Replicas() {
				reps[rep.Name()] = map[string]any{
					"down":     rep.Down(),
					"lag_sids": g.LagRecords(rep.Name()),
				}
			}
			groups[g.Shard()] = map[string]any{
				"leader":    g.Leader(),
				"epoch":     g.Epoch(),
				"failovers": g.Failovers(),
				"replicas":  reps,
			}
		}
		out["replication"] = groups
	}
	writeJSON(w, out)
}

// handleReplicaKill and handleReplicaRevive are the fault-injection
// doors for a replicated tier: POST /debug/replication/kill?replica=
// shard-00/r0 marks the replica down (reads and writes through it fail
// fast; killing a leader leaves the group leaderless until its lease
// lapses and the keeper promotes a successor), and .../revive brings it
// back as a follower whose paused shipper catches it up. They exist so
// an operator can watch a failover end to end — /stats shows the
// promotion, /debug/traces shows reads routing around the corpse —
// without touching process state.
func (s *Server) handleReplicaKill(w http.ResponseWriter, r *http.Request) {
	s.handleReplicaFault(w, r, true)
}

func (s *Server) handleReplicaRevive(w http.ResponseWriter, r *http.Request) {
	s.handleReplicaFault(w, r, false)
}

func (s *Server) handleReplicaFault(w http.ResponseWriter, r *http.Request, kill bool) {
	name := r.URL.Query().Get("replica")
	shard, _, ok := strings.Cut(name, "/")
	if !ok {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("%w: replica must be shard-XX/rN, got %q", core.ErrBadQuery, name))
		return
	}
	g := s.replicated.Group(shard)
	if g == nil || g.Replica(name) == nil {
		httpError(w, http.StatusNotFound,
			fmt.Errorf("%w: no replica %q", core.ErrNoResults, name))
		return
	}
	var err error
	if kill {
		err = g.KillReplica(name)
	} else {
		err = g.ReviveReplica(name)
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	action := "revived"
	if kill {
		action = "killed"
	}
	s.log.Info("replica fault injected", "action", action, "replica", name,
		"leader", g.Leader(), "epoch", g.Epoch())
	writeJSON(w, map[string]any{
		"replica": name,
		"action":  action,
		"leader":  g.Leader(),
		"epoch":   g.Epoch(),
	})
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	s.opts.Registry.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// handleReadyz is the readiness probe. A constructed Server is by
// definition ready — its backend is fully built or recovered — so this
// always answers 200; the not-ready half lives in cmd/tklus-server, which
// binds the listener with a boot handler answering /readyz with 503 until
// the store open and WAL replay complete, then swaps this Server in.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ready\n"))
}

// handleTraces serves GET /debug/traces: recent retained trace summaries,
// newest first. Filters: ?min_duration=250ms, ?outcome=degraded, ?limit=N
// (default 50).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	f := telemetry.TraceFilter{Limit: 50}
	qp := r.URL.Query()
	if raw := qp.Get("min_duration"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("%w: parameter %q: %v", core.ErrBadQuery, "min_duration", err))
			return
		}
		f.MinDuration = d
	}
	f.Outcome = qp.Get("outcome")
	if raw := qp.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("%w: parameter %q: %v", core.ErrBadQuery, "limit", err))
			return
		}
		f.Limit = n
	}
	traces := s.opts.Tracer.Store().Recent(f)
	summaries := make([]telemetry.TraceSummary, 0, len(traces))
	for _, t := range traces {
		summaries = append(summaries, t.Summary())
	}
	writeJSON(w, map[string]any{"traces": summaries})
}

// handleTraceByID serves GET /debug/traces/{id}: the full span tree of one
// retained trace.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.opts.Tracer.Store().Get(id)
	if !ok {
		httpError(w, http.StatusNotFound,
			fmt.Errorf("%w: trace %s not retained (dropped by sampling, evicted, or never seen)",
				core.ErrNoResults, id))
		return
	}
	writeJSON(w, t)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// httpError writes the v1 error envelope. The status comes from the
// caller (usually classify via statusOf); the machine-readable code is
// always re-derived from the sentinel chain so envelope and sentinel
// never drift. Overload and unavailability responses carry Retry-After,
// telling well-behaved clients to back off instead of hammering a tier
// that is actively shedding.
func httpError(w http.ResponseWriter, code int, err error) {
	_, ecode, _ := classify(err)
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponseV1{
		Error: errorBodyV1{Code: ecode, Message: err.Error()},
	})
}
