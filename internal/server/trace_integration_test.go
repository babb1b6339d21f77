package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	tklus "repro"
	"repro/internal/telemetry"
)

// The acceptance scenario of the tracing work: a sharded query with one
// dead shard and one hedged straggler must come back out of
// /debug/traces/{id} as a single span tree — root → router → per-shard
// attempts (the hedge as a sibling attempt, breaker and degraded-shard
// events attached) → the winning shards' engine stage spans — and the same
// trace ID must appear in the slow-query log line.

// deadShard refuses every sub-query, like a shard whose process is gone.
type deadShard struct{}

func (deadShard) SearchPartials(ctx context.Context, q tklus.Query) (*tklus.Partials, error) {
	return nil, errors.New("connection refused")
}

// stragglerShard stalls its first sub-query until the caller gives up on
// it (the hedge-triggering straggler); later calls — the hedged backup —
// pass straight through.
type stragglerShard struct {
	inner tklus.ShardBackend
	mu    sync.Mutex
	calls int
}

func (s *stragglerShard) SearchPartials(ctx context.Context, q tklus.Query) (*tklus.Partials, error) {
	s.mu.Lock()
	s.calls++
	first := s.calls == 1
	s.mu.Unlock()
	if first {
		select {
		case <-time.After(5 * time.Second):
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
	return s.inner.SearchPartials(ctx, q)
}

// buildFaultyTier builds a 3-shard tier over three geohash-4 cells, then
// rewires it so shard-01 is dead and shard-02 straggles on first contact.
func buildFaultyTier(t *testing.T) (*tklus.ShardedSystem, tklus.Point) {
	t.Helper()
	// Three locations in distinct geohash-4 cells (dpz8, dpzb, dpxw), all
	// within 60 km of the first.
	locs := []tklus.Point{
		{Lat: 43.68, Lon: -79.37},
		{Lat: 43.68, Lon: -78.90},
		{Lat: 43.40, Lon: -79.37},
	}
	t0 := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	var posts []*tklus.Post
	uid := tklus.UserID(1)
	for li, loc := range locs {
		for i := 0; i < 4; i++ {
			posts = append(posts, tklus.NewPost(uid,
				t0.Add(time.Duration(li*10+i)*time.Second), loc, "fresh pizza downtown"))
			uid++
		}
	}
	sc := tklus.DefaultShardingConfig()
	sc.NumShards = 3
	sc.PrefixLen = 4
	sc.ShardTimeout = 0
	sc.HedgeDelay = 5 * time.Millisecond
	sc.BreakerThreshold = 1
	sc.BreakerCooldown = time.Minute
	ss, err := tklus.BuildSharded(posts, tklus.DefaultConfig(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if ss.NumShards() != 3 {
		t.Fatalf("tier has %d shards, want 3 (prefix collision?)", ss.NumShards())
	}
	prefixes := ss.ShardPrefixes()
	specs := make([]tklus.ShardSpec, len(ss.Systems))
	for i, sys := range ss.Systems {
		name := fmt.Sprintf("shard-%02d", i)
		var backend tklus.ShardBackend = sys
		switch i {
		case 1:
			backend = deadShard{}
		case 2:
			backend = &stragglerShard{inner: sys}
		}
		specs[i] = tklus.ShardSpec{Name: name, Backend: backend, Prefixes: prefixes[name]}
	}
	alpha := tklus.DefaultConfig().Engine.Params.Alpha
	faulty, err := tklus.NewSharded(alpha, sc, specs)
	if err != nil {
		t.Fatal(err)
	}
	return faulty, locs[0]
}

func TestShardedTraceEndToEnd(t *testing.T) {
	ss, center := buildFaultyTier(t)
	tracer := telemetry.NewTracer(telemetry.TracerOptions{SampleRate: 0})
	var logBuf bytes.Buffer
	srv := NewSearcherWith(ss, Options{
		Tracer:             tracer,
		Logger:             slog.New(slog.NewTextHandler(&logBuf, nil)),
		SlowQueryThreshold: time.Nanosecond, // every query is "slow"
	})

	body := fmt.Sprintf(`{"lat":%f,"lon":%f,"radius_km":60,"keywords":["pizza"],"k":5}`,
		center.Lat, center.Lon)
	req := httptest.NewRequest("POST", "/v1/search", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("search status %d: %s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("no X-Trace-Id on a traced search")
	}
	var resp SearchResponseV1
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("degraded query returned no results — healthy shards should answer")
	}
	if len(resp.Stats.DegradedShards) != 1 || resp.Stats.DegradedShards[0].Shard != "shard-01" {
		t.Fatalf("degraded shards = %+v, want exactly shard-01", resp.Stats.DegradedShards)
	}

	// Retrieve the full span tree by the advertised ID.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+traceID, nil))
	if rec.Code != 200 {
		t.Fatalf("trace fetch status %d: %s", rec.Code, rec.Body.String())
	}
	var tr telemetry.Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != traceID {
		t.Fatalf("trace ID %s, want %s", tr.TraceID, traceID)
	}
	if !tr.Hedged || !tr.Degraded {
		t.Fatalf("trace flags hedged:%v degraded:%v, want both", tr.Hedged, tr.Degraded)
	}
	if tr.Outcome != "degraded" {
		t.Fatalf("trace outcome %q, want degraded", tr.Outcome)
	}

	// Assemble the tree: exactly one root, the router under it, every
	// attempt under the router, stage spans under winning attempts.
	var root, router telemetry.SpanData
	attempts := map[string][]telemetry.SpanData{} // by shard
	attemptIDs := map[string]bool{}
	var stageSpans []telemetry.SpanData
	for _, sd := range tr.Spans {
		switch {
		case sd.ParentID == "":
			if root.SpanID != "" {
				t.Fatalf("two parentless spans: %q and %q", root.Name, sd.Name)
			}
			root = sd
		case sd.Name == "router":
			router = sd
		case sd.Name == "shard.attempt":
			attempts[sd.Shard] = append(attempts[sd.Shard], sd)
			attemptIDs[sd.SpanID] = true
		case strings.HasPrefix(sd.Name, "stage."):
			stageSpans = append(stageSpans, sd)
		}
	}
	if root.Name != "server/v1/search" {
		t.Fatalf("root span %q, want server/v1/search", root.Name)
	}
	if router.SpanID == "" || router.ParentID != root.SpanID {
		t.Fatalf("router span %+v not parented on root %s", router, root.SpanID)
	}
	for shard, as := range attempts {
		for _, a := range as {
			if a.ParentID != router.SpanID {
				t.Fatalf("attempt on %s parented on %s, want router %s", shard, a.ParentID, router.SpanID)
			}
		}
	}
	// The straggler was hedged: two sibling attempts on shard-02, the
	// backup marked as such and winning while the stalled primary is
	// recorded canceled or unfinished.
	if len(attempts["shard-02"]) != 2 {
		t.Fatalf("shard-02 attempts = %d, want primary + hedge", len(attempts["shard-02"]))
	}
	backups := 0
	for _, a := range attempts["shard-02"] {
		if a.Attrs["hedge"] == "backup" {
			backups++
		}
	}
	if backups != 1 {
		t.Fatalf("shard-02 backup attempts = %d, want 1", backups)
	}
	// The dead shard fails fast, which also hedges: two failed attempts.
	if len(attempts["shard-01"]) != 2 {
		t.Fatalf("shard-01 attempts = %d, want primary + fail-fast hedge", len(attempts["shard-01"]))
	}
	for _, a := range attempts["shard-01"] {
		if a.Error == "" {
			t.Fatalf("dead-shard attempt carries no error: %+v", a)
		}
	}
	if len(attempts["shard-00"]) != 1 {
		t.Fatalf("healthy shard attempts = %d, want 1", len(attempts["shard-00"]))
	}
	// Router events: the hedge launches and the degraded shard.
	events := map[string]int{}
	for _, ev := range router.Events {
		events[ev.Name]++
	}
	if events[telemetry.EventHedge] < 1 {
		t.Fatalf("router events %v carry no %s", router.Events, telemetry.EventHedge)
	}
	if events[telemetry.EventDegradedShard] != 1 {
		t.Fatalf("router events %v, want one %s", router.Events, telemetry.EventDegradedShard)
	}
	// Engine stage spans folded under winning attempts.
	if len(stageSpans) == 0 {
		t.Fatal("no engine stage spans in the trace")
	}
	for _, sp := range stageSpans {
		if !attemptIDs[sp.ParentID] {
			t.Fatalf("stage span %s parented on %s, not an attempt", sp.Name, sp.ParentID)
		}
	}

	// The slow-query log line carries the same trace ID.
	logs := logBuf.String()
	if !strings.Contains(logs, "slow query") {
		t.Fatalf("no slow-query line in logs:\n%s", logs)
	}
	slowLine := ""
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, "slow query") {
			slowLine = line
		}
	}
	if !strings.Contains(slowLine, "trace_id="+traceID) {
		t.Fatalf("slow-query line lacks trace_id=%s:\n%s", traceID, slowLine)
	}
	// The access log carries it too.
	if !strings.Contains(logs, `path=/v1/search`) || strings.Count(logs, "trace_id="+traceID) < 2 {
		t.Fatalf("access log lacks the trace ID:\n%s", logs)
	}

	// Second query: shard-01's breaker opened on the first failure, so its
	// trace shows the breaker trip instead of attempts against it.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", strings.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("second search status %d: %s", rec.Code, rec.Body.String())
	}
	trace2 := rec.Header().Get("X-Trace-Id")
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+trace2, nil))
	if rec.Code != 200 {
		t.Fatalf("second trace fetch status %d: %s", rec.Code, rec.Body.String())
	}
	var tr2 telemetry.Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &tr2); err != nil {
		t.Fatal(err)
	}
	foundBreaker := false
	for _, sd := range tr2.Spans {
		for _, ev := range sd.Events {
			if ev.Name == telemetry.EventBreakerOpen && ev.Msg == "shard-01" {
				foundBreaker = true
			}
		}
	}
	if !foundBreaker {
		t.Fatalf("second trace carries no %s event for shard-01", telemetry.EventBreakerOpen)
	}

	// The summary listing filters by outcome and finds both traces.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?outcome=degraded", nil))
	if rec.Code != 200 {
		t.Fatalf("listing status %d", rec.Code)
	}
	var listing struct {
		Traces []telemetry.TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Traces) != 2 {
		t.Fatalf("degraded listing has %d traces, want 2", len(listing.Traces))
	}
	if listing.Traces[0].TraceID != trace2 {
		t.Fatalf("listing not newest-first: %+v", listing.Traces)
	}
}

// TestTraceNotFound pins the 404 shape for dropped/unknown trace IDs.
func TestTraceNotFound(t *testing.T) {
	srv := NewSearcherWith(newNoopSearcher(), Options{
		Tracer: telemetry.NewTracer(telemetry.TracerOptions{SampleRate: 1}),
	})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/deadbeef", nil))
	if rec.Code != 404 {
		t.Fatalf("status %d, want 404", rec.Code)
	}
}

// TestTracesDisabled: without a tracer the debug endpoints are not routed
// and searches carry no X-Trace-Id.
func TestTracesDisabled(t *testing.T) {
	s, loc := testServer(t)
	url := fmt.Sprintf("/search?lat=%f&lon=%f&radius=10&keywords=hotel&k=5", loc.Lat, loc.Lon)
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("X-Trace-Id"); got != "" {
		t.Fatalf("untraced server advertised trace %q", got)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 404 {
		t.Fatalf("/debug/traces on an untraced server = %d, want 404", rec.Code)
	}
}

// TestReadyzEndpoint: a constructed server is ready by definition.
func TestReadyzEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("/readyz = %d, want 200", rec.Code)
	}
	if routeOf("/readyz") != "/readyz" {
		t.Fatal("/readyz not in the route label set")
	}
	if routeOf("/debug/traces/abc") != "/debug/traces" {
		t.Fatal("/debug/traces/{id} not normalized to /debug/traces")
	}
}

// noopSearcher is the cheapest possible Searcher for handler-only tests.
type noopSearcher struct{}

func newNoopSearcher() tklus.Searcher { return noopSearcher{} }

func (noopSearcher) Search(ctx context.Context, q tklus.Query) ([]tklus.UserResult, *tklus.QueryStats, error) {
	return []tklus.UserResult{}, &tklus.QueryStats{}, nil
}
