package server

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	return rec.Body.String()
}

// metricValue extracts the value of the first series line matching the
// given name+label prefix, or -1 if absent.
func metricValue(body, prefix string) float64 {
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(prefix) + `\s+([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		return -1
	}
	var v float64
	fmt.Sscanf(m[1], "%g", &v)
	return v
}

// TestMetricsEndpoint issues queries then scrapes /metrics, asserting the
// acceptance set: query count by outcome, per-stage histograms with
// non-zero samples and the index-size gauge — and that no paged-database
// series is exported: a serving System holds no metadata database or
// B⁺-tree to count.
func TestMetricsEndpoint(t *testing.T) {
	s, loc := testServer(t)

	// A fresh server scrapes a complete, all-zero metric set.
	body := scrape(t, s)
	if got := metricValue(body, `tklus_queries_total{outcome="ok"}`); got != 0 {
		t.Errorf("fresh ok count = %v, want 0", got)
	}

	searches := 3
	for i := 0; i < searches; i++ {
		code, _ := get(t, s, fmt.Sprintf("/search?lat=%f&lon=%f&radius=10&keywords=hotel&k=5", loc.Lat, loc.Lon))
		if code != 200 {
			t.Fatalf("search status %d", code)
		}
	}
	get(t, s, "/search?lat=bogus") // one bad request

	body = scrape(t, s)
	if got := metricValue(body, `tklus_queries_total{outcome="ok"}`); got != float64(searches) {
		t.Errorf("ok count = %v, want %d", got, searches)
	}
	if got := metricValue(body, `tklus_queries_total{outcome="bad_request"}`); got != 1 {
		t.Errorf("bad_request count = %v, want 1", got)
	}
	// Per-stage histograms carry one sample per search.
	for _, stage := range []string{"cell_cover", "postings_fetch", "candidate_filter", "rank_topk"} {
		prefix := fmt.Sprintf(`tklus_query_stage_seconds_count{stage=%q}`, stage)
		if got := metricValue(body, prefix); got != float64(searches) {
			t.Errorf("stage %s samples = %v, want %d", stage, got, searches)
		}
	}
	if got := metricValue(body, "tklus_query_seconds_count"); got != float64(searches) {
		t.Errorf("query histogram count = %v, want %d", got, searches)
	}
	// Lower-layer series are hooked in.
	if got := metricValue(body, "tklus_index_keys"); got < 1 {
		t.Errorf("index keys = %v, want ≥ 1", got)
	}
	for _, gone := range []string{"tklus_postings_fetches_total", "tklus_dfs_blocks_read_total", "tklus_dfs_bytes_read_total"} {
		if got := metricValue(body, gone); got != -1 {
			t.Errorf("%s = %v, want absent", gone, got)
		}
	}
	root := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano() // testServer's thread root
	if code, _ := get(t, s, fmt.Sprintf("/thread?tid=%d", root)); code != 200 {
		t.Fatalf("thread status %d", code)
	}
	body = scrape(t, s)
	for _, gone := range []string{"tklus_db_", "tklus_metadb_", "tklus_btree_"} {
		if strings.Contains(body, gone) {
			t.Errorf("/metrics exports a %s* series; a serving System has no paged database", gone)
		}
	}
	if got := metricValue(body, `tklus_http_requests_total{route="/search",status="2xx"}`); got != float64(searches) {
		t.Errorf("http 2xx count = %v, want %d", got, searches)
	}
}

// TestSearchResponseSpans asserts the /search reply carries the per-stage
// span timings.
func TestSearchResponseSpans(t *testing.T) {
	s, loc := testServer(t)
	code, body := get(t, s, fmt.Sprintf("/search?lat=%f&lon=%f&radius=10&keywords=hotel&k=5", loc.Lat, loc.Lon))
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	spans := body["stats"].(map[string]any)["spans"].([]any)
	stages := make(map[string]bool)
	for _, raw := range spans {
		sp := raw.(map[string]any)
		stages[sp["stage"].(string)] = true
		if sp["us"].(float64) < 0 {
			t.Errorf("span %v has negative duration", sp)
		}
	}
	for _, want := range []string{"cell_cover", "postings_fetch", "candidate_filter", "rank_topk"} {
		if !stages[want] {
			t.Errorf("reply missing stage %q: %v", want, spans)
		}
	}
}

// TestServerErrorPaths covers malformed parameters: each must yield 400
// (not 500, not a panic) with a JSON error body.
func TestServerErrorPaths(t *testing.T) {
	s, _ := testServer(t)
	bad := []string{
		"/search?lat=abc&lon=-79&radius=10&keywords=hotel",                // garbage lat
		"/search?lat=43&lon=xyz&radius=10&keywords=hotel",                 // garbage lon
		"/search?lat=43&lon=-79&radius=nope&keywords=hotel",               // garbage radius
		"/search?lat=43&lon=-79&radius=-5&keywords=hotel",                 // negative radius
		"/search?lat=43&lon=-79&radius=10&keywords=hotel&k=-1",            // negative k
		"/search?lat=43&lon=-79&radius=10",                                // no keywords
		"/search?lat=43&lon=-79&radius=10&keywords=the+and+of",            // stop words only: zero terms
		"/search?lat=43&lon=-79&radius=10&keywords=hotel&ranking=median",  // unknown ranking
		"/search?lat=43&lon=-79&radius=10&keywords=hotel&semantic=maybe",  // unknown semantic
		"/evidence?lat=43&lon=-79&radius=10&keywords=hotel&uid=1&limit=x", // garbage limit
	}
	for _, url := range bad {
		code, body := get(t, s, url)
		if code != 400 {
			t.Errorf("%s: status %d, want 400", url, code)
		}
		env, ok := body["error"].(map[string]any)
		if !ok {
			t.Errorf("%s: missing JSON error envelope: %v", url, body)
			continue
		}
		if code, _ := env["code"].(string); code != "bad_query" {
			t.Errorf("%s: error code %q, want bad_query", url, code)
		}
		if msg, _ := env["message"].(string); msg == "" {
			t.Errorf("%s: empty error message: %v", url, body)
		}
	}
}

// TestSlowQueryLog configures a tiny threshold so every query is "slow"
// and asserts the WARN line fires with the query shape and stage fields.
func TestSlowQueryLog(t *testing.T) {
	s, loc := testServer(t)
	var buf bytes.Buffer
	s.opts.SlowQueryThreshold = time.Nanosecond
	s.log = slog.New(slog.NewTextHandler(&buf, nil))
	s.opts.Logger = s.log

	code, _ := get(t, s, fmt.Sprintf("/search?lat=%f&lon=%f&radius=10&keywords=hotel&k=5", loc.Lat, loc.Lon))
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	out := buf.String()
	if !strings.Contains(out, "slow query") || !strings.Contains(out, "level=WARN") {
		t.Fatalf("slow-query WARN line missing:\n%s", out)
	}
	for _, want := range []string{"keywords=hotel", "radius_km=10", "ranking=max", "stage_rank_topk="} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query line missing %q:\n%s", want, out)
		}
	}

	// Above-threshold queries only: with a huge threshold nothing logs.
	buf.Reset()
	s.opts.SlowQueryThreshold = time.Hour
	get(t, s, fmt.Sprintf("/search?lat=%f&lon=%f&radius=10&keywords=hotel&k=5", loc.Lat, loc.Lon))
	if strings.Contains(buf.String(), "slow query") {
		t.Errorf("slow-query fired below threshold:\n%s", buf.String())
	}
}

// TestAccessLog asserts the middleware emits one structured line per
// request with method, path, status, bytes and duration.
func TestAccessLog(t *testing.T) {
	sBase, loc := testServer(t)
	var buf bytes.Buffer
	s := NewWith(sBase.sys, Options{Logger: slog.New(slog.NewTextHandler(&buf, nil))})
	get(t, s, fmt.Sprintf("/search?lat=%f&lon=%f&radius=10&keywords=hotel", loc.Lat, loc.Lon))
	out := buf.String()
	for _, want := range []string{"msg=request", "method=GET", "path=/search", "status=200", "duration_us="} {
		if !strings.Contains(out, want) {
			t.Errorf("access log missing %q:\n%s", want, out)
		}
	}
}

// TestPprofMounting verifies /debug/pprof/ is present only with
// EnablePprof.
func TestPprofMounting(t *testing.T) {
	sBase, _ := testServer(t)
	if code, _ := get(t, sBase, "/debug/pprof/"); code != 404 {
		t.Errorf("pprof mounted without EnablePprof: status %d", code)
	}
	s := NewWith(sBase.sys, Options{EnablePprof: true})
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "profile") {
		t.Errorf("pprof index: status %d", rec.Code)
	}
}

// TestConcurrentSearchMetrics hammers /search and /metrics from many
// goroutines — the registry, histograms and reservoirs must hold up under
// -race, and the outcome counter must account every request exactly once.
func TestConcurrentSearchMetrics(t *testing.T) {
	s, loc := testServer(t)
	const goroutines = 8
	const perG = 25
	urls := []string{
		fmt.Sprintf("/search?lat=%f&lon=%f&radius=10&keywords=hotel&k=5&ranking=max", loc.Lat, loc.Lon),
		fmt.Sprintf("/search?lat=%f&lon=%f&radius=10&keywords=hotel&k=5&ranking=sum", loc.Lat, loc.Lon),
		fmt.Sprintf("/search?lat=%f&lon=%f&radius=25&keywords=hotel+pool&k=3&semantic=or", loc.Lat, loc.Lon),
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := httptest.NewRequest("GET", urls[(g+i)%len(urls)], nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != 200 {
					t.Errorf("status %d: %s", rec.Code, rec.Body.String())
				}
				if i%10 == 0 {
					req := httptest.NewRequest("GET", "/metrics", nil)
					s.ServeHTTP(httptest.NewRecorder(), req)
				}
			}
		}(g)
	}
	wg.Wait()
	body := scrape(t, s)
	want := float64(goroutines * perG)
	if got := metricValue(body, `tklus_queries_total{outcome="ok"}`); got != want {
		t.Errorf("ok count = %v, want %v", got, want)
	}
	if got := metricValue(body, "tklus_query_seconds_count"); got != want {
		t.Errorf("query histogram count = %v, want %v", got, want)
	}
}

// TestStatsStageSummaries checks the richer /stats reply: outcome counts,
// uptime, and per-stage latency summaries that render zeros (not a panic)
// before any query ran.
func TestStatsStageSummaries(t *testing.T) {
	s, loc := testServer(t)

	// Before any query: stage summaries exist and are all zero.
	code, body := get(t, s, "/stats")
	if code != 200 {
		t.Fatalf("stats status %d", code)
	}
	stages := body["stage_latency_us"].(map[string]any)
	if len(stages) == 0 {
		t.Fatal("no stage_latency_us in /stats")
	}
	for name, raw := range stages {
		row := raw.(map[string]any)
		if row["n"].(float64) != 0 || row["p99"].(float64) != 0 {
			t.Errorf("fresh stage %s = %v, want zeros", name, row)
		}
	}

	get(t, s, fmt.Sprintf("/search?lat=%f&lon=%f&radius=10&keywords=hotel", loc.Lat, loc.Lon))
	_, body = get(t, s, "/stats")
	queries := body["queries"].(map[string]any)
	if queries["ok"].(float64) != 1 {
		t.Errorf("queries = %v, want ok=1", queries)
	}
	total := body["stage_latency_us"].(map[string]any)["total"].(map[string]any)
	if total["n"].(float64) != 1 || total["max"].(float64) <= 0 {
		t.Errorf("total latency summary = %v", total)
	}
	if body["uptime_seconds"].(float64) < 0 {
		t.Errorf("uptime = %v", body["uptime_seconds"])
	}
}

// TestOutcomeConstantsCoverRegistry keeps the pre-registered outcome list
// in sync with what countQuery can receive.
func TestOutcomeConstantsCoverRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	sBase, _ := testServer(t)
	m := newServerMetrics(reg, sBase.sys)
	for _, o := range []string{outcomeOK, outcomeBadRequest, outcomeCanceled} {
		if _, ok := m.queries[o]; !ok {
			t.Errorf("outcome %q not pre-registered", o)
		}
	}
}
