package server

import (
	"time"

	tklus "repro"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Query outcome label values for tklus_queries_total.
const (
	outcomeOK          = "ok"
	outcomeDegraded    = "degraded" // merged results missing some shards
	outcomeBadRequest  = "bad_request"
	outcomeNotFound    = "not_found"
	outcomeUnavailable = "unavailable" // ErrShardUnavailable → 503
	outcomeOverloaded  = "overloaded"  // ErrOverloaded (admission shed) → 429
	outcomeCanceled    = "canceled"
	outcomeError       = "error" // unclassified engine failure → 500
)

var queryOutcomes = []string{
	outcomeOK, outcomeDegraded, outcomeBadRequest, outcomeNotFound,
	outcomeUnavailable, outcomeOverloaded, outcomeCanceled, outcomeError,
}

// serverMetrics bundles the server's own metric handles. Counters and
// histograms that the request path touches are resolved once here, so
// handlers pay a map lookup only for series keyed by dynamic labels
// (HTTP status codes).
type serverMetrics struct {
	reg        *telemetry.Registry
	queries    map[string]*telemetry.Counter   // by outcome
	queryHist  *telemetry.Histogram            // whole-query latency
	stageHists map[string]*telemetry.Histogram // by pipeline stage
}

func newServerMetrics(reg *telemetry.Registry, sys *tklus.System) *serverMetrics {
	m := &serverMetrics{
		reg:        reg,
		queries:    make(map[string]*telemetry.Counter, len(queryOutcomes)),
		stageHists: make(map[string]*telemetry.Histogram, len(telemetry.QueryStages)),
	}
	// Pre-register every outcome and stage so a fresh server scrapes a
	// complete (all-zero) metric set instead of series popping into
	// existence on first use.
	for _, o := range queryOutcomes {
		m.queries[o] = reg.Counter("tklus_queries_total",
			"Search queries by outcome.", telemetry.Labels{"outcome": o})
	}
	m.queryHist = reg.Histogram("tklus_query_seconds",
		"End-to-end /search query latency.", nil, nil)
	for _, stage := range telemetry.QueryStages {
		m.stageHists[stage] = reg.Histogram("tklus_query_stage_seconds",
			"Per-stage query pipeline latency.",
			telemetry.Labels{"stage": stage}, nil)
	}
	// Hook the lower layers' cumulative counters into the same registry.
	// A Searcher-only server (sharded router, federation) has no single
	// system to introspect, so sys is nil there.
	if sys == nil {
		return m
	}
	reg.GaugeFunc("tklus_index_keys",
		"(geohash, term) keys of the hybrid index, summed over its sealed segments and memtable.", nil,
		func() float64 { return float64(sys.Store.NumKeys()) })
	return m
}

// countQuery increments the outcome counter for one /search request.
func (m *serverMetrics) countQuery(outcome string) {
	if c, ok := m.queries[outcome]; ok {
		c.Inc()
	}
}

// observeQuery feeds a successful query's timings into the whole-query and
// per-stage histograms.
func (m *serverMetrics) observeQuery(qs *tklus.QueryStats) {
	m.queryHist.Observe(qs.Elapsed.Seconds())
	for _, sp := range qs.Spans {
		if h, ok := m.stageHists[sp.Stage]; ok {
			h.Observe(sp.Duration.Seconds())
		}
	}
}

// observeHTTP records one completed request in the HTTP counters and the
// per-route latency histogram. The status label is created on first use.
func (m *serverMetrics) observeHTTP(route string, status int, d time.Duration) {
	m.reg.Counter("tklus_http_requests_total",
		"HTTP requests by route and status.",
		telemetry.Labels{"route": route, "status": statusLabel(status)}).Inc()
	m.reg.Histogram("tklus_http_request_seconds",
		"HTTP request latency by route.",
		telemetry.Labels{"route": route}, nil).Observe(d.Seconds())
}

// queryOutcomes returns the outcome counters for the /stats reply.
func (m *serverMetrics) queryOutcomes() map[string]int64 {
	out := make(map[string]int64, len(m.queries))
	for o, c := range m.queries {
		out[o] = c.Value()
	}
	return out
}

// stageSummary is one stage's recent-window latency distribution in
// microseconds, as reported by /stats.
type stageSummary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// stageSummaries extracts percentiles from each stage histogram's recent
// samples. Empty histograms yield zero rows (never a panic — see
// stats.SummaryOf).
func (m *serverMetrics) stageSummaries() map[string]stageSummary {
	out := make(map[string]stageSummary, len(m.stageHists)+1)
	put := func(name string, s stats.Summary) {
		const us = 1e6
		out[name] = stageSummary{
			N: s.N, P50: s.P50 * us, P95: s.P95 * us, P99: s.P99 * us, Max: s.Max * us,
		}
	}
	for stage, h := range m.stageHists {
		put(stage, h.Summary())
	}
	put("total", m.queryHist.Summary())
	return out
}

func statusLabel(code int) string {
	// Small fixed set keeps series cardinality bounded.
	switch {
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}
