package server

import (
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// ServeHTTP implements http.Handler: every request runs through the
// observability middleware (HTTP metrics + one structured access-log line)
// before reaching the route handlers. With a Tracer configured, the
// requests worth following — searches and ingests — get a root span
// carried in the request context, and the trace ID is echoed in the
// X-Trace-Id response header and the access log.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	route := routeOf(r.URL.Path)
	span := s.startTrace(route)
	if span != nil {
		w.Header().Set("X-Trace-Id", span.TraceID().String())
		r = r.WithContext(telemetry.ContextWithSpan(r.Context(), span))
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	span.Finish()
	elapsed := time.Since(start)

	s.metrics.observeHTTP(route, sw.status, elapsed)
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("query", r.URL.RawQuery),
		slog.Int("status", sw.status),
		slog.Int64("bytes", sw.bytes),
		slog.Int64("duration_us", elapsed.Microseconds()),
	}
	if span != nil {
		attrs = append(attrs, slog.String("trace_id", span.TraceID().String()))
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}

// startTrace opens the root span for a traced route, or returns nil (no
// tracer, or a route not worth a trace — probes, scrapes, debug reads).
func (s *Server) startTrace(route string) *telemetry.TraceSpan {
	switch route {
	case "/search", "/v1/search", "/v1/ingest":
		return s.opts.Tracer.StartTrace("server" + route)
	}
	return nil
}

// statusWriter captures the status code and body size a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// routeOf maps a request path onto the fixed route label set, keeping
// metric cardinality bounded no matter what paths clients probe.
func routeOf(path string) string {
	switch path {
	case "/search", "/v1/search", "/v1/ingest",
		"/evidence", "/thread", "/stats", "/metrics", "/healthz", "/readyz":
		return path
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "/debug/pprof"
	}
	if strings.HasPrefix(path, "/debug/traces") {
		return "/debug/traces"
	}
	return "other"
}
