package telemetry

import (
	"slices"
	"time"
)

// Canonical stage names of the query pipeline, in execution order. The
// engine records one span per stage; the server feeds them into the
// per-stage latency histograms under these label values.
const (
	StageCellCover       = "cell_cover"       // circle cover computation
	StagePostingsFetch   = "postings_fetch"   // ⟨cell,term⟩ postings retrieval
	StageCandidateFilter = "candidate_filter" // AND/OR merge + radius/window filter
	StageRank            = "rank_topk"        // user table, per-candidate scores, top-k
)

// QueryStages lists the pipeline stages in execution order, for stable
// iteration when pre-registering histograms or rendering tables.
var QueryStages = []string{StageCellCover, StagePostingsFetch, StageCandidateFilter, StageRank}

// Span is one named, timed stage of a query. Start is the offset from the
// query's begin time; a stage observed in several slices accumulates every
// slice's Duration, and Start is the offset of the first slice.
type Span struct {
	Stage    string
	Start    time.Duration
	Duration time.Duration
}

// SpanRecorder accumulates stage spans for a single query. It is not
// safe for concurrent use — one query runs on one goroutine — and a nil
// recorder is a valid no-op, so un-instrumented callers pass nil for free.
type SpanRecorder struct {
	t0    time.Time
	index map[string]int
	spans []Span
}

// NewSpanRecorder starts a recorder; spans report offsets relative to now.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{t0: time.Now(), index: make(map[string]int)}
}

// Start begins timing a stage slice and returns the function that stops it.
// Typical use: defer rec.Start(StageRank)() — or capture the stop function
// when the slice doesn't span the whole enclosing function.
func (r *SpanRecorder) Start(stage string) (stop func()) {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() { r.Observe(stage, start, time.Since(start)) }
}

// Observe folds one timed slice into the stage's span.
func (r *SpanRecorder) Observe(stage string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	if i, ok := r.index[stage]; ok {
		r.spans[i].Duration += d
		return
	}
	r.index[stage] = len(r.spans)
	r.spans = append(r.spans, Span{Stage: stage, Start: start.Sub(r.t0), Duration: d})
}

// Total returns the accumulated duration of a stage (0 if never started).
func (r *SpanRecorder) Total(stage string) time.Duration {
	if r == nil {
		return 0
	}
	if i, ok := r.index[stage]; ok {
		return r.spans[i].Duration
	}
	return 0
}

// Spans returns the recorded spans in first-start order.
func (r *SpanRecorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return slices.Clone(r.spans)
}
