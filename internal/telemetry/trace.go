package telemetry

// Tracing for the serving stack. One trace follows one request end to end
// — across the HTTP front door, the scatter-gather router, every per-shard
// attempt (hedges included), and the engine's pipeline stages — and is
// assembled into a span tree the operator can pull back out of the process
// via /debug/traces/{id}. Every span of a trace lives in one process: the
// router calls its shards in process, so a trace never crosses a wire.
//
// Design constraints, in order:
//
//   - A disabled tracer is free. Every TraceSpan method is nil-safe, and
//     the hot path's only tracing cost when no span rides the context is
//     one ctx.Value lookup returning nil — zero allocations (enforced by
//     TestNilTracingAllocatesNothing).
//   - No third-party dependencies. IDs take the W3C Trace Context sizes
//     (128-bit trace ID, 64-bit span ID).
//   - Tail-based sampling. Every trace is recorded while in flight; the
//     keep/drop decision happens at completion, when the tracer knows
//     whether the trace was slow, errored, hedged, or degraded — exactly
//     the traces worth keeping — and unremarkable traces are retained with
//     a configurable probability so the store also shows the normal case.
//   - Bounded memory. Completed traces land in a fixed-capacity ring
//     buffer; in-flight state lives only as long as its root span.

import (
	"context"
	"encoding/hex"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit trace identifier, hex-encoded in JSON and headers.
type TraceID [16]byte

// SpanID is a 64-bit span identifier, hex-encoded in JSON.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// spanCtxKey carries the active *TraceSpan in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying the span. A nil span returns
// ctx unchanged, so callers can thread un-traced requests for free.
func ContextWithSpan(ctx context.Context, s *TraceSpan) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span riding the context, or nil. The nil
// result is a fully usable no-op span, so callers never need to branch.
func SpanFromContext(ctx context.Context) *TraceSpan {
	s, _ := ctx.Value(spanCtxKey{}).(*TraceSpan)
	return s
}

// Event names with tail-sampling significance: a trace containing any of
// these is always retained (see TracerOptions).
const (
	// EventHedge marks the launch of a backup shard attempt.
	EventHedge = "hedge_launched"
	// EventBreakerOpen marks a sub-query rejected by an open breaker.
	EventBreakerOpen = "breaker_open"
	// EventDegradedShard marks a shard that contributed no results.
	EventDegradedShard = "degraded_shard"
)

// spanEvent is one timestamped annotation on a span.
type spanEvent struct {
	at   time.Time
	name string
	msg  string
}

// TraceSpan is one node of an in-flight trace. The zero of usefulness is
// nil: every method no-ops on a nil receiver, which is how un-instrumented
// and tracing-disabled paths pay nothing.
//
// A span is owned by one goroutine at a time but may be finished while the
// trace completes concurrently (hedged losers outlive the root), so its
// mutable fields sit behind a mutex. The lock is uncontended in every path
// that is not a trace-completion race.
type TraceSpan struct {
	state  *traceState
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu     sync.Mutex
	end    time.Time
	shard  string
	attrs  map[string]string
	events []spanEvent
	errMsg string
	ended  bool
}

// traceState is the shared in-flight accumulator of one trace.
type traceState struct {
	tracer *Tracer
	id     TraceID
	root   *TraceSpan
	start  time.Time

	mu       sync.Mutex
	done     bool
	open     map[*TraceSpan]struct{}
	finished []spanSnap
	hedged   bool
	degraded bool
	errored  bool
	outcome  string
}

// spanSnap is one span's immutable record, absolute-time form; completion
// converts it to the relative-offset wire form.
type spanSnap struct {
	id, parent SpanID
	name       string
	shard      string
	start, end time.Time
	attrs      map[string]string
	events     []spanEvent
	errMsg     string
	unfinished bool
}

// TraceID returns the trace identifier, or the zero ID on a nil span.
func (s *TraceSpan) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.state.id
}

// StartChild opens a child span. Children of a nil span are nil; children
// started after the trace completed are recorded nowhere but still safe to
// use.
func (s *TraceSpan) StartChild(name string) *TraceSpan {
	if s == nil {
		return nil
	}
	child := &TraceSpan{
		state:  s.state,
		id:     newSpanID(),
		parent: s.id,
		name:   name,
		start:  time.Now(),
	}
	st := s.state
	st.mu.Lock()
	if !st.done {
		st.open[child] = struct{}{}
	}
	st.mu.Unlock()
	return child
}

// Fold attaches an already-measured interval as a completed child span —
// how the engine's SpanRecorder stages and the ingest path's accumulated
// WAL time become spans without re-instrumenting those layers.
func (s *TraceSpan) Fold(name string, start time.Time, d time.Duration) {
	if s == nil || d < 0 {
		return
	}
	st := s.state
	snap := spanSnap{
		id:     newSpanID(),
		parent: s.id,
		name:   name,
		start:  start,
		end:    start.Add(d),
	}
	st.mu.Lock()
	if !st.done {
		st.finished = append(st.finished, snap)
	}
	st.mu.Unlock()
}

// FoldStages attaches the engine's per-stage SpanRecorder output as
// completed child spans named "stage.<name>", offset from base (the moment
// the engine started executing the query on the folding process's clock).
func (s *TraceSpan) FoldStages(base time.Time, spans []Span) {
	if s == nil {
		return
	}
	for _, sp := range spans {
		s.Fold("stage."+sp.Stage, base.Add(sp.Start), sp.Duration)
	}
}

// SetShard labels the span with the shard it targeted; the offline
// tklus-stats -traces breakdown groups attempts by this label.
func (s *TraceSpan) SetShard(shard string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.shard = shard
	s.mu.Unlock()
}

// SetAttr attaches one key/value annotation.
func (s *TraceSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Event appends a timestamped annotation. The EventHedge, EventBreakerOpen
// and EventDegradedShard names additionally mark the whole trace for
// unconditional tail retention.
func (s *TraceSpan) Event(name, msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, spanEvent{at: time.Now(), name: name, msg: msg})
	s.mu.Unlock()
	switch name {
	case EventHedge:
		s.state.setFlag(func(st *traceState) { st.hedged = true })
	case EventBreakerOpen, EventDegradedShard:
		s.state.setFlag(func(st *traceState) { st.degraded = true })
	}
}

// SetError records a failure on the span. Client cancellations
// (context.Canceled) mark only the span; any other error also marks the
// trace errored, which forces tail retention.
func (s *TraceSpan) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = err.Error()
	s.mu.Unlock()
	if !errors.Is(err, context.Canceled) {
		s.state.setFlag(func(st *traceState) { st.errored = true })
	}
}

// SetOutcome records the request-level outcome label ("ok", "degraded",
// "error", ...) on the trace; /debug/traces filters by it.
func (s *TraceSpan) SetOutcome(outcome string) {
	if s == nil {
		return
	}
	s.state.setFlag(func(st *traceState) { st.outcome = outcome })
}

func (st *traceState) setFlag(f func(*traceState)) {
	st.mu.Lock()
	f(st)
	st.mu.Unlock()
}

// snapshot captures the span's current record. Callers hold no state lock.
func (s *TraceSpan) snapshot(unfinishedAt time.Time) spanSnap {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := spanSnap{
		id:     s.id,
		parent: s.parent,
		name:   s.name,
		shard:  s.shard,
		start:  s.start,
		end:    s.end,
		attrs:  s.attrs,
		events: s.events,
		errMsg: s.errMsg,
	}
	if !s.ended {
		snap.end = unfinishedAt
		snap.unfinished = true
	}
	return snap
}

// Finish closes the span. Finishing the trace's root span completes the
// trace: every still-open span (a hedged loser, a canceled straggler) is
// snapshotted as unfinished, the span tree is assembled, and the tail
// sampler decides whether the trace enters the store. Finish is idempotent.
func (s *TraceSpan) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = time.Now()
	s.mu.Unlock()

	st := s.state
	snap := s.snapshot(time.Time{})
	st.mu.Lock()
	if st.done {
		st.mu.Unlock()
		return
	}
	delete(st.open, s)
	st.finished = append(st.finished, snap)
	if s != st.root {
		st.mu.Unlock()
		return
	}
	// Root finished: complete the trace. Mark done under the lock, then
	// snapshot the stragglers outside it (span locks must never nest
	// inside the state lock, and vice versa — see Finish above, which
	// snapshots before locking the state).
	st.done = true
	open := make([]*TraceSpan, 0, len(st.open))
	for sp := range st.open {
		open = append(open, sp)
	}
	st.open = nil
	st.mu.Unlock()

	now := time.Now()
	for _, sp := range open {
		st.finished = append(st.finished, sp.snapshot(now))
	}
	st.tracer.complete(st, snap.end)
}

// newSpanID returns a random non-zero span ID.
func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		u := rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(u >> (8 * i))
		}
	}
	return id
}

// newTraceID returns a random non-zero trace ID.
func newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

// TracerOptions tunes a Tracer.
type TracerOptions struct {
	// Capacity is the completed-trace ring buffer size; non-positive
	// selects 256.
	Capacity int
	// SampleRate is the probability an unremarkable trace (fast, clean, no
	// hedges, no degradation) survives tail sampling. Slow, errored,
	// hedged and degraded traces are always kept. 0 keeps only remarkable
	// traces; 1 keeps everything.
	SampleRate float64
	// SlowThreshold marks traces at or above this duration "slow" (always
	// kept). Zero disables the slow criterion.
	SlowThreshold time.Duration
}

// Tracer mints trace roots and owns the tail-sampled trace store. A nil
// *Tracer is a valid disabled tracer: StartTrace returns a nil span and
// the whole instrumented surface no-ops.
type Tracer struct {
	opts  TracerOptions
	store *TraceStore

	started      atomic.Int64
	completed    atomic.Int64
	keptSlow     atomic.Int64
	keptError    atomic.Int64
	keptHedged   atomic.Int64
	keptDegraded atomic.Int64
	keptSampled  atomic.Int64
	sampledOut   atomic.Int64
}

// NewTracer returns an enabled tracer with its own trace store.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	return &Tracer{opts: opts, store: newTraceStore(opts.Capacity)}
}

// Store returns the completed-trace store (nil on a nil tracer).
func (t *Tracer) Store() *TraceStore {
	if t == nil {
		return nil
	}
	return t.store
}

// StartTrace opens a new root span (fresh trace ID). Nil tracer → nil span.
func (t *Tracer) StartTrace(name string) *TraceSpan {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	st := &traceState{
		tracer: t,
		id:     newTraceID(),
		start:  time.Now(),
		open:   make(map[*TraceSpan]struct{}, 8),
	}
	root := &TraceSpan{
		state: st,
		id:    newSpanID(),
		name:  name,
		start: st.start,
	}
	st.root = root
	st.open[root] = struct{}{}
	return root
}

// complete runs tail sampling on a finished trace and stores the keepers.
func (t *Tracer) complete(st *traceState, rootEnd time.Time) {
	t.completed.Add(1)
	duration := rootEnd.Sub(st.start)
	keep := true
	switch {
	case st.errored:
		t.keptError.Add(1)
	case st.degraded:
		t.keptDegraded.Add(1)
	case st.hedged:
		t.keptHedged.Add(1)
	case t.opts.SlowThreshold > 0 && duration >= t.opts.SlowThreshold:
		t.keptSlow.Add(1)
	case t.opts.SampleRate >= 1 || (t.opts.SampleRate > 0 && rand.Float64() < t.opts.SampleRate):
		t.keptSampled.Add(1)
	default:
		t.sampledOut.Add(1)
		keep = false
	}
	if !keep {
		return
	}
	t.store.add(assembleTrace(st, duration))
}

// RegisterMetrics exposes the tracer's tail-sampling counters on a
// registry.
func (t *Tracer) RegisterMetrics(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	read := func(c *atomic.Int64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	reg.CounterFunc("tklus_traces_started_total",
		"Traces opened by this process.", nil, read(&t.started))
	reg.CounterFunc("tklus_traces_completed_total",
		"Traces whose root span finished.", nil, read(&t.completed))
	for _, k := range []struct {
		reason string
		c      *atomic.Int64
	}{
		{"slow", &t.keptSlow}, {"error", &t.keptError},
		{"hedged", &t.keptHedged}, {"degraded", &t.keptDegraded},
		{"sampled", &t.keptSampled},
	} {
		reg.CounterFunc("tklus_traces_kept_total",
			"Completed traces retained by tail sampling, by reason.",
			Labels{"reason": k.reason}, read(k.c))
	}
	reg.CounterFunc("tklus_traces_dropped_total",
		"Completed unremarkable traces dropped by probabilistic sampling.",
		nil, read(&t.sampledOut))
	reg.GaugeFunc("tklus_trace_store_traces",
		"Completed traces currently held by the ring-buffer store.",
		nil, func() float64 { return float64(t.store.Len()) })
}

// assembleTrace converts the in-flight state into the immutable wire form,
// with every timestamp rebased to an offset from the trace start.
func assembleTrace(st *traceState, duration time.Duration) *Trace {
	tr := &Trace{
		TraceID:       st.id.String(),
		Root:          st.root.name,
		StartUnixNano: st.start.UnixNano(),
		DurationUs:    duration.Microseconds(),
		Outcome:       st.outcome,
		Hedged:        st.hedged,
		Degraded:      st.degraded,
		Errored:       st.errored,
	}
	if tr.Outcome == "" {
		if st.errored {
			tr.Outcome = "error"
		} else {
			tr.Outcome = "ok"
		}
	}
	tr.Spans = make([]SpanData, 0, len(st.finished))
	for _, sn := range st.finished {
		sd := SpanData{
			SpanID:     sn.id.String(),
			Name:       sn.name,
			Shard:      sn.shard,
			StartUs:    sn.start.Sub(st.start).Microseconds(),
			DurationUs: sn.end.Sub(sn.start).Microseconds(),
			Error:      sn.errMsg,
			Unfinished: sn.unfinished,
			Attrs:      sn.attrs,
		}
		if !sn.parent.IsZero() {
			sd.ParentID = sn.parent.String()
		}
		for _, ev := range sn.events {
			sd.Events = append(sd.Events, SpanEvent{
				Name: ev.name, Msg: ev.msg,
				OffsetUs: ev.at.Sub(st.start).Microseconds(),
			})
		}
		tr.Spans = append(tr.Spans, sd)
	}
	// First-start order makes the JSON read top-down like the request did.
	for i := 1; i < len(tr.Spans); i++ {
		for j := i; j > 0 && tr.Spans[j].StartUs < tr.Spans[j-1].StartUs; j-- {
			tr.Spans[j], tr.Spans[j-1] = tr.Spans[j-1], tr.Spans[j]
		}
	}
	return tr
}

// SpanEvent is one timestamped annotation in the wire form of a trace.
type SpanEvent struct {
	Name     string `json:"name"`
	Msg      string `json:"msg,omitempty"`
	OffsetUs int64  `json:"t_us"`
}

// SpanData is one span in the wire form of a trace. Offsets are relative
// to the trace's start on the recording process's clock.
type SpanData struct {
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	Shard      string            `json:"shard,omitempty"`
	StartUs    int64             `json:"start_us"`
	DurationUs int64             `json:"us"`
	Error      string            `json:"error,omitempty"`
	Unfinished bool              `json:"unfinished,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Events     []SpanEvent       `json:"events,omitempty"`
}

// Trace is one completed, retained trace: the span tree in first-start
// order plus the trace-level facts tail sampling keyed on. It is the JSON
// schema of /debug/traces/{id} and of tklus-stats -traces input.
type Trace struct {
	TraceID       string     `json:"trace_id"`
	Root          string     `json:"root"`
	StartUnixNano int64      `json:"start_unix_nano"`
	DurationUs    int64      `json:"us"`
	Outcome       string     `json:"outcome"`
	Hedged        bool       `json:"hedged,omitempty"`
	Degraded      bool       `json:"degraded,omitempty"`
	Errored       bool       `json:"errored,omitempty"`
	Spans         []SpanData `json:"spans"`
}

// Summary strips the span tree for the /debug/traces listing.
func (t *Trace) Summary() TraceSummary {
	return TraceSummary{
		TraceID: t.TraceID, Root: t.Root,
		StartUnixNano: t.StartUnixNano, DurationUs: t.DurationUs,
		Outcome: t.Outcome, Hedged: t.Hedged, Degraded: t.Degraded,
		Errored: t.Errored, Spans: len(t.Spans),
	}
}

// TraceSummary is one row of the /debug/traces listing.
type TraceSummary struct {
	TraceID       string `json:"trace_id"`
	Root          string `json:"root"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationUs    int64  `json:"us"`
	Outcome       string `json:"outcome"`
	Hedged        bool   `json:"hedged,omitempty"`
	Degraded      bool   `json:"degraded,omitempty"`
	Errored       bool   `json:"errored,omitempty"`
	Spans         int    `json:"spans"`
}

// TraceFilter selects traces from the store. The zero filter matches
// everything.
type TraceFilter struct {
	// MinDuration drops traces faster than this.
	MinDuration time.Duration
	// Outcome, when non-empty, keeps only traces with this outcome label.
	Outcome string
	// Limit caps the result count (newest first); non-positive means all.
	Limit int
}

func (f *TraceFilter) matches(t *Trace) bool {
	if f.MinDuration > 0 && time.Duration(t.DurationUs)*time.Microsecond < f.MinDuration {
		return false
	}
	if f.Outcome != "" && t.Outcome != f.Outcome {
		return false
	}
	return true
}

// TraceStore is a fixed-capacity ring buffer of completed traces. New
// traces evict the oldest; lookups are by hex trace ID.
type TraceStore struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
	n    int
	byID map[string]*Trace
}

func newTraceStore(capacity int) *TraceStore {
	return &TraceStore{
		buf:  make([]*Trace, capacity),
		byID: make(map[string]*Trace, capacity),
	}
}

func (st *TraceStore) add(t *Trace) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if old := st.buf[st.next]; old != nil {
		delete(st.byID, old.TraceID)
	} else {
		st.n++
	}
	st.buf[st.next] = t
	st.byID[t.TraceID] = t
	st.next = (st.next + 1) % len(st.buf)
}

// Len returns the number of retained traces.
func (st *TraceStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.n
}

// Get returns the trace with the given hex ID, if retained.
func (st *TraceStore) Get(id string) (*Trace, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	t, ok := st.byID[id]
	return t, ok
}

// Recent returns retained traces newest-first, filtered.
func (st *TraceStore) Recent(f TraceFilter) []*Trace {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*Trace, 0, st.n)
	for i := 1; i <= len(st.buf); i++ {
		t := st.buf[(st.next-i+len(st.buf))%len(st.buf)]
		if t == nil || !f.matches(t) {
			continue
		}
		out = append(out, t)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}
