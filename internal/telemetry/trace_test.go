package telemetry

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1})
	root := tr.StartTrace("server")
	sc := root.Context()
	if sc.TraceID.IsZero() || sc.SpanID.IsZero() || !sc.Sampled {
		t.Fatalf("root context incomplete: %+v", sc)
	}
	hdr := sc.Traceparent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("malformed traceparent %q", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent rejected own output %q", hdr)
	}
	if got != sc {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, sc)
	}
	root.Finish()
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-abc-def-01",
		"00-" + strings.Repeat("0", 32) + "-1234567890abcdef-01", // zero trace ID
		"00-" + strings.Repeat("a", 32) + "-0000000000000000-01", // zero span ID
		"00-" + strings.Repeat("g", 32) + "-1234567890abcdef-01", // non-hex
		"00+" + strings.Repeat("a", 32) + "-1234567890abcdef-01", // wrong separator
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent accepted %q", s)
		}
	}
	// Unknown version bytes parse (forward compatibility).
	good := "cc-" + strings.Repeat("a", 32) + "-1234567890abcdef-00"
	sc, ok := ParseTraceparent(good)
	if !ok {
		t.Fatalf("ParseTraceparent rejected future version %q", good)
	}
	if sc.Sampled {
		t.Fatal("flags 00 parsed as sampled")
	}
}

func TestContextCarriage(t *testing.T) {
	if s := SpanFromContext(context.Background()); s != nil {
		t.Fatalf("empty context produced span %v", s)
	}
	tr := NewTracer(TracerOptions{SampleRate: 1})
	root := tr.StartTrace("server")
	ctx := ContextWithSpan(context.Background(), root)
	if got := SpanFromContext(ctx); got != root {
		t.Fatalf("SpanFromContext = %v, want root", got)
	}
	if ctx2 := ContextWithSpan(context.Background(), nil); SpanFromContext(ctx2) != nil {
		t.Fatal("nil span should not be carried")
	}
	root.Finish()
}

// TestSpanTreeAssembly drives the full shape the server produces — root →
// router → attempt spans with a hedged sibling and folded engine stages —
// and checks the stored trace's structure, flags, and ordering.
func TestSpanTreeAssembly(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 0}) // hedged flag must retain it
	root := tr.StartTrace("server.search")
	router := root.StartChild("router")
	a1 := router.StartChild("shard.attempt")
	a1.SetShard("shard-0")
	a1.FoldStages(a1.start, []Span{
		{Stage: StageCellCover, Start: 0, Duration: time.Millisecond},
		{Stage: StageRank, Start: 2 * time.Millisecond, Duration: 3 * time.Millisecond},
	})
	a1.Finish()

	// Hedged pair: primary never finishes (loser), backup wins.
	primary := router.StartChild("shard.attempt")
	primary.SetShard("shard-1")
	router.Event(EventHedge, "shard-1")
	backup := router.StartChild("shard.attempt")
	backup.SetShard("shard-1")
	backup.SetAttr("hedge", "backup")
	backup.Finish()

	dead := router.StartChild("shard.attempt")
	dead.SetShard("shard-2")
	dead.SetError(errors.New("connection refused"))
	dead.Finish()
	router.Event(EventDegradedShard, "shard-2")

	router.Finish()
	root.SetOutcome("degraded")
	root.Finish()

	// Late finish of the hedge loser must be a harmless no-op.
	primary.Finish()

	got, ok := tr.Store().Get(root.TraceID().String())
	if !ok {
		t.Fatal("completed trace not retained")
	}
	if !got.Hedged || !got.Degraded || !got.Errored {
		t.Fatalf("flags = hedged:%v degraded:%v errored:%v, want all true",
			got.Hedged, got.Degraded, got.Errored)
	}
	if got.Outcome != "degraded" {
		t.Fatalf("outcome = %q, want degraded", got.Outcome)
	}
	// root + router + 4 attempts + 2 folded stages.
	if len(got.Spans) != 8 {
		t.Fatalf("span count = %d, want 8: %+v", len(got.Spans), got.Spans)
	}
	byID := map[string]SpanData{}
	var stage, unfinished, attempts int
	for _, sd := range got.Spans {
		byID[sd.SpanID] = sd
		if strings.HasPrefix(sd.Name, "stage.") {
			stage++
		}
		if sd.Unfinished {
			unfinished++
		}
		if sd.Name == "shard.attempt" {
			attempts++
		}
	}
	if stage != 2 || attempts != 4 || unfinished != 1 {
		t.Fatalf("stage=%d attempts=%d unfinished=%d, want 2/4/1", stage, attempts, unfinished)
	}
	// Parent links: every non-root span's parent must resolve locally, and
	// the stage spans must hang off the attempt that folded them.
	var rootID string
	for _, sd := range got.Spans {
		if sd.ParentID == "" {
			rootID = sd.SpanID
			continue
		}
		if _, ok := byID[sd.ParentID]; !ok {
			t.Fatalf("span %s has dangling parent %s", sd.Name, sd.ParentID)
		}
	}
	if byID[rootID].Name != "server.search" {
		t.Fatalf("root span is %q", byID[rootID].Name)
	}
	for i := 1; i < len(got.Spans); i++ {
		if got.Spans[i].StartUs < got.Spans[i-1].StartUs {
			t.Fatal("spans not in first-start order")
		}
	}
	// Router events carried through with the trace-relative offsets.
	for _, sd := range got.Spans {
		if sd.Name == "router" {
			if len(sd.Events) != 2 {
				t.Fatalf("router events = %+v, want hedge + degraded", sd.Events)
			}
		}
	}
}

func TestRemoteChildSharesTraceID(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1})
	remote := NewTracer(TracerOptions{SampleRate: 1})

	root := tr.StartTrace("server.search")
	attempt := root.StartChild("shard.attempt")
	sc := attempt.Context()

	shardRoot := remote.StartRemoteChild("shard.search", sc)
	if shardRoot.TraceID() != root.TraceID() {
		t.Fatal("remote child has a different trace ID")
	}
	shardRoot.Finish()
	attempt.Finish()
	root.Finish()

	st, ok := remote.Store().Get(root.TraceID().String())
	if !ok {
		t.Fatal("shard half not retained in remote store")
	}
	if !st.Remote {
		t.Fatal("shard half not marked remote")
	}
	if st.Spans[0].ParentID != sc.SpanID.String() {
		t.Fatalf("shard root parent = %q, want caller span %q",
			st.Spans[0].ParentID, sc.SpanID.String())
	}
	// A garbage parent context degrades to a fresh local trace.
	fresh := remote.StartRemoteChild("shard.search", SpanContext{})
	if fresh.TraceID().IsZero() || fresh.TraceID() == root.TraceID() {
		t.Fatal("zero parent should mint a fresh trace")
	}
	fresh.Finish()
}

func TestTailSamplingPolicy(t *testing.T) {
	run := func(tr *Tracer, f func(root *TraceSpan)) string {
		root := tr.StartTrace("q")
		f(root)
		id := root.TraceID().String()
		root.Finish()
		return id
	}
	tr := NewTracer(TracerOptions{SampleRate: 0, SlowThreshold: time.Hour})

	if id := run(tr, func(*TraceSpan) {}); tr.Store().Len() != 0 {
		t.Fatalf("unremarkable trace %s retained at SampleRate 0", id)
	}
	if tr.sampledOut.Load() != 1 {
		t.Fatalf("sampledOut = %d, want 1", tr.sampledOut.Load())
	}
	id := run(tr, func(r *TraceSpan) { r.SetError(errors.New("boom")) })
	if _, ok := tr.Store().Get(id); !ok {
		t.Fatal("errored trace dropped")
	}
	id = run(tr, func(r *TraceSpan) { r.Event(EventHedge, "") })
	if _, ok := tr.Store().Get(id); !ok {
		t.Fatal("hedged trace dropped")
	}
	id = run(tr, func(r *TraceSpan) { r.Event(EventBreakerOpen, "") })
	if _, ok := tr.Store().Get(id); !ok {
		t.Fatal("breaker-tripped trace dropped")
	}
	// Client cancellation is not an error for retention purposes.
	id = run(tr, func(r *TraceSpan) { r.SetError(context.Canceled) })
	if _, ok := tr.Store().Get(id); ok {
		t.Fatal("canceled trace retained despite SampleRate 0")
	}

	slow := NewTracer(TracerOptions{SampleRate: 0, SlowThreshold: time.Nanosecond})
	id = run(slow, func(*TraceSpan) { time.Sleep(time.Microsecond) })
	if _, ok := slow.Store().Get(id); !ok {
		t.Fatal("slow trace dropped")
	}

	all := NewTracer(TracerOptions{SampleRate: 1})
	id = run(all, func(*TraceSpan) {})
	if _, ok := all.Store().Get(id); !ok {
		t.Fatal("SampleRate 1 dropped a trace")
	}
}

func TestTraceStoreRingEviction(t *testing.T) {
	tr := NewTracer(TracerOptions{Capacity: 4, SampleRate: 1})
	ids := make([]string, 10)
	for i := range ids {
		root := tr.StartTrace(fmt.Sprintf("q%d", i))
		ids[i] = root.TraceID().String()
		root.Finish()
	}
	if got := tr.Store().Len(); got != 4 {
		t.Fatalf("store len = %d, want 4", got)
	}
	for _, id := range ids[:6] {
		if _, ok := tr.Store().Get(id); ok {
			t.Fatalf("evicted trace %s still resolvable", id)
		}
	}
	for _, id := range ids[6:] {
		if _, ok := tr.Store().Get(id); !ok {
			t.Fatalf("recent trace %s lost", id)
		}
	}
	recent := tr.Store().Recent(TraceFilter{})
	if len(recent) != 4 {
		t.Fatalf("Recent returned %d traces, want 4", len(recent))
	}
	for i, tr := range recent {
		if want := ids[9-i]; tr.TraceID != want {
			t.Fatalf("Recent[%d] = %s, want %s (newest first)", i, tr.TraceID, want)
		}
	}
	if got := tr.Store().Recent(TraceFilter{Limit: 2}); len(got) != 2 {
		t.Fatalf("Limit 2 returned %d", len(got))
	}
}

func TestTraceStoreFilters(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1})
	fast := tr.StartTrace("fast")
	fast.SetOutcome("ok")
	fast.Finish()
	slow := tr.StartTrace("slow")
	slow.SetOutcome("degraded")
	time.Sleep(2 * time.Millisecond)
	slow.Finish()

	got := tr.Store().Recent(TraceFilter{MinDuration: time.Millisecond})
	if len(got) != 1 || got[0].Root != "slow" {
		t.Fatalf("MinDuration filter returned %+v", got)
	}
	got = tr.Store().Recent(TraceFilter{Outcome: "degraded"})
	if len(got) != 1 || got[0].Root != "slow" {
		t.Fatalf("Outcome filter returned %+v", got)
	}
	if got = tr.Store().Recent(TraceFilter{Outcome: "error"}); len(got) != 0 {
		t.Fatalf("Outcome=error returned %+v", got)
	}
}

// TestNilTracingIsSafe exercises every exported entry point on the
// disabled (nil) tracer and span — the contract the hot path relies on.
func TestNilTracingIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Store() != nil {
		t.Fatal("nil tracer store not nil")
	}
	tr.RegisterMetrics(NewRegistry())
	root := tr.StartTrace("q")
	if root != nil {
		t.Fatal("nil tracer minted a span")
	}
	if s := tr.StartRemoteChild("q", SpanContext{}); s != nil {
		t.Fatal("nil tracer minted a remote child")
	}
	child := root.StartChild("c")
	if child != nil {
		t.Fatal("nil span minted a child")
	}
	child.SetShard("s")
	child.SetAttr("k", "v")
	child.Event(EventHedge, "")
	child.SetError(errors.New("x"))
	child.SetOutcome("ok")
	child.Fold("f", time.Now(), time.Second)
	child.FoldStages(time.Now(), []Span{{Stage: StageRank, Duration: time.Second}})
	child.Finish()
	if sc := child.Context(); sc != (SpanContext{}) {
		t.Fatalf("nil span context = %+v", sc)
	}
	if !child.TraceID().IsZero() {
		t.Fatal("nil span trace ID not zero")
	}
}

// TestNilTracingAllocatesNothing enforces the overhead contract: with
// tracing disabled, the per-request tracing surface — context lookup plus
// every span method the hot path calls — performs zero allocations.
func TestNilTracingAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	stages := []Span{{Stage: StageRank, Duration: time.Millisecond}}
	now := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := SpanFromContext(ctx)
		child := sp.StartChild("router")
		child.SetShard("shard-0")
		child.Event(EventHedge, "")
		child.FoldStages(now, stages)
		child.SetError(nil)
		child.Finish()
		sp.Finish()
		_ = ContextWithSpan(ctx, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per op, want 0", allocs)
	}
}

// --- SpanRecorder satellite coverage ---------------------------------------

// TestSpanRecorderInterleavedSlices pins the accumulation semantics:
// repeated Observe calls on one stage fold into a single span keeping the
// first slice's start offset, and Total reads the accumulated duration back.
func TestSpanRecorderInterleavedSlices(t *testing.T) {
	rec := NewSpanRecorder()
	base := rec.t0

	rec.Observe(StageCandidateFilter, base.Add(10*time.Millisecond), 2*time.Millisecond)
	rec.Observe(StageCandidateFilter, base.Add(20*time.Millisecond), 3*time.Millisecond)
	rec.Observe(StageCandidateFilter, base.Add(30*time.Millisecond), 5*time.Millisecond)

	if got, want := rec.Total(StageCandidateFilter), 10*time.Millisecond; got != want {
		t.Fatalf("Total = %v, want %v", got, want)
	}
	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("interleaved slices produced %d spans, want 1", len(spans))
	}
	if spans[0].Start != 10*time.Millisecond {
		t.Fatalf("span start = %v, want first slice offset 10ms", spans[0].Start)
	}
	if spans[0].Duration != 10*time.Millisecond {
		t.Fatalf("span duration = %v, want accumulated 10ms", spans[0].Duration)
	}

	// A stage timed as an enclosing elapsed time minus another stage's
	// accumulated slices.
	rankElapsed := 25 * time.Millisecond
	rec.Observe(StageRank, base.Add(5*time.Millisecond), rankElapsed-rec.Total(StageCandidateFilter))
	if got, want := rec.Total(StageRank), 15*time.Millisecond; got != want {
		t.Fatalf("rank total = %v, want %v", got, want)
	}

	// Spans stay in first-start order regardless of observation order, and
	// the returned slice is a clone the caller can't corrupt.
	spans = rec.Spans()
	if len(spans) != 2 || spans[0].Stage != StageCandidateFilter || spans[1].Stage != StageRank {
		t.Fatalf("spans = %+v, want candidate_filter then rank_topk", spans)
	}
	spans[0].Duration = 0
	if rec.Total(StageCandidateFilter) != 10*time.Millisecond {
		t.Fatal("Spans() exposed internal state by reference")
	}

	if rec.Total("never_started") != 0 {
		t.Fatal("unknown stage Total != 0")
	}
}

func TestSpanRecorderStartStop(t *testing.T) {
	rec := NewSpanRecorder()
	stop := rec.Start(StageCellCover)
	time.Sleep(time.Millisecond)
	stop()
	if rec.Total(StageCellCover) <= 0 {
		t.Fatal("Start/stop recorded no duration")
	}
	if n := len(rec.Spans()); n != 1 {
		t.Fatalf("got %d spans, want 1", n)
	}
}

func TestSpanRecorderNilIsNoOp(t *testing.T) {
	var rec *SpanRecorder
	rec.Start(StageRank)() // stop func from a nil recorder must be callable
	rec.Observe(StageRank, time.Now(), time.Second)
	if rec.Total(StageRank) != 0 {
		t.Fatal("nil recorder accumulated time")
	}
	if rec.Spans() != nil {
		t.Fatal("nil recorder returned spans")
	}
	allocs := testing.AllocsPerRun(100, func() {
		rec.Observe(StageRank, time.Time{}, time.Second)
		_ = rec.Total(StageRank)
		_ = rec.Spans()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocates %.1f per op, want 0", allocs)
	}
}
