package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("q_total", "queries", Labels{"outcome": "ok"})
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same counter.
	if reg.Counter("q_total", "queries", Labels{"outcome": "ok"}) != c {
		t.Error("get-or-create returned a different counter")
	}
	// Different labels are a different series.
	if reg.Counter("q_total", "queries", Labels{"outcome": "error"}) == c {
		t.Error("different labels shared a counter")
	}

	g := reg.Gauge("rows", "row count", nil)
	g.Set(10)
	g.Add(2.5)
	if got := g.Value(); got != 12.5 {
		t.Errorf("gauge = %v, want 12.5", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("m", "", nil)
}

func TestHistogramObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "latency", nil, []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	buckets, sum, count := h.Snapshot()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if math.Abs(sum-5.565) > 1e-9 {
		t.Errorf("sum = %v, want 5.565", sum)
	}
	// le is inclusive: 0.01 lands in the 0.01 bucket.
	wantCum := []int64{2, 3, 4, 5}
	for i, b := range buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d (le=%v) = %d, want %d", i, b.UpperBound, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(buckets[3].UpperBound, 1) {
		t.Errorf("last bucket bound = %v, want +Inf", buckets[3].UpperBound)
	}
}

// TestEmptyHistogramSummary covers the serving-path guarantee: an empty
// histogram summarizes to zeros instead of the panic stats.Percentile
// raises on empty samples.
func TestEmptyHistogramSummary(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "latency", nil, nil)
	sum := h.Summary()
	if sum.N != 0 || sum.P50 != 0 || sum.P95 != 0 || sum.P99 != 0 || sum.Mean != 0 {
		t.Errorf("empty histogram summary = %+v, want zeros", sum)
	}
	// And the exposition renders zero-count buckets, not garbage.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "lat_count 0") {
		t.Errorf("exposition missing zero count:\n%s", b.String())
	}
}

func TestHistogramSummaryPercentiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "", nil, nil)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Summary()
	if s.N != 100 {
		t.Fatalf("N = %d, want 100", s.N)
	}
	if s.P50 < 49 || s.P50 > 52 {
		t.Errorf("p50 = %v, want ≈50.5", s.P50)
	}
	if s.P99 < 98 || s.P99 > 100 {
		t.Errorf("p99 = %v, want ≈99", s.P99)
	}
	if s.Min != 1 || s.Max != 100 {
		t.Errorf("min/max = %v/%v, want 1/100", s.Min, s.Max)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("tk_queries_total", "Queries by outcome.", Labels{"outcome": "ok"}).Add(3)
	reg.Gauge("tk_rows", "Rows loaded.", nil).Set(42)
	reg.CounterFunc("tk_fetches_total", "Postings fetches.", nil, func() float64 { return 7 })
	h := reg.Histogram("tk_query_seconds", "Query latency.", Labels{"stage": "rank_topk"}, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP tk_queries_total Queries by outcome.",
		"# TYPE tk_queries_total counter",
		`tk_queries_total{outcome="ok"} 3`,
		"# TYPE tk_rows gauge",
		"tk_rows 42",
		"tk_fetches_total 7",
		"# TYPE tk_query_seconds histogram",
		`tk_query_seconds_bucket{stage="rank_topk",le="0.1"} 1`,
		`tk_query_seconds_bucket{stage="rank_topk",le="1"} 2`,
		`tk_query_seconds_bucket{stage="rank_topk",le="+Inf"} 2`,
		`tk_query_seconds_sum{stage="rank_topk"} 0.55`,
		`tk_query_seconds_count{stage="rank_topk"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentRegistry hammers one registry from many goroutines mixing
// registration, observation, and scraping — the pattern a live server sees.
// Run under -race.
func TestConcurrentRegistry(t *testing.T) {
	reg := NewRegistry()
	outcomes := []string{"ok", "error", "canceled", "bad_request"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				reg.Counter("q_total", "", Labels{"outcome": outcomes[(g+i)%len(outcomes)]}).Inc()
				reg.Histogram("lat", "", Labels{"stage": QueryStages[i%len(QueryStages)]}, nil).
					Observe(float64(i) / 1e5)
				if i%100 == 0 {
					var b strings.Builder
					if err := reg.WritePrometheus(&b); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, o := range outcomes {
		total += reg.Counter("q_total", "", Labels{"outcome": o}).Value()
	}
	if total != 8*500 {
		t.Errorf("total = %d, want %d", total, 8*500)
	}
}

func TestSpanRecorder(t *testing.T) {
	rec := NewSpanRecorder()
	stop := rec.Start(StageCellCover)
	time.Sleep(time.Millisecond)
	stop()
	// Interleaved slices accumulate into one span.
	for i := 0; i < 3; i++ {
		stop := rec.Start(StageCandidateFilter)
		time.Sleep(time.Millisecond)
		stop()
	}
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %v, want 2 entries", spans)
	}
	if spans[0].Stage != StageCellCover || spans[1].Stage != StageCandidateFilter {
		t.Errorf("stage order = %v", spans)
	}
	if spans[1].Duration < 3*time.Millisecond {
		t.Errorf("accumulated duration = %v, want ≥ 3ms", spans[1].Duration)
	}
	if rec.Total(StageCandidateFilter) != spans[1].Duration {
		t.Errorf("Total mismatch: %v vs %v", rec.Total(StageCandidateFilter), spans[1].Duration)
	}
	if rec.Total("missing") != 0 {
		t.Error("Total of unknown stage != 0")
	}
}

func TestNilSpanRecorder(t *testing.T) {
	var rec *SpanRecorder
	rec.Start("x")() // must not panic
	rec.Observe("x", time.Now(), time.Second)
	if rec.Spans() != nil || rec.Total("x") != 0 {
		t.Error("nil recorder not a no-op")
	}
}
