package bench

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"

	tklus "repro"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {0.1, 1}, {0.01, 1}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile of nothing = %v, want 0", got)
	}
}

// A tail percentile is only as good as the samples beyond it: p99 needs
// 1000 samples to have ten beyond it, and one fewer falls back to p95.
func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.9}, {100, 0.9}, {99, 0.5}, {20, 0.5}, {19, 0}} {
		if got := SupportedTail(c.n); got != c.want {
			t.Errorf("SupportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := SamplesBeyond(1000, 0.99); got != 10 {
		t.Errorf("SamplesBeyond(1000, 0.99) = %d, want 10", got)
	}
}

func TestSameSeedSameRequestStream(t *testing.T) {
	sc := Scales["smoke"]
	stream := func(seed int64) string {
		corpus, err := GenerateCorpus(sc, seed)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := BuildRequests(Workloads[0], corpus, sc, seed)
		if err != nil {
			t.Fatal(err)
		}
		bodies, err := IngestBodies(corpus.Posts[len(corpus.Posts)-120:])
		if err != nil {
			t.Fatal(err)
		}
		return StreamHash(seed, 3, reqs, bodies)
	}
	if a, b := stream(7), stream(7); a != b {
		t.Errorf("seed 7 gave two request streams: %s and %s", a, b)
	}
	if a, b := stream(7), stream(8); a == b {
		t.Errorf("seeds 7 and 8 gave the same request stream %s", a)
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	// root ⊃ handler ⊃ search ⊃ {stage a, stage b}, all sequential.
	spans := []Span{
		{Name: "root", ID: 1, Start: 0, End: 1000},
		{Name: "handler", ID: 2, Parent: 1, Start: 100, End: 900},
		{Name: "search", ID: 3, Parent: 2, Start: 150, End: 850},
		{Name: "a", ID: 4, Parent: 3, Start: 160, End: 400},
		{Name: "b", ID: 5, Parent: 3, Start: 400, End: 800},
	}
	self := SelfTimes(spans)
	var sum int64
	for _, ns := range self {
		sum += ns
	}
	if sum != 1000 {
		t.Errorf("self times sum to %d, want the root's 1000", sum)
	}
	if self[3] != 700-240-400 {
		t.Errorf("search self time = %d, want 60", self[3])
	}

	// Overlapping children (parallel shard calls) are covered once, and a
	// child outliving its parent is clipped to it.
	spans = []Span{
		{Name: "router", ID: 1, Start: 0, End: 100},
		{Name: "shard", ID: 2, Parent: 1, Start: 10, End: 60},
		{Name: "shard", ID: 3, Parent: 1, Start: 20, End: 90},
		{Name: "shard", ID: 4, Parent: 1, Start: 95, End: 120},
	}
	if got := SelfTimes(spans)[1]; got != 100-80-5 {
		t.Errorf("router self time = %d, want 15", got)
	}
}

// fakeClock is a clock that only moves when told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopStampsDueTimes(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	const interval = 25 * time.Millisecond
	// Request 1 stalls for 60 ms; every other takes 1 ms.
	samples := RunOpenLoop(clk, interval, 5, func(i int) {
		if i == 1 {
			clk.Sleep(60 * time.Millisecond)
		} else {
			clk.Sleep(time.Millisecond)
		}
	})
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	want := []struct{ due, sent, latency float64 }{
		{0, 0, 1},
		{25, 25, 60},
		{50, 85, 36}, // sent late, behind the stall: charged from its due time
		{75, 86, 12}, // still catching up
		{100, 100, 1},
	}
	for i, w := range want {
		s := samples[i]
		if ms(s.Due) != w.due || ms(s.Sent) != w.sent || ms(s.Latency()) != w.latency {
			t.Errorf("request %d: due %v sent %v latency %v, want %v %v %v",
				i, ms(s.Due), ms(s.Sent), ms(s.Latency()), w.due, w.sent, w.latency)
		}
	}
	if got := ms(samples[2].Lag()); got != 35 {
		t.Errorf("request 2 lag = %v ms, want 35", got)
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json is what later changes are held to; the tables in spec.go
// are what the harness prints. They must not drift apart.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	sameMetrics := func(kind string, got, want []Metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, spec.go %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, spec.go %+v", kind, i, got[i], want[i])
			}
			if !name.MatchString(want[i].Name) {
				t.Errorf("%s: metric name %q is not a contract name", kind, want[i].Name)
			}
		}
	}
	if b.RunSeconds != RunSeconds || len(b.Paths) != 1 || b.Paths[0] != "internal/bench" {
		t.Errorf("BENCHMARK.json: run_seconds %d paths %v, want %d [internal/bench]", b.RunSeconds, b.Paths, RunSeconds)
	}
	sameMetrics("end_to_end", b.EndToEnd, EndToEnd)
	sameMetrics("per_layer", b.PerLayer, PerLayer)
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, spec.go %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}

// smokeRun runs one workload end to end on the 5k-post corpus, one round
// (the smoke scale's fixed size).
func smokeRun(t *testing.T, w Workload, wrap func(Oracle) Oracle) *Row {
	t.Helper()
	row, _, err := Run(Config{
		Workload: w, Scale: Scales["smoke"], Seed: 3, Trace: true,
		TempDir: t.TempDir(), wrapOracle: wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return row
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			row := smokeRun(t, w, nil)
			if !row.Correct() {
				t.Fatalf("failed %d of %d: %v", row.Failed, row.Attempted, row.Failures)
			}
			// The contract line carries exactly the listed metrics.
			for _, c := range []struct {
				kind string
				got  map[string]Value
				want []Metric
			}{{"end_to_end", row.EndToEnd, EndToEndOf(w.Name)}, {"per_layer", row.PerLayer, PerLayer}} {
				if len(c.got) != len(c.want) {
					t.Errorf("%s: %d metrics reported, %d listed", c.kind, len(c.got), len(c.want))
				}
				for _, m := range c.want {
					v, ok := c.got[m.Name]
					if !ok {
						t.Errorf("%s: %s is listed but not reported", c.kind, m.Name)
					} else if v.Unit != m.Unit {
						t.Errorf("%s: %s reported in %q, listed in %q", c.kind, m.Name, v.Unit, m.Unit)
					}
				}
			}
			if !w.Ingest && len(row.RoundStats) != 1 {
				t.Errorf("%d rounds measured, want the smoke scale's 1", len(row.RoundStats))
			}
			for _, m := range EndToEndOf(w.Name) {
				if row.EndToEnd[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, row.EndToEnd[m.Name].Value)
				}
			}
			layer := func(name string) float64 { return row.PerLayer[name].Value }
			if got := layer("trace.layer_sum_ratio"); got < 0.5 || got > 1.05 {
				t.Errorf("trace.layer_sum_ratio = %v: the named layers do not account for the traced round trip", got)
			}
			switch {
			case w.Sharded:
				if layer("router.fanout") < 1 || layer("router.degraded") != 0 || layer("core.merge_partials_us") <= 0 {
					t.Errorf("router layer: fanout %v degraded %v merge %v us", layer("router.fanout"), layer("router.degraded"), layer("core.merge_partials_us"))
				}
			case w.Ingest:
				if layer("store.seals") < 7 {
					t.Errorf("store.seals = %v, want at least 7", layer("store.seals"))
				}
				// The contract's traced line carries the ingest metrics too.
				for _, m := range IngestEndToEnd {
					if layer(m.Name) != row.EndToEnd[m.Name].Value {
						t.Errorf("%s: per-layer %v, end-to-end %v", m.Name, layer(m.Name), row.EndToEnd[m.Name].Value)
					}
				}
			}
			// prune is sum ranking's stage; max ranking has none.
			if hasPrune := layer("core.prune_us") > 0; hasPrune != (w.Ranking == "sum" && !w.Sharded) {
				t.Errorf("core.prune_us = %v on %s", layer("core.prune_us"), w.Name)
			}
			// The contract line: BENCHMARK.json's per_layer names with the
			// traced pass, its end_to_end names without.
			untraced := *row
			untraced.PerLayer = nil
			for _, c := range []struct {
				row  *Row
				want []Metric
			}{{row, PerLayer}, {&untraced, EndToEnd}} {
				line, err := c.row.DriverLine()
				if err != nil {
					t.Fatal(err)
				}
				var parsed map[string]json.RawMessage
				var metrics struct{ Metrics map[string]Value }
				if err := json.Unmarshal(line, &parsed); err != nil || len(parsed) != 4 {
					t.Errorf("contract line %s: %v, %d keys", line, err, len(parsed))
				}
				if err := json.Unmarshal(line, &metrics); err != nil || len(metrics.Metrics) != len(c.want) {
					t.Errorf("contract line %s: %v, %d metrics, want %d", line, err, len(metrics.Metrics), len(c.want))
				}
				for _, m := range c.want {
					if _, ok := metrics.Metrics[m.Name]; !ok {
						t.Errorf("contract line lacks %s", m.Name)
					}
				}
			}
		})
	}
}

// corruptOracle swaps the score of the first answer it is asked for.
type corruptOracle struct {
	Oracle
	done bool
}

func (c *corruptOracle) Search(q tklus.Query) []tklus.UserResult {
	res := c.Oracle.Search(q)
	if !c.done && len(res) > 0 {
		c.done = true
		res[0].Score += 0.5
	}
	return res
}

// One wrong expected answer must fail the run: the command exits non-zero
// whenever a row is not Correct.
func TestCorruptedExpectedAnswerFailsTheGate(t *testing.T) {
	row := smokeRun(t, Workloads[0], func(or Oracle) Oracle { return &corruptOracle{Oracle: or} })
	if row.Correct() || row.Failed != 1 || row.FailedRatio <= 0 {
		t.Errorf("corrupted oracle: correct %v, failed %d, ratio %v; want exactly one failure", row.Correct(), row.Failed, row.FailedRatio)
	}
	line, err := row.DriverLine()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct{ Correct bool }
	if err := json.Unmarshal(line, &parsed); err != nil || parsed.Correct {
		t.Errorf("contract line reports correct=%v (%v) for a failed run", parsed.Correct, err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	rowOf := func(workload string, p50, qps float64, failed int) Row {
		r := Row{Workload: workload, Attempted: 10, Failed: failed, FailedRatio: float64(failed) / 10, EndToEnd: map[string]Value{}}
		for _, m := range EndToEndOf(workload) {
			r.EndToEnd[m.Name] = Value{Value: 1, Unit: m.Unit}
		}
		r.EndToEnd["search_p50_ms"] = Value{Value: p50, Unit: "ms"}
		r.EndToEnd["search_qps"] = Value{Value: qps, Unit: "1/s"}
		return r
	}
	row := func(p50, qps float64, failed int) Row { return rowOf("city-sum", p50, qps, failed) }
	compare := func(a, b Row) []Comparison { return Compare(&Report{Rows: []Row{a}}, &Report{Rows: []Row{b}}) }
	verdicts := func(a, b Row) map[string]string {
		out := map[string]string{}
		for _, c := range compare(a, b) {
			out[c.Metric] = c.Verdict
		}
		return out
	}
	v := verdicts(row(10, 100, 0), row(13, 70, 0)) // p50 +30%, qps -30%
	if v["search_p50_ms"] != VerdictWorse || v["search_qps"] != VerdictWorse || v["setup_s"] != VerdictOK || v["failed_ratio"] != VerdictOK {
		t.Errorf("regression: %v", v)
	}
	if _, listed := v["ingest_p50_ms"]; listed {
		t.Errorf("city-sum compared on an ingest metric: %v", v)
	}
	v = verdicts(row(10, 100, 0), row(8, 130, 0)) // both better
	if v["search_p50_ms"] != VerdictOK || v["search_qps"] != VerdictOK {
		t.Errorf("improvement: %v", v)
	}

	// Wrong answers where the baseline had none are a regression, whatever
	// the timings say; a failed baseline decides nothing.
	broken := compare(row(10, 100, 0), row(10, 100, 1))
	v = verdicts(row(10, 100, 0), row(10, 100, 1))
	if v["failed_ratio"] != VerdictWorse || v["search_p50_ms"] != VerdictUnresolved {
		t.Errorf("failed run: %v", v)
	}
	if !PrintComparison(io.Discard, broken) {
		t.Errorf("a run that fails its gate against a clean baseline must make -compare exit non-zero")
	}
	v = verdicts(row(10, 100, 1), row(10, 100, 1))
	if v["failed_ratio"] != VerdictUnresolved {
		t.Errorf("failed baseline: %v", v)
	}

	noisy := row(13, 100, 0) // +30 %, but its own rounds differ by more than the bound
	for _, p50 := range []float64{8, 10, 13, 16, 20} {
		noisy.RoundStats = append(noisy.RoundStats, RoundStat{P50Ms: p50, P95Ms: 1, QPS: 1, CPUMs: 1})
	}
	v = verdicts(row(10, 100, 0), noisy)
	if v["search_p50_ms"] != VerdictUnresolved || v["search_p95_ms"] != VerdictOK {
		t.Errorf("noisy run: %v", v)
	}
	for _, c := range Compare(&Report{Rows: []Row{row(10, 100, 0)}}, &Report{}) {
		if c.Verdict != VerdictUnresolved {
			t.Errorf("missing workload: %v", c)
		}
	}

	// ingest-mix rows are held to their own metrics as well.
	slow := rowOf("ingest-mix", 10, 100, 0)
	slow.EndToEnd["ingest_p95_ms"] = Value{Value: 1.5, Unit: "ms"}
	slow.EndToEnd["disk_bytes_per_post"] = Value{Value: 1.03, Unit: "B"}
	v = verdicts(rowOf("ingest-mix", 10, 100, 0), slow)
	if v["ingest_p95_ms"] != VerdictWorse || v["disk_bytes_per_post"] != VerdictWorse || v["ingest_p50_ms"] != VerdictOK || v["recovery_s"] != VerdictOK {
		t.Errorf("ingest regression: %v", v)
	}
}
