package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	tklus "repro"
	"repro/internal/baseline"
)

// Config is one workload run.
type Config struct {
	Workload Workload
	Scale    Scale
	Seed     int64
	// Seconds, when positive, bounds the measured phase by time: whole
	// rounds are replayed until it has elapsed (ingest-mix: the writer runs
	// for this long). Otherwise the workload's fixed size applies.
	Seconds float64
	// Trace runs the traced pass after the measured phase.
	Trace bool
	// TempDir is where the run's data directories are made ("" = the
	// system default); each is removed before Run returns.
	TempDir string
	// Log receives progress lines; nil discards them.
	Log io.Writer

	// wrapOracle lets a test corrupt the oracle and watch the gate fail.
	wrapOracle func(Oracle) Oracle
}

// run is the state of one workload run.
type run struct {
	cfg   Config
	posts []*tklus.Post // nil while the measured phase runs, see dropCorpus
	total int           // len(posts)
	reqs  []Request
	dir   string
	row   *Row
	layer map[string]float64 // per-layer values, by name
	rec   *Recorder
	sink  *traceSink

	mu sync.Mutex // guards row.Attempted/Failed/Failures
}

// Run executes one workload and returns its row and the traced pass's
// spans. The error is for runs that could not be carried out; a run that
// completed with wrong answers returns a row whose Correct() is false.
func Run(cfg Config) (*Row, []Span, error) {
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	r := &run{
		cfg:   cfg,
		row:   &Row{Workload: cfg.Workload.Name, Why: cfg.Workload.Why, Seed: cfg.Seed, EndToEnd: map[string]Value{}},
		layer: map[string]float64{},
		rec:   NewRecorder(),
		sink:  &traceSink{},
	}
	t0 := time.Now()
	corpus, err := GenerateCorpus(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	r.posts, r.total = corpus.Posts, len(corpus.Posts)
	r.layer["loadgen.corpus_gen_s"] = time.Since(t0).Seconds()
	if r.reqs, err = BuildRequests(cfg.Workload, corpus, cfg.Scale, cfg.Seed); err != nil {
		return nil, nil, err
	}
	if r.dir, err = os.MkdirTemp(cfg.TempDir, "tklus-e2ebench-*"); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(r.dir)

	if cfg.Workload.Ingest {
		err = r.ingestMix()
	} else {
		err = r.readOnly()
	}
	if err != nil {
		return nil, nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	r.setE2E("peak_rss_mb", rss)
	if cfg.Workload.Ingest {
		// Measured in every mode, whether or not the traced pass follows.
		for _, m := range IngestEndToEnd {
			r.row.EndToEnd[m.Name] = Value{Value: r.layer[m.Name], Unit: m.Unit}
		}
	}
	r.row.FailedRatio = ratio(float64(r.row.Failed), float64(r.row.Attempted))
	if cfg.Trace {
		r.row.PerLayer = make(map[string]Value, len(PerLayer))
		for _, m := range PerLayer {
			r.row.PerLayer[m.Name] = Value{Value: r.layer[m.Name], Unit: m.Unit}
		}
	}
	return r.row, r.rec.Spans(), nil
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.cfg.Log, "[%s] "+format+"\n", append([]any{r.cfg.Workload.Name}, args...)...)
}

func (r *run) setE2E(name string, v float64) {
	for _, m := range EndToEnd {
		if m.Name == name {
			r.row.EndToEnd[name] = Value{Value: v, Unit: m.Unit}
			return
		}
	}
	panic("bench: " + name + " is not an end-to-end metric")
}

// dropCorpus lets go of the generated posts once the arrangement is built:
// the program keeps its own copy, and a quarter of a million live posts in
// the harness's heap would be marked by every GC cycle of the measured
// phase and billed to the server. The oracle regenerates them afterwards.
func (r *run) dropCorpus() { r.posts = nil }

func (r *run) regenerateCorpus() error {
	corpus, err := GenerateCorpus(r.cfg.Scale, r.cfg.Seed)
	if err != nil {
		return err
	}
	r.posts = corpus.Posts
	return nil
}

// attempt counts n more requests or checks.
func (r *run) attempt(n int) {
	r.mu.Lock()
	r.row.Attempted += n
	r.mu.Unlock()
}

// fail counts one failed request or check and keeps the first few reasons.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.row.Failed++
	if len(r.row.Failures) < 8 {
		r.row.Failures = append(r.row.Failures, fmt.Sprintf(format, args...))
	}
}

// setups stands the arrangement up Scale.Setups times, keeping the last and
// closing the others, and reports the median duration as setup_s — one
// set-up is too few samples to hold a later change to.
func (r *run) setups(build func(dir string) (*serving, error)) (*serving, error) {
	n := max(r.cfg.Scale.Setups, 1)
	var durations []float64
	for i := 0; ; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("data-%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		sv, err := build(dir)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		durations = append(durations, time.Since(t0).Seconds())
		if len(durations) == n {
			r.setE2E("setup_s", median(durations))
			r.logf("set-up x%d: median %.3fs", n, median(durations))
			return sv, nil
		}
		if err := sv.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		// Return the discarded arrangement's memory before the next build,
		// so peak RSS is one arrangement's and not a GC-timing accident.
		sv = nil
		runtime.GC()
	}
}

// round is one replay of the query set inside the measured phase.
type round struct {
	samples []sample
	wall    time.Duration
	cpu     float64 // process CPU seconds spent while it ran
}

// timedRound brackets one replay with the wall clock and getrusage.
func timedRound(replay func() []sample) (round, error) {
	cpu0, err := cpuSeconds()
	if err != nil {
		return round{}, err
	}
	t0 := time.Now()
	samples := replay()
	wall := time.Since(t0)
	cpu1, err := cpuSeconds()
	return round{samples: samples, wall: wall, cpu: cpu1 - cpu0}, err
}

// phase is the process-level bracket around a measured phase.
type phase struct {
	start time.Time
	mem   runtime.MemStats
}

func beginPhase() *phase {
	p := &phase{}
	runtime.ReadMemStats(&p.mem)
	p.start = time.Now()
	return p
}

// endPhase closes the bracket and reports the search metrics every workload
// has. p50, p95, qps and CPU are each the MEDIAN OVER ROUNDS of the round's
// own figure: every round is the identical request multiset, so rounds are
// comparable, and a burst of interference on this shared box (rounds of one
// run differ by ±15 %) moves a few rounds, not the run's number. p99 is read
// from the pooled samples of all rounds: one round has too few samples
// beyond its p99 (6 of 600) to support one.
func (r *run) endPhase(p *phase, rounds []round) error {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	var pooled []float64
	totalOK := 0
	for _, rd := range rounds {
		// A failed request misses every percentile: it is ranked as if it
		// had taken the whole round.
		ms := make([]float64, len(rd.samples))
		ok := 0
		for i, s := range rd.samples {
			ms[i] = float64(s.ns) / 1e6
			if s.failed {
				ms[i] = rd.wall.Seconds() * 1e3
			} else {
				ok++
			}
		}
		sort.Float64s(ms)
		pooled = append(pooled, ms...)
		totalOK += ok
		if ok == 0 {
			continue
		}
		r.row.RoundStats = append(r.row.RoundStats, RoundStat{
			Seconds: rd.wall.Seconds(),
			P50Ms:   Percentile(ms, 0.50), P95Ms: Percentile(ms, 0.95),
			QPS:   float64(ok) / rd.wall.Seconds(),
			CPUMs: rd.cpu * 1e3 / float64(ok),
		})
	}
	if totalOK == 0 {
		return fmt.Errorf("no search succeeded in the measured phase")
	}
	total := len(pooled)
	sort.Float64s(pooled)
	r.row.SearchSamples = total
	r.row.SupportedTail = SupportedTail(total)
	r.row.BeyondP99 = SamplesBeyond(total, 0.99)
	for metric, column := range roundColumns {
		r.setE2E(metric, median(r.row.column(column)))
	}
	r.setE2E("search_p99_ms", Percentile(pooled, 0.99))
	r.layer["loadgen.samples"] = float64(total)
	r.layer["go.gc_cycles"] = float64(mem.NumGC - p.mem.NumGC)
	r.layer["go.gc_pause_total_ms"] = float64(mem.PauseTotalNs-p.mem.PauseTotalNs) / 1e6
	r.layer["go.heap_inuse_mb"] = float64(mem.HeapInuse) / (1 << 20)
	e := r.row.EndToEnd
	r.logf("measured %d searches in %d rounds, %.2fs: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, %.1f qps (medians over rounds; p99 pooled)",
		total, len(rounds), time.Since(p.start).Seconds(), e["search_p50_ms"].Value, e["search_p95_ms"].Value, e["search_p99_ms"].Value, e["search_qps"].Value)
	for _, rd := range rounds {
		r.countSamples("measured phase", rd.samples)
	}
	return nil
}

// countSamples books a batch of search samples as attempted/failed.
func (r *run) countSamples(what string, samples []sample) {
	r.attempt(len(samples))
	for _, s := range samples {
		if s.failed {
			r.fail("%s: search %d failed (non-200, transport error, degraded or results changed between rounds)", what, s.req)
		}
	}
}

// readOnly runs city-sum, wide-max and sharded-city.
func (r *run) readOnly() (err error) {
	w := r.cfg.Workload
	first := r.reqs[0].Body
	sv, err := r.setups(func(dir string) (*serving, error) {
		if w.Sharded {
			return setupSharded(r.posts, first)
		}
		return setupMono(r.posts, dir, first)
	})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sv.Close()) }()
	r.dropCorpus()

	// Every round must answer each request with byte-identical results:
	// the first reply seen (in the warm-up) is the reference.
	expected := make([][]byte, len(r.reqs))
	check := func(req, status int, body []byte) bool {
		if status != http.StatusOK || bytes.Contains(body, degradedKey) {
			return false
		}
		res, ok := resultsOf(body)
		if !ok {
			return false
		}
		if expected[req] == nil {
			expected[req] = bytes.Clone(res)
			return true
		}
		return bytes.Equal(res, expected[req])
	}

	t0 := time.Now()
	r.countSamples("warm-up", closedRound(sv.client, r.reqs, RoundOrder(r.cfg.Seed, 0, len(r.reqs)), Clients, check))
	r.layer["loadgen.warmup_s"] = time.Since(t0).Seconds()

	// The phase is sized by -seconds (the driver) or by a fixed round count.
	fixed := w.Rounds
	if r.cfg.Scale.Rounds > 0 {
		fixed = r.cfg.Scale.Rounds
	}
	p := beginPhase()
	done := func(rounds int) bool { return rounds >= fixed }
	if r.cfg.Seconds > 0 {
		done = func(int) bool { return time.Since(p.start).Seconds() >= r.cfg.Seconds }
	}
	var rounds []round
	for !done(len(rounds)) {
		order := RoundOrder(r.cfg.Seed, 1+len(rounds), len(r.reqs))
		rd, err := timedRound(func() []sample { return closedRound(sv.client, r.reqs, order, Clients, check) })
		if err != nil {
			return err
		}
		rounds = append(rounds, rd)
	}
	if err := r.endPhase(p, rounds); err != nil {
		return err
	}
	r.row.Ops = r.row.SearchSamples
	r.row.RequestStream = StreamHash(r.cfg.Seed, 1+len(rounds), r.reqs, nil)

	if err := r.regenerateCorpus(); err != nil {
		return err
	}
	oracle := r.newOracle(r.posts)
	if _, err := r.oracleGate(sv.client, oracle, "oracle"); err != nil {
		return err
	}
	if r.cfg.Trace {
		return r.tracedPass(sv, nil)
	}
	return nil
}

func (r *run) newOracle(posts []*tklus.Post) Oracle {
	var or Oracle = baseline.NewScanRanker(posts, servingConfig().Engine.Params)
	if r.cfg.wrapOracle != nil {
		or = r.cfg.wrapOracle(or)
	}
	return or
}

// oracleGate verifies the seeded query sample against the oracle and
// returns the results bytes of each sampled reply.
func (r *run) oracleGate(c *httpClient, or Oracle, what string) (map[int][]byte, error) {
	answers := make(map[int][]byte)
	var buf bytes.Buffer
	for _, i := range oracleSample(r.cfg.Seed, len(r.reqs)) {
		r.attempt(1)
		status, err := c.post("/v1/search", r.reqs[i].Body, "", &buf)
		if err != nil {
			return nil, fmt.Errorf("%s check: %w", what, err)
		}
		if status != http.StatusOK {
			r.fail("%s: query %d: status %d", what, i, status)
			continue
		}
		if err := verifyReply(or, r.reqs[i].Query, buf.Bytes()); err != nil {
			r.fail("%s: query %d: %v", what, i, err)
			continue
		}
		res, _ := resultsOf(buf.Bytes())
		answers[i] = bytes.Clone(res)
	}
	r.logf("%s gate: %d queries checked, %d failures so far", what, len(answers), r.row.Failed)
	return answers, nil
}

// ingestMix runs writes beside reads on the durable arrangement, then
// compaction, the size on disk, and a restart.
func (r *run) ingestMix() (err error) {
	// The writer runs for Seconds (default: 7% of the corpus, the issue's
	// 70k of 1M); a fixed tail of batches is kept for the traced ingest.
	measured := r.total * 7 / 100
	if r.cfg.Seconds > 0 {
		measured = int(r.cfg.Seconds * IngestPostsPerSec)
	}
	measured = max(measured/IngestBatch, 1) * IngestBatch
	live := measured + TracedIngestBatches*IngestBatch
	if live > r.total/2 {
		return fmt.Errorf("ingest-mix: %d live posts need a corpus of at least %d (have %d)", live, 2*live, r.total)
	}
	built := r.total - live // posts the store is built on; the rest arrive live
	livePosts := restem(r.posts[built:])
	bodies, err := IngestBodies(livePosts)
	if err != nil {
		return err
	}
	measuredBodies := bodies[:measured/IngestBatch]
	// Seven or more row-count seals over the run, as at full scale
	// (70k live posts, 10k-row memtable).
	memtableRows := max(live/7, IngestBatch)
	first := r.reqs[0].Body

	var dataDir string
	sv, err := r.setups(func(dir string) (*serving, error) {
		dataDir = dir
		return setupDurable(r.posts[:built], dir, memtableRows, first)
	})
	if err != nil {
		return err
	}
	defer func() {
		if sv != nil {
			err = errors.Join(err, sv.Close())
		}
	}()
	r.layer["store.save_s"] = sv.saveSeconds
	r.dropCorpus()

	// While posts arrive, answers legitimately change between rounds; a
	// search passes on a clean 200.
	check := func(_, status int, _ []byte) bool { return status == http.StatusOK }
	t0 := time.Now()
	r.countSamples("warm-up", closedRound(sv.client, r.reqs, RoundOrder(r.cfg.Seed, 0, len(r.reqs)), Clients, check))
	r.layer["loadgen.warmup_s"] = time.Since(t0).Seconds()

	wal0 := sv.wal.Stats()
	p := beginPhase()
	// Connection 2: the city-sum set, closed loop, until the writer is done.
	// The round cut short by the writer's end is a different multiset from
	// the full ones and is dropped, unless it is all there is.
	var (
		stop      atomic.Bool
		rounds    []round
		searchErr error
		wg        sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for !stop.Load() {
			order := RoundOrder(r.cfg.Seed, 1+len(rounds), len(r.reqs))
			rd, err := timedRound(func() []sample {
				samples := make([]sample, 0, len(order))
				for _, req := range order {
					if stop.Load() {
						break
					}
					t0 := time.Now()
					status, err := sv.client.post("/v1/search", r.reqs[req].Body, "", &buf)
					samples = append(samples, sample{req: req, ns: time.Since(t0).Nanoseconds(), failed: err != nil || !check(req, status, nil)})
				}
				return samples
			})
			if err != nil {
				searchErr = err
				return
			}
			if len(rd.samples) == len(order) || len(rounds) == 0 {
				rounds = append(rounds, rd)
			} else {
				r.countSamples("measured phase (cut round)", rd.samples)
			}
		}
	}()
	// Connection 1: the open-loop writer.
	ingestFailed := make([]bool, len(measuredBodies))
	var ibuf bytes.Buffer
	interval := time.Second * IngestBatch / IngestPostsPerSec
	sent := RunOpenLoop(wallClock{}, interval, len(measuredBodies), func(i int) {
		status, err := sv.client.post("/v1/ingest", measuredBodies[i], "", &ibuf)
		ingestFailed[i] = err != nil || status != http.StatusOK
	})
	stop.Store(true)
	wg.Wait()
	if searchErr != nil {
		return searchErr
	}
	if err := r.endPhase(p, rounds); err != nil {
		return err
	}
	r.attempt(len(sent))
	for i, bad := range ingestFailed {
		if bad {
			r.fail("ingest batch %d failed", i)
		}
	}
	r.row.Ops = r.row.SearchSamples + len(sent)
	r.row.RequestStream = StreamHash(r.cfg.Seed, 1+len(rounds), r.reqs, bodies)
	r.ingestMetrics(sent, ingestFailed, time.Since(p.start))
	wal1 := sv.wal.Stats()
	r.layer["wal.bytes_per_post"] = ratio(float64(wal1.Bytes-wal0.Bytes), float64(wal1.Records-wal0.Records))
	r.layer["wal.fsyncs"] = float64(wal1.Syncs - wal0.Syncs)
	r.layer["wal.rotations"] = float64(wal1.Rotations - wal0.Rotations)

	// The tail of the live posts goes in through the decorated server, in
	// every mode, so the stored state does not depend on -trace.
	if err := r.tracedIngest(sv, bodies[len(measuredBodies):]); err != nil {
		return err
	}

	// Everything is acknowledged now: the oracle ranks the built posts plus
	// the live ones as the store indexed them.
	if err := r.regenerateCorpus(); err != nil {
		return err
	}
	oracle := r.newOracle(append(r.posts[:built:built], livePosts...))
	before, err := r.oracleGate(sv.client, oracle, "oracle after ingest")
	if err != nil {
		return err
	}

	t0 = time.Now()
	if _, err := sv.mono.Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	r.layer["store.compact_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	r.storeState(sv)
	size, err := dirBytes(dataDir)
	if err != nil {
		return err
	}
	r.layer["disk_bytes_per_post"] = float64(size) / float64(sv.mono.DB.Len())

	if r.cfg.Trace {
		if err := r.tracedPass(sv, livePosts); err != nil {
			return err
		}
	}

	// Restart: Close, Load (snapshot + WAL replay), segments, first search.
	err = sv.Close()
	sv = nil
	if err != nil {
		return err
	}
	t0 = time.Now()
	reopened, loadS, segS, err := reopenDurable(dataDir, memtableRows, first)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	sv = reopened
	r.layer["recovery_s"] = time.Since(t0).Seconds()
	r.layer["store.recovery_load_s"] = loadS
	r.layer["store.recovery_segments_s"] = segS
	r.attempt(1)
	if rows := sv.mono.DB.Len(); rows != r.total {
		r.fail("restart: %d rows, want %d", rows, r.total)
	}
	after, err := r.oracleGate(sv.client, oracle, "oracle after restart")
	if err != nil {
		return err
	}
	for i, want := range before {
		r.attempt(1)
		if !bytes.Equal(after[i], want) {
			r.fail("restart: query %d answers differently than before the restart", i)
		}
	}
	r.logf("restart: %.3fs (load %.3fs, segments %.3fs), %d rows", r.layer["recovery_s"], loadS, segS, sv.mono.DB.Len())
	return nil
}

// ingestMetrics reports the writer's latencies (from due time) and how late
// the generator itself ran. A run whose backlog at the end exceeds a second
// did not offer the stated rate and is invalid.
func (r *run) ingestMetrics(sent []OpenSample, failed []bool, wall time.Duration) {
	lat := make([]float64, len(sent))
	lag := make([]float64, len(sent))
	stall := 0.0
	for i, s := range sent {
		lat[i] = float64(s.Latency().Nanoseconds()) / 1e6
		if failed[i] {
			lat[i] = wall.Seconds() * 1e3
		}
		lag[i] = float64(s.Lag().Nanoseconds()) / 1e6
		stall = max(stall, float64(s.Service().Nanoseconds())/1e6)
	}
	sort.Float64s(lat)
	sort.Float64s(lag)
	r.layer["ingest_p50_ms"] = Percentile(lat, 0.50)
	r.layer["ingest_p95_ms"] = Percentile(lat, 0.95)
	r.layer["store.ingest_stall_max_ms"] = stall
	r.layer["loadgen.lag_p95_ms"] = Percentile(lag, 0.95)
	r.attempt(1)
	if backlog := sent[len(sent)-1].Lag(); backlog > time.Second {
		r.fail("open-loop writer ended %.2fs behind schedule: the run did not offer %d posts/s", backlog.Seconds(), IngestPostsPerSec)
	}
	r.logf("ingested %d batches: p50 %.3f ms, p95 %.3f ms from due time; generator lag p95 %.3f ms",
		len(sent), r.layer["ingest_p50_ms"], r.layer["ingest_p95_ms"], r.layer["loadgen.lag_p95_ms"])
}
