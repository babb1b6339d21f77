// Package bench is the repository's end-to-end benchmark: it builds a
// seeded corpus, stands the real internal/server handler up on a loopback
// listener in-process, drives it over HTTP, checks the answers against the
// exhaustive oracle, and reports end-to-end metrics (traced pass off) plus a
// per-layer breakdown (traced pass). README.md in this directory is the
// manual; BENCHMARK.json at the repository root is the contract later
// changes are held to, and a test keeps it equal to the tables in this file.
package bench

import "fmt"

// Metric is one reported metric. Bound is the share of the baseline median
// by which an end-to-end metric may worsen before a change is a regression;
// per-layer metrics carry no bound.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd lists the metrics every workload reports with the traced pass
// off; BENCHMARK.json's end_to_end is this list. cpu_ms_per_search on
// ingest-mix includes the ingest riding beside the searches; that is the
// point of the workload.
//
// The time-based bounds are the contract's maximum, not a wish: runs of one
// commit on the shared 2-core sandbox spread (interquartile ÷ median) by
// 0.03–0.13 on every time-based metric in a quiet quarter of an hour, up to
// 0.24 in a noisy one, and all of them move together — the box's CPU speed
// is what varies, minutes at a time. A tighter bound would call noise a
// regression.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"search_p50_ms", "ms", "lower", 0.25},
	{"search_p95_ms", "ms", "lower", 0.25},
	{"search_p99_ms", "ms", "lower", 0.25},
	{"search_qps", "1/s", "higher", 0.25},
	{"cpu_ms_per_search", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// IngestEndToEnd lists the end-to-end metrics only ingest-mix has. They are
// measured with the traced pass off like the ones above, reported in every
// ingest-mix row, and held to these bounds by -compare. BENCHMARK.json
// cannot list them as end_to_end (the contract wants each of those on every
// workload and never 0), so it carries them at the head of per_layer.
//
// disk_bytes_per_post keeps the issue's 2 %: it repeats exactly for a seed
// and to 0.1 % across seeds. The three times get the 25 % every other time
// has, not the issue's 10–15 %: two sets of ten seeds on this box spread
// ingest_p50_ms by 0.05 and 0.11, recovery_s by 0.13 both times, and
// ingest_p95_ms by 0.19 and 0.60 — a stall that outlasts a few 25 ms slots
// backs up more than 5 % of the batches, and 2 runs in 20 had one.
var IngestEndToEnd = []Metric{
	{"ingest_p50_ms", "ms", "lower", 0.25},
	{"ingest_p95_ms", "ms", "lower", 0.25},
	{"disk_bytes_per_post", "B", "lower", 0.02},
	{"recovery_s", "s", "lower", 0.25},
}

// FailedRatio is failed ÷ attempted. Its bound is absolute: any failure in
// a run whose baseline had none is a regression. The contract line carries
// it as failed/attempted/correct, since a listed metric may never read 0.
var FailedRatio = Metric{"failed_ratio", "ratio", "lower", 0}

// EndToEndOf lists the end-to-end metrics of one workload's rows.
func EndToEndOf(workload string) []Metric {
	if w, err := WorkloadByName(workload); err == nil && w.Ingest {
		return append(EndToEnd[:len(EndToEnd):len(EndToEnd)], IngestEndToEnd...)
	}
	return EndToEnd
}

// RunSeconds is the measured phase the contract runs (BENCHMARK.json's
// run_seconds): about 17 rounds of city-sum at bench scale.
const RunSeconds = 15

// PerLayer is BENCHMARK.json's per_layer: ingest-mix's own end-to-end
// metrics (see IngestEndToEnd), then the traced-pass metrics in layer order.
// A metric that does not apply to a workload (router.* on the monolith,
// wal.* on a read-only run) reads 0 there.
var PerLayer = append(unbounded(IngestEndToEnd), layerMetrics...)

// unbounded strips the bounds: per-layer metrics carry none.
func unbounded(ms []Metric) []Metric {
	out := make([]Metric, len(ms))
	for i, m := range ms {
		out[i] = Metric{m.Name, m.Unit, m.Better, 0}
	}
	return out
}

var layerMetrics = []Metric{
	{"server.http_us", "us", "lower", 0},
	{"server.wire_us", "us", "lower", 0},
	{"server.resp_bytes", "B", "lower", 0},
	{"server.ingest_decode_us", "us", "lower", 0},

	{"store.search_us", "us", "lower", 0},
	{"store.self_us", "us", "lower", 0},
	{"store.ingest_us_per_post", "us", "lower", 0},
	{"store.ingest_stall_max_ms", "ms", "lower", 0},
	{"store.seals", "count", "lower", 0},
	{"store.compactions", "count", "lower", 0},
	{"store.segments", "count", "lower", 0},
	{"store.mmap_bytes", "B", "lower", 0},
	{"store.memtable_rows", "count", "lower", 0},
	{"store.compact_ms", "ms", "lower", 0},
	{"store.save_s", "s", "lower", 0},
	{"store.recovery_load_s", "s", "lower", 0},
	{"store.recovery_segments_s", "s", "lower", 0},

	{"segment.fetch_us_per_key", "us", "lower", 0},
	{"segment.keys_per_query", "count", "lower", 0},
	{"segment.postings_per_key", "count", "lower", 0},
	{"segment.rowmeta_ns", "ns", "lower", 0},

	{"core.search_us", "us", "lower", 0},
	{"core.cell_cover_us", "us", "lower", 0},
	{"core.postings_fetch_us", "us", "lower", 0},
	{"core.candidate_filter_us", "us", "lower", 0},
	{"core.prune_us", "us", "lower", 0},
	{"core.thread_build_us", "us", "lower", 0},
	{"core.rank_topk_us", "us", "lower", 0},
	{"core.unattributed_us", "us", "lower", 0},
	{"core.cells", "count", "lower", 0},
	{"core.postings_lists", "count", "lower", 0},
	{"core.candidates", "count", "lower", 0},
	{"core.candidates_per_result", "count", "lower", 0},
	{"core.threads_built", "count", "lower", 0},
	{"core.threads_pruned", "count", "higher", 0},
	{"core.prune_ratio", "ratio", "higher", 0},
	{"core.blocks_skipped", "count", "higher", 0},
	{"core.partitions_pruned", "count", "higher", 0},
	{"core.allocs_per_search", "count", "lower", 0},
	{"core.alloc_bytes_per_search", "B", "lower", 0},
	{"core.merge_partials_us", "us", "lower", 0},

	{"geo.cover_us", "us", "lower", 0},
	{"geo.cover_cells", "count", "lower", 0},

	{"thread.tree_us", "us", "lower", 0},
	{"metadb.batch_lookups", "count", "lower", 0},
	{"metadb.pages_saved", "count", "higher", 0},

	{"popcache.hit_ratio", "ratio", "higher", 0},
	{"popcache.evictions", "count", "lower", 0},

	{"router.search_us", "us", "lower", 0},
	{"router.fanout", "count", "lower", 0},
	{"router.shard_sum_us", "us", "lower", 0},
	{"router.shard_max_us", "us", "lower", 0},
	{"router.self_us", "us", "lower", 0},
	{"router.partials_candidates", "count", "lower", 0},
	{"router.hedges", "count", "lower", 0},
	{"router.degraded", "count", "lower", 0},

	{"wal.append_us_per_post", "us", "lower", 0},
	{"wal.bytes_per_post", "B", "lower", 0},
	{"wal.fsyncs", "count", "lower", 0},
	{"wal.rotations", "count", "lower", 0},

	{"textutil.terms_us_per_post", "us", "lower", 0},
	{"textutil.query_terms_us", "us", "lower", 0},

	{"loadgen.corpus_gen_s", "s", "lower", 0},
	{"loadgen.warmup_s", "s", "lower", 0},
	{"loadgen.lag_p95_ms", "ms", "lower", 0},
	{"loadgen.samples", "count", "higher", 0},

	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_total_ms", "ms", "lower", 0},
	{"go.heap_inuse_mb", "MB", "lower", 0},

	{"trace.layer_sum_ratio", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// Workload is one traffic mix. The read-only ones replay a fixed query set
// in seeded permutations, closed loop; ingest-mix adds an open-loop writer.
type Workload struct {
	Name string `json:"name"`
	// Why is the one-line reason recorded in BENCHMARK.json.
	Why string `json:"why"`

	Ranking  string  // wire form: "sum" or "max"
	RadiusKm float64 // query radius
	// MinKeywords drops the query classes with fewer keywords (wide-max
	// runs the 2- and 3-keyword classes only).
	MinKeywords int
	// Rounds is the measured phase's fixed size, in replays of the query
	// set, when -seconds is not given (ingest-mix: 7 % of the corpus).
	Rounds  int
	Sharded bool // serve through the 4-shard router
	Ingest  bool // durable store, open-loop ingest beside the searches
}

// Workloads is the benchmark's fixed traffic set, in run order.
var Workloads = []Workload{
	{
		Name:     "city-sum",
		Why:      "Interactive default: Or/SumScore r=15km on mono segments; core candidate_filter+prune dominate, thread/metadb nearly bypassed.",
		Ranking:  "sum",
		RadiusKm: 15, MinKeywords: 1, Rounds: 10,
	},
	{
		Name:     "wide-max",
		Why:      "Same store, Or/MaxScore r=50km: no prune stage, rank_topk+thread_build+popcache carry it; flat under sum-pruning changes.",
		Ranking:  "max",
		RadiusKm: 50, MinKeywords: 2, Rounds: 7,
	},
	{
		Name:     "sharded-city",
		Why:      "The city-sum requests through the 4-shard router: same engine work, so the ratio to city-sum is the scatter-gather tax.",
		Ranking:  "sum",
		RadiusKm: 15, MinKeywords: 1, Rounds: 6, Sharded: true,
	},
	{
		Name:     "ingest-mix",
		Why:      "Open-loop /v1/ingest at 2000 posts/s beside closed-loop city-sum reads on a durable store: seals, WAL, disk size, restart.",
		Ranking:  "sum",
		RadiusKm: 15, MinKeywords: 1, Ingest: true,
	},
}

// WorkloadByName resolves a -workload argument.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Scale is a corpus size. The benchmark contract's run budget (all runs of
// all workloads inside one hour, set-up repeated for a median) sizes
// "bench"; "full" is the 1M-post tier the issue's prototype figures refer
// to, for manual runs; "smoke" is the unit tests'.
type Scale struct {
	Name  string `json:"name"`
	Posts int    `json:"posts"`
	Users int    `json:"users"`
	// PerClass is the number of queries per keyword-count class.
	PerClass int `json:"queries_per_class"`
	// Setups is how many times set-up runs; setup_s is their median.
	Setups int `json:"setups"`
	// Rounds, when positive, replaces every workload's fixed round count.
	Rounds int `json:"rounds,omitempty"`
}

// Scales are the corpus tiers -scale selects.
var Scales = map[string]Scale{
	"smoke": {Name: "smoke", Posts: 5000, Users: 500, PerClass: 40, Setups: 1, Rounds: 1},
	"bench": {Name: "bench", Posts: 250000, Users: 25000, PerClass: 200, Setups: 3},
	"full":  {Name: "full", Posts: 1000000, Users: 100000, PerClass: 200, Setups: 1},
}

// Fixed parameters of every run, stamped into the report.
const (
	// Clients is the closed-loop client (and connection) count: the
	// sandbox has 2 cores and the client shares the process.
	Clients = 2
	// MaxProcs pins GOMAXPROCS.
	MaxProcs = 2
	// TopK is every query's k.
	TopK = 10
	// PopCacheEntries is smaller than either query set's thread working
	// set at bench scale and above, so the cache stays in its evicting
	// regime.
	PopCacheEntries = 4096
	// IngestBatch and IngestPostsPerSec define the open-loop writer:
	// 50-post batches at 2000 posts/s is one request every 25 ms.
	IngestBatch       = 50
	IngestPostsPerSec = 2000
	// TracedIngestBatches is the tail of the live posts ingested through
	// the decorated server after the measured phase (in every mode, so
	// row count and disk size do not depend on -trace).
	TracedIngestBatches = 20
	// OracleSample is how many distinct queries the correctness gate
	// verifies against the exhaustive oracle.
	OracleSample = 32
)

// Composition describes the serving arrangements in words, for the report.
const Composition = "mono: tklus.DefaultConfig(WithPopCache(4096), WithReplySnapshot()) (geohash 4, DB.IOLatency 0) -> Build -> EnableSegments(temp dir) -> server.NewSearcherWith(no tracer, no admission, discarded logs); " +
	"sharded: same config -> BuildSharded(DefaultShardingConfig: 4 shards, prefix 3); " +
	"ingest-mix: Build(first posts) -> Save -> EnableWAL(interval) -> EnableSegments{WALDir, MemtableRows = live/7}"
