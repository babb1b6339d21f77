package tklus_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	tklus "repro"
	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/telemetry"
)

// buildBoth builds a monolithic system and a sharded tier over the same
// corpus and configuration.
func buildMonoAndSharded(t testing.TB, posts, shards int) (*tklus.System, *tklus.ShardedSystem, *datagen.Corpus) {
	t.Helper()
	sc := tklus.DefaultShardingConfig()
	sc.NumShards = shards
	return buildMonoAndShardedCfg(t, posts, sc)
}

func buildMonoAndShardedCfg(t testing.TB, posts int, sc tklus.ShardingConfig) (*tklus.System, *tklus.ShardedSystem, *datagen.Corpus) {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.NumUsers = 500
	cfg.NumPosts = posts
	corpus, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := tklus.Build(corpus.Posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := tklus.BuildSharded(corpus.Posts, tklus.DefaultConfig(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return mono, sharded, corpus
}

// corpusWindow returns a time window covering the middle half of the
// corpus's time span.
func corpusWindow(corpus *datagen.Corpus) *tklus.TimeWindow {
	lo, hi := corpus.Posts[0].Time, corpus.Posts[0].Time
	for _, p := range corpus.Posts {
		if p.Time.Before(lo) {
			lo = p.Time
		}
		if p.Time.After(hi) {
			hi = p.Time
		}
	}
	span := hi.Sub(lo)
	return &tklus.TimeWindow{From: lo.Add(span / 4), To: hi.Add(-span / 4)}
}

// TestShardedMatchesMonolithic is the tier's core guarantee: when every
// shard answers, the merged scatter-gather results are byte-identical to
// a monolithic build over the same corpus — same users, same float64
// scores, same order — across semantics, rankings, radii and windows.
func TestShardedMatchesMonolithic(t *testing.T) {
	mono, sharded, corpus := buildMonoAndSharded(t, 6000, 4)
	window := corpusWindow(corpus)
	ctx := context.Background()

	for _, city := range []int{0, 1} {
		for _, sem := range []tklus.Query{{Semantic: tklus.Or}, {Semantic: tklus.And}} {
			for _, ranking := range []int{0, 1} {
				for _, radius := range []float64{8, 40} {
					for _, win := range []*tklus.TimeWindow{nil, window} {
						q := tklus.Query{
							Loc:        corpus.Config.Cities[city].Center,
							RadiusKm:   radius,
							Keywords:   []string{"pizza", "restaurant"},
							K:          10,
							Semantic:   sem.Semantic,
							TimeWindow: win,
						}
						if ranking == 1 {
							q.Ranking = tklus.MaxScore
						}
						name := fmt.Sprintf("city%d/%v/%v/r%.0f/win%v",
							city, q.Semantic, q.Ranking, radius, win != nil)
						want, _, err := mono.Search(ctx, q)
						if err != nil {
							t.Fatalf("%s: mono: %v", name, err)
						}
						got, stats, err := sharded.Search(ctx, q)
						if err != nil {
							t.Fatalf("%s: sharded: %v", name, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: sharded results differ\n got: %v\nwant: %v", name, got, want)
						}
						if stats.Degraded() {
							t.Errorf("%s: unexpected degradation: %v", name, stats.DegradedShards)
						}
					}
				}
			}
		}
	}
}

// TestShardedMatchesMonolithicShardCounts varies the partitioning: the
// merge must be exact no matter how many shards the corpus splits into.
func TestShardedMatchesMonolithicShardCounts(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NumUsers = 400
	cfg.NumPosts = 4000
	corpus, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := tklus.Build(corpus.Posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := tklus.Query{
		Loc: corpus.Config.Cities[0].Center, RadiusKm: 25,
		Keywords: []string{"hotel", "pizza"}, K: 10, Ranking: tklus.MaxScore,
	}
	want, _, err := mono.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 5, 9} {
		sc := tklus.DefaultShardingConfig()
		sc.NumShards = n
		sharded, err := tklus.BuildSharded(corpus.Posts, tklus.DefaultConfig(), sc)
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		got, _, err := sharded.Search(context.Background(), q)
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: results differ\n got: %v\nwant: %v", n, got, want)
		}
	}
}

// TestShardsResolveTheirOwnRows pins where a shard's radius filter reads its
// rows: every in-process shard of both tiers — and every replica of a
// replicated shard — serves its index partition with a row source of its
// own, and φ comes from the level-count table, so a sharded query does no
// paged multi-get at all, across semantics, rankings, radii and windows.
func TestShardsResolveTheirOwnRows(t *testing.T) {
	dcfg := datagen.DefaultConfig()
	dcfg.NumUsers = 400
	dcfg.NumPosts = 4000
	corpus, err := datagen.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tklus.DefaultConfig()
	sc := tklus.DefaultShardingConfig()
	sc.NumShards = 3
	sharded, err := tklus.BuildSharded(corpus.Posts, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	rc := tklus.DefaultReplicationConfig()
	rc.Dir = t.TempDir()
	replicated, err := tklus.BuildReplicatedSharded(corpus.Posts, cfg, replicaSharding(), rc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replicated.Close() })

	shards := map[string]*tklus.System{}
	for i, sys := range sharded.Systems {
		shards[fmt.Sprintf("sharded/%d", i)] = sys
	}
	for _, g := range replicated.Groups() {
		for _, r := range g.Replicas() {
			shards["replicated/"+r.Name()] = r.System()
		}
	}
	for name, sys := range shards {
		for i, part := range sys.Engine.Partitions() {
			if part.Rows == nil {
				t.Errorf("%s: partition %d resolves its rows through the paged database", name, i)
			}
		}
	}

	window := corpusWindow(corpus)
	ctx := context.Background()
	for tier, s := range map[string]tklus.Searcher{"sharded": sharded, "replicated": replicated} {
		candidates := 0
		for _, sem := range []tklus.Semantic{tklus.Or, tklus.And} {
			for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
				for _, radius := range []float64{8, 40} {
					for _, win := range []*tklus.TimeWindow{nil, window} {
						q := tklus.Query{
							Loc: corpus.Config.Cities[0].Center, RadiusKm: radius,
							Keywords: []string{"pizza", "restaurant"}, K: 10,
							Semantic: sem, Ranking: ranking, TimeWindow: win,
						}
						name := fmt.Sprintf("%s/%v/%v/r%.0f/win%v", tier, sem, ranking, radius, win != nil)
						_, stats, err := s.Search(ctx, q)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if stats.DBBatchLookups != 0 || stats.DBPagesSaved != 0 {
							t.Errorf("%s: %d paged multi-get lookups (%d pages saved), want none",
								name, stats.DBBatchLookups, stats.DBPagesSaved)
						}
						candidates += stats.Candidates
					}
				}
			}
		}
		if candidates == 0 {
			t.Errorf("%s: the query grid found no candidates; it pins nothing", tier)
		}
	}
}

// TestShardedEmptyRegion queries a circle no shard owns: the router must
// answer empty like a monolithic system, not error.
func TestShardedEmptyRegion(t *testing.T) {
	_, sharded, _ := buildMonoAndSharded(t, 2000, 3)
	res, stats, err := sharded.Search(context.Background(), tklus.Query{
		Loc: tklus.Point{Lat: -47.2, Lon: 9.5}, RadiusKm: 5,
		Keywords: []string{"hotel"}, K: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("results from unowned region: %v", res)
	}
	if stats.Degraded() {
		t.Fatalf("unexpected degradation: %v", stats.DegradedShards)
	}
}

// faultBackend wraps a shard backend with injectable failures and delays.
type faultBackend struct {
	inner tklus.ShardBackend

	mu    sync.Mutex
	calls int
	// failAll makes every call return an error.
	failAll bool
	// slowFirst makes the first call per query batch hang until the
	// context is canceled; later calls pass through immediately.
	slowFirst bool
	// hangAll makes every call hang until the context is canceled —
	// queries in flight when the client disconnects.
	hangAll bool
	// badQuery makes every call fail fast with the deterministic
	// ErrBadQuery sentinel — the canonical non-retryable failure.
	badQuery bool
}

func (f *faultBackend) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *faultBackend) set(fn func(*faultBackend)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

func (f *faultBackend) SearchPartials(ctx context.Context, q tklus.Query) (*tklus.Partials, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	failAll, slowFirst, hangAll, badQuery := f.failAll, f.slowFirst, f.hangAll, f.badQuery
	f.mu.Unlock()
	if hangAll {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if badQuery {
		return nil, fmt.Errorf("injected deterministic failure: %w", tklus.ErrBadQuery)
	}
	if failAll {
		return nil, errors.New("injected fault")
	}
	if slowFirst && n == 1 {
		<-ctx.Done() // straggle until the router gives up on this attempt
		return nil, ctx.Err()
	}
	return f.inner.SearchPartials(ctx, q)
}

// rewireWithFaults rebuilds a router over the same shard systems and
// partitioning, wrapping every backend in a faultBackend.
func rewireWithFaults(t *testing.T, sharded *tklus.ShardedSystem, sc tklus.ShardingConfig) (*tklus.ShardedSystem, []*faultBackend) {
	t.Helper()
	prefixes := sharded.ShardPrefixes()
	names := sharded.ShardNames()
	specs := make([]tklus.ShardSpec, len(names))
	faults := make([]*faultBackend, len(names))
	for i, name := range names {
		faults[i] = &faultBackend{inner: sharded.Systems[i]}
		specs[i] = tklus.ShardSpec{Name: name, Backend: faults[i], Prefixes: prefixes[name]}
	}
	alpha := tklus.DefaultConfig().Engine.Params.Alpha
	rewired, err := tklus.NewSharded(alpha, sc, specs)
	if err != nil {
		t.Fatal(err)
	}
	return rewired, faults
}

// wideQuery returns a query whose circle covers every shard the corpus's
// first city touches.
func wideQuery(corpus *datagen.Corpus) tklus.Query {
	return tklus.Query{
		Loc: corpus.Config.Cities[0].Center, RadiusKm: 60,
		Keywords: []string{"pizza"}, K: 10, Ranking: tklus.MaxScore,
	}
}

// faultSharding is the partitioning the fault-injection tests use: a
// 4-character prefix (~39×20 km cells) spreads one city's posts across
// several shards, so killing one shard still leaves overlapping survivors
// with candidates.
func faultSharding() tklus.ShardingConfig {
	sc := tklus.DefaultShardingConfig()
	sc.NumShards = 3
	sc.PrefixLen = 4
	sc.HedgeDelay = 0 // tests that hedge opt back in explicitly
	return sc
}

// shardOwning returns the index of the shard owning the cell of loc — a
// shard every wideQuery-style query must route to.
func shardOwning(t *testing.T, ss *tklus.ShardedSystem, loc tklus.Point, prefixLen int) int {
	t.Helper()
	pre := geo.Encode(loc, prefixLen)
	prefixes := ss.ShardPrefixes()
	for i, name := range ss.ShardNames() {
		for _, p := range prefixes[name] {
			if p == pre {
				return i
			}
		}
	}
	t.Fatalf("no shard owns prefix %q", pre)
	return -1
}

// routerWithout composes a router over the same shard systems minus one —
// the oracle for what a degraded query should return.
func routerWithout(t *testing.T, sharded *tklus.ShardedSystem, sc tklus.ShardingConfig, skip int) *tklus.ShardedSystem {
	t.Helper()
	prefixes := sharded.ShardPrefixes()
	var specs []tklus.ShardSpec
	for i, name := range sharded.ShardNames() {
		if i == skip {
			continue
		}
		specs = append(specs, tklus.ShardSpec{
			Name: name, Backend: sharded.Systems[i], Prefixes: prefixes[name],
		})
	}
	alive, err := tklus.NewSharded(tklus.DefaultConfig().Engine.Params.Alpha, sc, specs)
	if err != nil {
		t.Fatal(err)
	}
	return alive
}

// TestShardedHedgeBeatsStraggler injects a shard whose first attempt
// hangs: the hedged backup must answer, the query must come back whole
// (no degradation, byte-identical to the monolithic results), and the
// backend must have been called exactly twice.
func TestShardedHedgeBeatsStraggler(t *testing.T) {
	sc := faultSharding()
	sc.HedgeDelay = 20 * time.Millisecond
	sc.ShardTimeout = 10 * time.Second // only the hedge should race the straggler
	mono, built, corpus := buildMonoAndShardedCfg(t, 3000, sc)
	sharded, faults := rewireWithFaults(t, built, sc)

	q := wideQuery(corpus)
	victim := shardOwning(t, sharded, q.Loc, sc.PrefixLen)
	faults[victim].set(func(f *faultBackend) { f.slowFirst = true })

	want, _, err := mono.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := sharded.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded() {
		t.Fatalf("hedge should have saved the query, got degradation: %v", stats.DegradedShards)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hedged results differ\n got: %v\nwant: %v", got, want)
	}
	if calls := faults[victim].callCount(); calls != 2 {
		t.Errorf("straggler shard called %d times, want 2 (original + hedge)", calls)
	}
}

// TestShardedNonRetryableErrorSkipsHedge pins the hedging bugfix: a shard
// failing fast with a DETERMINISTIC error (ErrBadQuery and friends) must
// not be asked again — the retry would burn a duplicate sub-query to get
// the same answer. Exactly one attempt reaches the backend and the hedge
// counter stays at zero; the router degrades the shard like any other
// failure.
func TestShardedNonRetryableErrorSkipsHedge(t *testing.T) {
	sc := faultSharding()
	sc.HedgeDelay = time.Millisecond // hedging armed: a retryable failure WOULD re-issue
	_, built, corpus := buildMonoAndShardedCfg(t, 3000, sc)
	sharded, faults := rewireWithFaults(t, built, sc)
	reg := telemetry.NewRegistry()
	sharded.RegisterMetrics(reg)

	q := wideQuery(corpus)
	victim := shardOwning(t, sharded, q.Loc, sc.PrefixLen)
	faults[victim].set(func(f *faultBackend) { f.badQuery = true })

	_, stats, err := sharded.Search(context.Background(), q)
	if err != nil {
		t.Fatalf("partial-results mode must not fail: %v", err)
	}
	if !stats.Degraded() {
		t.Fatal("deterministically failing shard not reported as degraded")
	}
	if calls := faults[victim].callCount(); calls != 1 {
		t.Errorf("non-retryable failure drew %d attempts, want exactly 1 (no hedge)", calls)
	}
	victimName := sharded.ShardNames()[victim]
	hedges := reg.Counter("tklus_shard_hedges_total",
		"Backup sub-queries launched against straggler or failing shards.",
		telemetry.Labels{"shard": victimName})
	if v := hedges.Value(); v != 0 {
		t.Errorf("tklus_shard_hedges_total{shard=%s} = %d, want 0", victimName, v)
	}
}

// TestShardedDeadShardDegrades kills the shard owning the query's center
// cell: the query must still return the merged results of the surviving
// shards — exactly what a router without the dead shard computes — with
// the dead shard reported in QueryStats.DegradedShards.
func TestShardedDeadShardDegrades(t *testing.T) {
	sc := faultSharding()
	_, built, corpus := buildMonoAndShardedCfg(t, 3000, sc)
	sharded, faults := rewireWithFaults(t, built, sc)

	q := wideQuery(corpus)
	victim := shardOwning(t, sharded, q.Loc, sc.PrefixLen)
	faults[victim].set(func(f *faultBackend) { f.failAll = true })

	want, _, err := routerWithout(t, built, sc, victim).Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := sharded.Search(context.Background(), q)
	if err != nil {
		t.Fatalf("partial-results mode must not fail: %v", err)
	}
	if !stats.Degraded() {
		t.Fatal("degradation not reported")
	}
	victimName := sharded.ShardNames()[victim]
	if len(stats.DegradedShards) != 1 || stats.DegradedShards[0].Shard != victimName {
		t.Fatalf("DegradedShards = %v, want exactly %s", stats.DegradedShards, victimName)
	}
	if stats.DegradedShards[0].Reason == "" {
		t.Fatal("degradation reason empty")
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("degraded results differ from surviving-shard merge\n got: %v\nwant: %v", res, want)
	}
	if len(want) == 0 {
		t.Error("surviving shards produced no results; the degradation oracle is vacuous")
	}
}

// TestShardedFailOnPartial flips the mode: the same dead shard must now
// fail the whole query with ErrShardUnavailable.
func TestShardedFailOnPartial(t *testing.T) {
	sc := faultSharding()
	sc.FailOnPartial = true
	_, built, corpus := buildMonoAndShardedCfg(t, 3000, sc)
	sharded, faults := rewireWithFaults(t, built, sc)

	q := wideQuery(corpus)
	victim := shardOwning(t, sharded, q.Loc, sc.PrefixLen)
	faults[victim].set(func(f *faultBackend) { f.failAll = true })
	_, _, err := sharded.Search(context.Background(), q)
	if !errors.Is(err, tklus.ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
}

// TestShardedAllShardsDead: with every overlapping shard down the router
// has nothing to merge and must fail with ErrShardUnavailable.
func TestShardedAllShardsDead(t *testing.T) {
	sc := faultSharding()
	_, built, corpus := buildMonoAndShardedCfg(t, 3000, sc)
	sharded, faults := rewireWithFaults(t, built, sc)

	for _, f := range faults {
		f.set(func(f *faultBackend) { f.failAll = true })
	}
	_, _, err := sharded.Search(context.Background(), wideQuery(corpus))
	if !errors.Is(err, tklus.ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
}

// TestShardedBreakerTripsAndRecovers drives the full breaker lifecycle
// through real queries: consecutive failures trip the breaker (later
// queries fail fast without touching the backend), and after the cooldown
// a probe request heals the tier.
func TestShardedBreakerTripsAndRecovers(t *testing.T) {
	sc := faultSharding()
	sc.BreakerThreshold = 2
	sc.BreakerCooldown = 50 * time.Millisecond
	mono, built, corpus := buildMonoAndShardedCfg(t, 3000, sc)
	sharded, faults := rewireWithFaults(t, built, sc)

	q := wideQuery(corpus)
	victim := shardOwning(t, sharded, q.Loc, sc.PrefixLen)
	victimName := sharded.ShardNames()[victim]
	dead := faults[victim]
	dead.set(func(f *faultBackend) { f.failAll = true })

	// Two failing queries trip the breaker.
	for i := 0; i < 2; i++ {
		_, stats, err := sharded.Search(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !stats.Degraded() {
			t.Fatalf("query %d: degradation not reported", i)
		}
	}
	if calls := dead.callCount(); calls != 2 {
		t.Fatalf("dead shard called %d times before trip, want 2", calls)
	}
	if state := sharded.BreakerStates()[victimName]; state != "open" {
		t.Fatalf("breaker state = %q, want open", state)
	}

	// While open, queries degrade instantly: the backend sees no call and
	// the reason names the breaker.
	_, stats, err := sharded.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if calls := dead.callCount(); calls != 2 {
		t.Fatalf("open breaker leaked a call: %d", calls)
	}
	if !stats.Degraded() || !strings.Contains(stats.DegradedShards[0].Reason, "circuit breaker open") {
		t.Fatalf("DegradedShards = %v, want a circuit-breaker reason", stats.DegradedShards)
	}

	// Heal the shard, wait out the cooldown: the half-open probe closes
	// the circuit and results come back whole.
	dead.set(func(f *faultBackend) { f.failAll = false })
	time.Sleep(sc.BreakerCooldown + 20*time.Millisecond)
	want, _, err := mono.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := sharded.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded() {
		t.Fatalf("recovered tier still degraded: %v", stats.DegradedShards)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered results differ\n got: %v\nwant: %v", got, want)
	}
	if state := sharded.BreakerStates()[victimName]; state != "closed" {
		t.Fatalf("breaker state = %q, want closed", state)
	}
}

// TestShardedBreakerIgnoresClientCancellation is the regression test for
// the breaker miscount: every in-flight sub-query that dies because the
// CLIENT canceled used to count as a shard failure, so a burst of
// disconnects tripped breakers on perfectly healthy shards. Cancel a
// burst of in-flight queries well past the trip threshold, then require
// every breaker closed and the next query answered whole.
func TestShardedBreakerIgnoresClientCancellation(t *testing.T) {
	sc := faultSharding()
	sc.BreakerThreshold = 2 // any miscounting trips almost immediately
	sc.ShardTimeout = 0     // only the client's cancellation is in play
	mono, built, corpus := buildMonoAndShardedCfg(t, 3000, sc)
	sharded, faults := rewireWithFaults(t, built, sc)

	q := wideQuery(corpus)
	for _, f := range faults {
		f.set(func(f *faultBackend) { f.hangAll = true })
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	cancels := make([]context.CancelFunc, clients)
	for i := 0; i < clients; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		wg.Add(1)
		go func(i int, ctx context.Context) {
			defer wg.Done()
			_, _, errs[i] = sharded.Search(ctx, q)
		}(i, ctx)
	}
	// Let the queries reach the hanging backends, then disconnect everyone.
	time.Sleep(20 * time.Millisecond)
	for _, cancel := range cancels {
		cancel()
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("client %d: err = %v, want context.Canceled", i, err)
		}
	}
	for name, state := range sharded.BreakerStates() {
		if state != "closed" {
			t.Errorf("breaker %s = %q after client disconnects, want closed", name, state)
		}
	}

	// The tier is healthy: the next query must come back whole.
	for _, f := range faults {
		f.set(func(f *faultBackend) { f.hangAll = false })
	}
	want, _, err := mono.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := sharded.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded() {
		t.Fatalf("healthy tier degraded after disconnect burst: %v", stats.DegradedShards)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-disconnect results differ\n got: %v\nwant: %v", got, want)
	}
}

// TestShardedConcurrentQueries hammers the router from many goroutines —
// the -race lane's coverage of the scatter-gather and breaker paths.
func TestShardedConcurrentQueries(t *testing.T) {
	mono, sharded, corpus := buildMonoAndSharded(t, 3000, 4)
	q := wideQuery(corpus)
	want, _, err := mono.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := sharded.Search(context.Background(), q)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs <- fmt.Errorf("concurrent query diverged: %v", got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShardedSearcherCompliance pins the API redesign: the monolithic,
// segment-backed, sharded and federated arrangements satisfy
// tklus.Searcher at compile time and answer the same query through the
// one interface.
func TestShardedSearcherCompliance(t *testing.T) {
	mono, sharded, corpus := buildMonoAndSharded(t, 2000, 2)
	fed := tklus.NewFederation(map[string]*tklus.System{"main": mono})
	seg := contractSystem(t, corpus.Posts, true)
	q := tklus.Query{
		Loc: corpus.Config.Cities[0].Center, RadiusKm: 15,
		Keywords: []string{"hotel"}, K: 5,
	}
	for name, sr := range map[string]tklus.Searcher{
		"system": mono, "segmented": seg, "sharded": sharded, "federation": fed,
	} {
		res, stats, err := sr.Search(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res) == 0 {
			t.Errorf("%s: no results", name)
		}
		if stats == nil {
			t.Errorf("%s: nil stats", name)
		}
	}
}
