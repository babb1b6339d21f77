package tklus_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	tklus "repro"
	"repro/internal/datagen"
	"repro/internal/server"
)

// replicaSharding is the partitioning the replication tests run on: a
// 4-character prefix spreads one city across several shards so a wide
// query fans out, with default hedging and breakers active.
func replicaSharding() tklus.ShardingConfig {
	sc := tklus.DefaultShardingConfig()
	sc.NumShards = 3
	sc.PrefixLen = 4
	return sc
}

// fastFailoverConfig is a replication config tuned so a test observes a
// failover in tens of milliseconds instead of the production default.
func fastFailoverConfig(t testing.TB) tklus.ReplicationConfig {
	t.Helper()
	rc := tklus.DefaultReplicationConfig()
	rc.Dir = t.TempDir()
	rc.LeaseTTL = 40 * time.Millisecond
	rc.ShipInterval = time.Millisecond
	return rc
}

// buildMonoAndReplicated builds a monolithic oracle and a replicated
// sharded tier over the same corpus and configuration.
func buildMonoAndReplicated(t testing.TB, posts int, cfg tklus.Config, sc tklus.ShardingConfig, rc tklus.ReplicationConfig) (*tklus.System, *tklus.ReplicatedShardedSystem, *datagen.Corpus) {
	t.Helper()
	dcfg := datagen.DefaultConfig()
	dcfg.NumUsers = 500
	dcfg.NumPosts = posts
	corpus, err := datagen.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := tklus.Build(corpus.Posts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := tklus.BuildReplicatedSharded(corpus.Posts, cfg, sc, rc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return mono, rs, corpus
}

// liveExtras builds n live posts dated after the whole corpus (so their
// SIDs are monotone past every built post), written by existing corpus
// users at the first city's center — they shift |P_u| normalization and
// thread state, so replicas that missed one answer differently.
func liveExtras(corpus *datagen.Corpus, n int) []*tklus.Post {
	hi := corpus.Posts[0].Time
	for _, p := range corpus.Posts {
		if p.Time.After(hi) {
			hi = p.Time
		}
	}
	at := hi.Add(time.Hour)
	loc := corpus.Config.Cities[0].Center
	extras := make([]*tklus.Post, 0, n)
	for i := 0; i < n; i++ {
		at = at.Add(time.Second)
		uid := corpus.Posts[i%len(corpus.Posts)].UID
		extras = append(extras, tklus.NewPost(uid, at, loc, "pizza at the waterfront restaurant"))
	}
	return extras
}

// groupOwning returns the replica group of the shard owning loc's cell.
func groupOwning(t *testing.T, rs *tklus.ReplicatedShardedSystem, loc tklus.Point, prefixLen int) *tklus.ReplicaGroup {
	t.Helper()
	idx := shardOwning(t, rs.ShardedSystem, loc, prefixLen)
	g := rs.Group(rs.ShardNames()[idx])
	if g == nil {
		t.Fatalf("no replica group for shard %s", rs.ShardNames()[idx])
	}
	return g
}

// TestReplicatedMatchesMonolithic extends the tier's core guarantee to the
// replicated arrangement: with every replica healthy, the merged results
// are byte-identical to a monolithic build across semantics, rankings,
// radii and windows, with no degradation and zero surfaced lag.
func TestReplicatedMatchesMonolithic(t *testing.T) {
	rc := tklus.DefaultReplicationConfig()
	rc.Dir = t.TempDir()
	mono, rs, corpus := buildMonoAndReplicated(t, 4000, tklus.DefaultConfig(), replicaSharding(), rc)
	window := corpusWindow(corpus)
	ctx := context.Background()

	for _, sem := range []tklus.Semantic{tklus.Or, tklus.And} {
		for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
			for _, radius := range []float64{8, 40} {
				for _, win := range []*tklus.TimeWindow{nil, window} {
					q := tklus.Query{
						Loc:        corpus.Config.Cities[0].Center,
						RadiusKm:   radius,
						Keywords:   []string{"pizza", "restaurant"},
						K:          10,
						Semantic:   sem,
						Ranking:    ranking,
						TimeWindow: win,
					}
					name := fmt.Sprintf("%v/%v/r%.0f/win%v", sem, ranking, radius, win != nil)
					want, _, err := mono.Search(ctx, q)
					if err != nil {
						t.Fatalf("%s: mono: %v", name, err)
					}
					got, stats, err := rs.Search(ctx, q)
					if err != nil {
						t.Fatalf("%s: replicated: %v", name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: replicated results differ\n got: %v\nwant: %v", name, got, want)
					}
					if stats.Degraded() {
						t.Errorf("%s: unexpected degradation: %v", name, stats.DegradedShards)
					}
					if stats.ReplicaLagSIDs != 0 {
						t.Errorf("%s: healthy tier surfaced lag %d", name, stats.ReplicaLagSIDs)
					}
				}
			}
		}
	}
}

// TestReplicatedFollowersServeIngestedState is the WAL-shipping round
// trip: ingest live posts through every group's leader, wait for the
// followers to drain the shipped stream, then kill every leader so reads
// MUST come from followers — the answers must be byte-identical to a
// monolithic system that ingested the same posts, with no degradation.
func TestReplicatedFollowersServeIngestedState(t *testing.T) {
	sc := replicaSharding()
	mono, rs, corpus := buildMonoAndReplicated(t, 3000, tklus.DefaultConfig(), sc, fastFailoverConfig(t))

	extras := liveExtras(corpus, 40)
	if err := rs.Ingest(extras...); err != nil {
		t.Fatalf("replicated ingest: %v", err)
	}
	if err := mono.Ingest(extras...); err != nil {
		t.Fatalf("mono ingest: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rs.WaitCaughtUp(ctx); err != nil {
		t.Fatalf("followers never caught up: %v", err)
	}
	for _, g := range rs.Groups() {
		if err := g.KillReplica(g.Leader()); err != nil {
			t.Fatal(err)
		}
	}

	q := wideQuery(corpus)
	want, _, err := mono.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := rs.Search(context.Background(), q)
	if err != nil {
		t.Fatalf("follower-served query: %v", err)
	}
	if stats.Degraded() {
		t.Fatalf("followers should have served whole: %v", stats.DegradedShards)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("follower-served results differ\n got: %v\nwant: %v", got, want)
	}
	if scan := ackedOracle(corpus.Posts, extras...).Search(q); !equalResults(got, scan) {
		t.Errorf("follower-served results %v, scan oracle over the acknowledged posts %v", got, scan)
	}
}

// TestReplicatedFailoverFencesDeposedLeader is the flagship fault
// injection: kill a shard's leader between two ingest batches. The next
// ingest must promote the most-caught-up follower under a higher epoch;
// the deposed leader's late write, stamped with its old epoch, must be
// rejected with ErrStaleEpoch through the write door; and the merged
// query must come back byte-identical to the monolithic oracle — which
// never saw the fenced write — with DegradedShards empty.
func TestReplicatedFailoverFencesDeposedLeader(t *testing.T) {
	sc := replicaSharding()
	mono, rs, corpus := buildMonoAndReplicated(t, 3000, tklus.DefaultConfig(), sc, fastFailoverConfig(t))
	ctx := context.Background()

	batch := liveExtras(corpus, 60)
	first, second, late := batch[:20], batch[20:40], batch[40:]
	if err := rs.Ingest(first...); err != nil {
		t.Fatal(err)
	}
	if err := mono.Ingest(first...); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if err := rs.WaitCaughtUp(wctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	g := groupOwning(t, rs, corpus.Config.Cities[0].Center, sc.PrefixLen)
	oldLeader, oldEpoch := g.Leader(), g.Epoch()
	if err := g.KillReplica(oldLeader); err != nil {
		t.Fatal(err)
	}

	// The mid-ingest kill: the next batch blocks until the dead leader's
	// lease lapses, then lands on the promoted follower.
	if err := rs.Ingest(second...); err != nil {
		t.Fatalf("ingest across failover: %v", err)
	}
	if err := mono.Ingest(second...); err != nil {
		t.Fatal(err)
	}
	if got := g.Leader(); got == oldLeader || got == "" {
		t.Fatalf("leader after failover = %q, want a promoted follower (old %q)", got, oldLeader)
	}
	if got := g.Epoch(); got <= oldEpoch {
		t.Fatalf("epoch after failover = %d, want > %d (the fencing token must advance)", got, oldEpoch)
	}
	if got := g.Failovers(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}

	// The deposed leader wakes up and retries its write with the epoch it
	// was promoted under: fenced at the write door.
	err := g.IngestAs(oldEpoch, late...)
	if !errors.Is(err, tklus.ErrStaleEpoch) {
		t.Fatalf("late write under epoch %d: err = %v, want ErrStaleEpoch", oldEpoch, err)
	}

	wctx, cancel = context.WithTimeout(ctx, 10*time.Second)
	if err := rs.WaitCaughtUp(wctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	q := wideQuery(corpus)
	want, _, err := mono.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := rs.Search(ctx, q)
	if err != nil {
		t.Fatalf("post-failover query: %v", err)
	}
	if stats.Degraded() {
		t.Fatalf("post-failover degradation: %v", stats.DegradedShards)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-failover results differ (the fenced write may have leaked)\n got: %v\nwant: %v", got, want)
	}
	if scan := ackedOracle(corpus.Posts, batch[:40]...).Search(q); !equalResults(got, scan) {
		t.Errorf("post-failover results %v, scan oracle over the acknowledged posts %v", got, scan)
	}

	// Revive the deposed leader: it rejoins as a follower, drains the new
	// leader's stream (skipping everything it already holds), and once the
	// NEW leader dies, it serves the full state — the round trip proves
	// re-shipping is idempotent across the demote/promote cycle.
	if err := g.ReviveReplica(oldLeader); err != nil {
		t.Fatal(err)
	}
	wctx, cancel = context.WithTimeout(ctx, 10*time.Second)
	if err := g.WaitCaughtUp(wctx); err != nil {
		t.Fatalf("revived leader never caught up: %v", err)
	}
	cancel()
	if err := g.KillReplica(g.Leader()); err != nil {
		t.Fatal(err)
	}
	got, stats, err = rs.Search(ctx, q)
	if err != nil {
		t.Fatalf("query after second kill: %v", err)
	}
	if stats.Degraded() {
		t.Fatalf("revived replica should have served whole: %v", stats.DegradedShards)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("revived-replica results differ\n got: %v\nwant: %v", got, want)
	}
}

// TestReplicatedLeaseKeeperPromotes pins the background half of failover:
// with no ingest traffic at all, the lease keeper alone must notice a
// dead leader and promote the follower once the lease lapses.
func TestReplicatedLeaseKeeperPromotes(t *testing.T) {
	sc := replicaSharding()
	mono, rs, corpus := buildMonoAndReplicated(t, 3000, tklus.DefaultConfig(), sc, fastFailoverConfig(t))

	g := groupOwning(t, rs, corpus.Config.Cities[0].Center, sc.PrefixLen)
	oldLeader, oldEpoch := g.Leader(), g.Epoch()
	if err := g.KillReplica(oldLeader); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Leader() == oldLeader {
		if time.Now().After(deadline) {
			t.Fatalf("lease keeper never promoted a successor (leader still %q)", oldLeader)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := g.Epoch(); got <= oldEpoch {
		t.Fatalf("epoch after keeper promotion = %d, want > %d", got, oldEpoch)
	}

	q := wideQuery(corpus)
	want, _, err := mono.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := rs.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded() {
		t.Fatalf("promoted follower should serve whole: %v", stats.DegradedShards)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("keeper-promoted results differ\n got: %v\nwant: %v", got, want)
	}
}

// TestReplicatedStaleReadSurfacesLag pins the read-staleness contract:
// when the router must fail reads over to a follower that has NOT drained
// the leader's acknowledged stream, the answer is the follower's honest
// (stale) state and QueryStats.ReplicaLagSIDs reports exactly how many
// acknowledged records that answer is missing.
func TestReplicatedStaleReadSurfacesLag(t *testing.T) {
	sc := replicaSharding()
	rc := tklus.DefaultReplicationConfig()
	rc.Dir = t.TempDir()
	// Freeze the machinery: shippers poll hourly (followers never catch
	// up within the test) and the lease outlives the test (the keeper
	// never deposes the killed leader, so the group keeps reporting lag
	// against ITS stream).
	rc.ShipInterval = time.Hour
	rc.LeaseTTL = time.Hour
	mono, rs, corpus := buildMonoAndReplicated(t, 3000, tklus.DefaultConfig(), sc, rc)

	q := wideQuery(corpus)
	want, _, err := mono.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	const n = 25
	if err := rs.Ingest(liveExtras(corpus, n)...); err != nil {
		t.Fatal(err)
	}
	g := groupOwning(t, rs, corpus.Config.Cities[0].Center, sc.PrefixLen)
	if lag := g.LagRecords(followerOf(t, g)); lag != n {
		t.Fatalf("follower lag = %d, want %d (every acked record unapplied)", lag, n)
	}
	if err := g.KillReplica(g.Leader()); err != nil {
		t.Fatal(err)
	}

	got, stats, err := rs.Search(context.Background(), q)
	if err != nil {
		t.Fatalf("stale read: %v", err)
	}
	if stats.Degraded() {
		t.Fatalf("stale follower read must not degrade: %v", stats.DegradedShards)
	}
	if stats.ReplicaLagSIDs != n {
		t.Errorf("ReplicaLagSIDs = %d, want %d", stats.ReplicaLagSIDs, n)
	}
	// The stale answer is the pre-ingest state — the follower serves what
	// it has, and the lag field is how the caller knows what that is.
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stale read differs from pre-ingest oracle\n got: %v\nwant: %v", got, want)
	}
}

// followerOf returns the name of some live non-leader replica.
func followerOf(t *testing.T, g *tklus.ReplicaGroup) string {
	t.Helper()
	leader := g.Leader()
	for _, r := range g.Replicas() {
		if r.Name() != leader {
			return r.Name()
		}
	}
	t.Fatalf("group %s has no follower", g.Shard())
	return ""
}

// TestReplicatedKillReviveCatchUp exercises lag accounting around a
// follower outage: a downed follower accumulates lag while the leader
// keeps acknowledging writes, and a revive drains it back to zero without
// spawning a second shipper onto the stream (duplicate applies would
// break byte-identity, caught here against the oracle).
func TestReplicatedKillReviveCatchUp(t *testing.T) {
	sc := replicaSharding()
	mono, rs, corpus := buildMonoAndReplicated(t, 3000, tklus.DefaultConfig(), sc, fastFailoverConfig(t))
	ctx := context.Background()

	g := groupOwning(t, rs, corpus.Config.Cities[0].Center, sc.PrefixLen)
	follower := followerOf(t, g)
	if err := g.KillReplica(follower); err != nil {
		t.Fatal(err)
	}

	const n = 30
	extras := liveExtras(corpus, n)
	if err := rs.Ingest(extras...); err != nil {
		t.Fatal(err)
	}
	if err := mono.Ingest(extras...); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for g.LagRecords(follower) < n {
		if time.Now().After(deadline) {
			t.Fatalf("downed follower lag = %d, want %d", g.LagRecords(follower), n)
		}
		time.Sleep(time.Millisecond)
	}

	if err := g.ReviveReplica(follower); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := g.WaitCaughtUp(wctx); err != nil {
		t.Fatalf("revived follower never caught up: %v", err)
	}
	if lag := g.LagRecords(follower); lag != 0 {
		t.Fatalf("post-revive lag = %d, want 0", lag)
	}

	// Force reads onto the revived follower and check byte-identity — a
	// double-applied record would shift |P_u| and surface here.
	if err := g.KillReplica(g.Leader()); err != nil {
		t.Fatal(err)
	}
	q := wideQuery(corpus)
	want, _, err := mono.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := rs.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded() {
		t.Fatalf("revived follower should serve whole: %v", stats.DegradedShards)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("revived-follower results differ\n got: %v\nwant: %v", got, want)
	}
	if scan := ackedOracle(corpus.Posts, extras...).Search(q); !equalResults(got, scan) {
		t.Errorf("revived-follower results %v, scan oracle over the acknowledged posts %v", got, scan)
	}
}

// TestReplicatedPostFailoverEquivalenceGrid is the satellite equivalence
// grid: after a leader kill and failover, the replicated tier must match
// the monolithic oracle across ε (the thread-popularity smoothing
// parameter, a build-time knob) × ranking × radius × window.
func TestReplicatedPostFailoverEquivalenceGrid(t *testing.T) {
	window := func(corpus *datagen.Corpus) *tklus.TimeWindow { return corpusWindow(corpus) }
	for _, eps := range []float64{0.1, 0.5} {
		t.Run(fmt.Sprintf("eps%.1f", eps), func(t *testing.T) {
			cfg := tklus.DefaultConfig()
			cfg.Engine.Params.Epsilon = eps
			sc := replicaSharding()
			mono, rs, corpus := buildMonoAndReplicated(t, 2500, cfg, sc, fastFailoverConfig(t))
			ctx := context.Background()

			extras := liveExtras(corpus, 20)
			if err := rs.Ingest(extras...); err != nil {
				t.Fatal(err)
			}
			if err := mono.Ingest(extras...); err != nil {
				t.Fatal(err)
			}
			g := groupOwning(t, rs, corpus.Config.Cities[0].Center, sc.PrefixLen)
			oldLeader := g.Leader()
			if err := g.KillReplica(oldLeader); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for g.Leader() == oldLeader {
				if time.Now().After(deadline) {
					t.Fatal("failover never completed")
				}
				time.Sleep(5 * time.Millisecond)
			}
			wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			if err := rs.WaitCaughtUp(wctx); err != nil {
				t.Fatal(err)
			}
			cancel()

			for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
				for _, radius := range []float64{8, 40} {
					for _, win := range []*tklus.TimeWindow{nil, window(corpus)} {
						q := tklus.Query{
							Loc:        corpus.Config.Cities[0].Center,
							RadiusKm:   radius,
							Keywords:   []string{"pizza", "restaurant"},
							K:          10,
							Ranking:    ranking,
							TimeWindow: win,
						}
						name := fmt.Sprintf("%v/r%.0f/win%v", ranking, radius, win != nil)
						want, _, err := mono.Search(ctx, q)
						if err != nil {
							t.Fatalf("%s: mono: %v", name, err)
						}
						got, stats, err := rs.Search(ctx, q)
						if err != nil {
							t.Fatalf("%s: replicated: %v", name, err)
						}
						if stats.Degraded() {
							t.Errorf("%s: degradation: %v", name, stats.DegradedShards)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: post-failover results differ\n got: %v\nwant: %v", name, got, want)
						}
					}
				}
			}
		})
	}
}

// TestReplicatedPostCountMatchesMonolithic pins |P_u| on the replicated
// tier: every replica holds the full corpus table, so the tier's
// post count of a user equals a monolithic build's — before any ingest,
// and for a user a live ingest touched once the followers caught up.
func TestReplicatedPostCountMatchesMonolithic(t *testing.T) {
	mono, rs, corpus := buildMonoAndReplicated(t, 2000, tklus.DefaultConfig(), replicaSharding(), fastFailoverConfig(t))
	extras := liveExtras(corpus, 5)
	if err := rs.Ingest(extras...); err != nil {
		t.Fatal(err)
	}
	if err := mono.Ingest(extras...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rs.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
	sample := []tklus.UserID{extras[0].UID}
	for _, p := range corpus.Posts[:50] {
		sample = append(sample, p.UID)
	}
	for _, uid := range sample {
		want := mono.DB.PostCountOfUser(uid)
		if want == 0 {
			t.Fatalf("user %d has no posts on mono: the sample is vacuous", uid)
		}
		if got := rs.PostCountOfUser(uid); got != want {
			t.Errorf("user %d: replicated |P_u| = %d, mono %d", uid, got, want)
		}
	}
}

// failingLeaseManager refuses every lease, so the group that owns it can
// never elect a leader.
type failingLeaseManager struct{ *tklus.LocalLeaseManager }

func (failingLeaseManager) Acquire(string, time.Duration) (tklus.Lease, error) {
	return tklus.Lease{}, errors.New("coordination store unreachable")
}

// openFDs counts the process's open file descriptors, or -1 where the
// platform does not list them.
func openFDs() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// TestReplicatedBuildFailureReleasesResources fails the second shard's
// election after the first group has elected and started shipping: the
// build must return an error naming that shard and leave no shipper
// running and no replica WAL open.
func TestReplicatedBuildFailureReleasesResources(t *testing.T) {
	dcfg := datagen.DefaultConfig()
	dcfg.NumUsers = 200
	dcfg.NumPosts = 1000
	corpus, err := datagen.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := replicaSharding()
	sc.NumShards = 2
	rc := fastFailoverConfig(t)
	rc.LeaseManagerFor = func(shard string) tklus.LeaseManager {
		lm := tklus.NewLocalLeaseManager(nil)
		if shard == "shard-01" {
			return failingLeaseManager{lm}
		}
		return lm
	}

	goroutines, fds := runtime.NumGoroutine(), openFDs()
	rs, err := tklus.BuildReplicatedSharded(corpus.Posts, tklus.DefaultConfig(), sc, rc)
	if err == nil {
		rs.Close()
		t.Fatal("build succeeded although shard-01 can never elect a leader")
	}
	if !strings.Contains(err.Error(), "shard-01") {
		t.Errorf("error %q does not name shard-01", err)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the failed build, %d before", n, goroutines)
	}
	if n := openFDs(); n > fds {
		t.Errorf("%d open files after the failed build, %d before", n, fds)
	}
}

// TestReplicatedRefusesUnownedPost: a post in a region no shard owns would
// be acknowledged and indexed by none, so the replicated tier refuses the
// whole batch with tklus.ErrRejected — a 400 at /v1/ingest — before any
// group applies it: neither the refused post nor its batch-mate in Toronto
// reaches a database or an index.
func TestReplicatedRefusesUnownedPost(t *testing.T) {
	posts, loc, _ := ingestCorpus()
	rs, err := tklus.BuildReplicatedSharded(posts, tklus.DefaultConfig(), replicaSharding(), fastFailoverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	at := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	sydney := tklus.Point{Lat: -33.87, Lon: 151.21}
	owned := tklus.NewPost(99001, at, loc, "zanzibar hotel rooftop")
	unowned := tklus.NewPost(99002, at.Add(time.Second), sydney, "zanzibar harbour")
	if err := rs.Ingest(owned, unowned); !errors.Is(err, tklus.ErrRejected) {
		t.Fatalf("batch with a post no shard owns: err = %v, want tklus.ErrRejected", err)
	}
	body := fmt.Sprintf(`{"version":1,"posts":[{"sid":%d,"uid":99002,"lat":%v,"lon":%v,"text":"zanzibar harbour"}]}`,
		unowned.SID, sydney.Lat, sydney.Lon)
	rec := httptest.NewRecorder()
	server.NewSearcherWith(rs, server.Options{}).ServeHTTP(rec, httptest.NewRequest("POST", "/v1/ingest", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"rejected"`) {
		t.Fatalf("/v1/ingest of a post no shard owns: %d %s, want 400 rejected", rec.Code, rec.Body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rs.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*tklus.Post{owned, unowned} {
		res, _, err := rs.Search(context.Background(), tklus.Query{Loc: p.Loc, RadiusKm: 10, Keywords: []string{"zanzibar"}, K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 0 {
			t.Errorf("search at %v finds %v after the refused batch", p.Loc, res)
		}
		if n := rs.PostCountOfUser(p.UID); n != 0 {
			t.Errorf("user %d has %d posts after the refused batch", p.UID, n)
		}
	}
	// The tier still takes what it owns.
	if err := rs.Ingest(owned); err != nil {
		t.Fatal(err)
	}
}
