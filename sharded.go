package tklus

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/segment"
	"repro/internal/social"
	"repro/internal/telemetry"
)

// This file is the sharded serving tier: posts are partitioned by geohash
// prefix into independent System shards, and a router fans each query only
// to the shards whose regions the query circle touches, merging their
// partial scores into the exact monolithic top-k (core.MergePartials).
// Robustness is the point — per-shard deadlines derived from the request
// context, one hedged retry for stragglers, a circuit breaker per replica,
// and a partial-results mode that reports degraded shards in QueryStats
// instead of failing the whole query.
//
// A shard built by BuildReplicatedSharded is a replica group rather than a
// single backend: the router then reads from the most-preferred healthy
// replica (the leader while its lease holds, the most-caught-up follower
// otherwise — see replication.go) and hedges stragglers to a DIFFERENT
// replica, so one sick copy no longer costs the query its region.

// ShardBackend answers the shard half of a scatter-gather query. *System
// implements it; every shard runs in the router's process. NewSharded takes
// any implementation, which is how tests inject faulty shards and how a
// harness wraps shards in timing decorators.
type ShardBackend interface {
	SearchPartials(ctx context.Context, q Query) (*core.Partials, error)
}

// SearchPartials runs the shard side of a scatter-gather query on this
// system (retrieval + per-candidate scores, no per-user reduction). It makes
// *System a ShardBackend.
func (s *System) SearchPartials(ctx context.Context, q Query) (*core.Partials, error) {
	return s.Engine.SearchPartials(ctx, q)
}

// ShardSpec declares one shard of a ShardedSystem: a backend plus the
// geohash prefixes it owns. Prefixes must all have the router's prefix
// length and no prefix may be owned by two shards.
type ShardSpec struct {
	Name     string
	Backend  ShardBackend
	Prefixes []string
}

// ShardingConfig tunes the router.
type ShardingConfig struct {
	// NumShards is how many shards BuildSharded partitions the corpus into
	// (capped at the number of distinct prefixes actually observed).
	NumShards int
	// PrefixLen is the geohash prefix length posts are partitioned by.
	// The circle cover at this precision decides which shards a query
	// fans out to, so shorter prefixes mean coarser shards and wider
	// fan-out per query.
	PrefixLen int
	// ShardTimeout bounds each per-shard sub-query. When the request
	// context carries an earlier deadline, the sub-query gets 90% of the
	// remaining budget instead, reserving headroom for the merge. Zero
	// means no per-shard timeout beyond the request context's.
	ShardTimeout time.Duration
	// HedgeDelay launches one backup attempt against a shard that has not
	// answered after this long (and immediately after a first attempt that
	// failed with a retryable error); the backup goes to a different
	// replica when the shard has one whose breaker admits it. The first
	// success wins. Zero disables hedging.
	HedgeDelay time.Duration
	// BreakerThreshold trips a replica's circuit breaker after this many
	// consecutive failed requests; while open, the router prefers its
	// siblings (or degrades instantly when the shard has no other
	// replica). Zero disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// a half-open probe request.
	BreakerCooldown time.Duration
	// FailOnPartial makes any shard failure fail the whole query with
	// ErrShardUnavailable. The default (false) returns the merged results
	// of the answering shards and reports the rest in
	// QueryStats.DegradedShards.
	FailOnPartial bool
}

// DefaultShardingConfig returns the serving defaults: 4 shards on
// 3-character prefixes (~156 km cells, so metro-scale queries touch one or
// two shards), 2 s shard deadline, 100 ms hedge, breaker tripping after 5
// consecutive failures with a 5 s cooldown, partial results on.
func DefaultShardingConfig() ShardingConfig {
	return ShardingConfig{
		NumShards:        4,
		PrefixLen:        3,
		ShardTimeout:     2 * time.Second,
		HedgeDelay:       100 * time.Millisecond,
		BreakerThreshold: 5,
		BreakerCooldown:  5 * time.Second,
	}
}

// shardReplica is one routed copy of a shard with its own breaker.
type shardReplica struct {
	name    string
	backend ShardBackend
	br      *breaker
}

// shard is one routed member: its replicas plus the prefixes it owns. A
// NewSharded shard has one replica and no group; a BuildReplicatedSharded
// shard has one replica per member of its group, in the group's order.
type shard struct {
	name     string
	prefixes []string
	replicas []*shardReplica
	group    *ReplicaGroup // nil for static (non-replicated) shards
}

// ordered returns the shard's replicas in routing preference order: the
// group's (leader first, then followers by catch-up) when it has one,
// declared order otherwise.
func (sh *shard) ordered() []*shardReplica {
	if sh.group == nil || len(sh.replicas) == 1 {
		return sh.replicas
	}
	names := sh.group.PreferredOrder()
	out := make([]*shardReplica, 0, len(names))
	for _, n := range names {
		for _, r := range sh.replicas {
			if r.name == n {
				out = append(out, r)
			}
		}
	}
	return out
}

// ShardedSystem routes TkLUS queries across geohash-partitioned shards.
// It implements Searcher; results are byte-identical to a monolithic
// System over the union corpus whenever every overlapping shard answers.
// Built by BuildSharded it is read-only: it has no Ingest, and its shards
// serve the corpus they were built over. A tier that takes ingest is a
// ReplicatedShardedSystem.
type ShardedSystem struct {
	cfg      ShardingConfig
	alpha    float64
	shards   []*shard
	byPrefix map[string]int

	metrics *shardedMetrics // nil until RegisterMetrics

	// Systems holds the in-process shard systems when the tier was built
	// with BuildSharded (they share one corpus table and popularity
	// bounds, and each serves a store over the build image of its own
	// region's posts and texts); empty for a router assembled by
	// NewSharded.
	Systems []*System
}

// NewSharded assembles a router over explicit shard backends (systems, or
// decorators and fakes standing in for them). alpha is
// the scoring model's Definition 10 weight and must match every shard's
// engine. cfg.NumShards is ignored here; cfg.PrefixLen must match the
// specs' prefix lengths.
func NewSharded(alpha float64, cfg ShardingConfig, specs []ShardSpec) (*ShardedSystem, error) {
	shards := make([]*shard, len(specs))
	for i, spec := range specs {
		if spec.Backend == nil {
			return nil, fmt.Errorf("tklus: shard %d has no backend", i)
		}
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("shard-%02d", i)
		}
		shards[i] = &shard{
			name:     name,
			prefixes: spec.Prefixes,
			replicas: []*shardReplica{{name: name, backend: spec.Backend}},
		}
	}
	return newRouter(alpha, cfg, shards)
}

// newRouter wires the router over its shards: it validates their prefixes,
// gives every replica its circuit breaker and indexes the routing table.
func newRouter(alpha float64, cfg ShardingConfig, shards []*shard) (*ShardedSystem, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("tklus: sharded system needs at least one shard")
	}
	if cfg.PrefixLen <= 0 {
		return nil, fmt.Errorf("tklus: sharding prefix length must be positive")
	}
	ss := &ShardedSystem{cfg: cfg, alpha: alpha, shards: shards, byPrefix: make(map[string]int)}
	for i, sh := range shards {
		if len(sh.prefixes) == 0 {
			return nil, fmt.Errorf("tklus: shard %d owns no prefixes", i)
		}
		for _, r := range sh.replicas {
			r.br = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, nil)
		}
		for _, p := range sh.prefixes {
			if len(p) != cfg.PrefixLen {
				return nil, fmt.Errorf("tklus: shard %s prefix %q has length %d, want %d",
					sh.name, p, len(p), cfg.PrefixLen)
			}
			if j, dup := ss.byPrefix[p]; dup {
				return nil, fmt.Errorf("tklus: prefix %q owned by both %s and %s",
					p, shards[j].name, sh.name)
			}
			ss.byPrefix[p] = i
		}
		sh.prefixes = append([]string(nil), sh.prefixes...)
		sort.Strings(sh.prefixes)
	}
	return ss, nil
}

// partitionByPrefix buckets posts by geohash prefix at prefixLen and
// balances the prefixes across at most numShards shards greedily by post
// count (largest prefix first onto the least-loaded shard), so one hot
// metro does not get a shard to itself while others sit empty. It returns
// the per-shard prefix sets and post sets; the shard count is capped at
// the number of distinct prefixes observed.
func partitionByPrefix(posts []*Post, prefixLen, numShards int) (shardPrefixes [][]string, shardPosts [][]*Post) {
	byPrefix := make(map[string][]*Post)
	for _, p := range posts {
		pre := geo.Encode(p.Loc, prefixLen)
		byPrefix[pre] = append(byPrefix[pre], p)
	}
	prefixes := make([]string, 0, len(byPrefix))
	for pre := range byPrefix {
		prefixes = append(prefixes, pre)
	}
	sort.Slice(prefixes, func(i, j int) bool {
		a, b := prefixes[i], prefixes[j]
		if len(byPrefix[a]) != len(byPrefix[b]) {
			return len(byPrefix[a]) > len(byPrefix[b])
		}
		return a < b
	})
	n := numShards
	if n > len(prefixes) {
		n = len(prefixes)
	}
	shardPrefixes = make([][]string, n)
	shardPosts = make([][]*Post, n)
	for _, pre := range prefixes {
		least := 0
		for i := 1; i < n; i++ {
			if len(shardPosts[i]) < len(shardPosts[least]) {
				least = i
			}
		}
		shardPrefixes[least] = append(shardPrefixes[least], pre)
		shardPosts[least] = append(shardPosts[least], byPrefix[pre]...)
	}
	return shardPrefixes, shardPosts
}

// shardImage is one shard's immutable half, shared by every copy of the
// shard: the prefixes it owns and the build image of its posts, which holds
// every tweet its postings name, so the shard's radius filter never reaches
// the shared corpus table.
type shardImage struct {
	name     string
	prefixes []string
	img      *segment.Segment
	// owns reports whether a post's geohash prefix is one of prefixes: a
	// copy of the shard indexes only the ingested posts it owns.
	owns func(*Post) bool
}

// buildShards partitions the posts by geohash prefix into at most
// sc.NumShards shards and builds each one's image, its rows numbered by
// their posts' ordinals in db. The shard's corpus table is the caller's:
// BuildSharded shares db, BuildReplicatedSharded gives every replica its
// own, derived from the same posts, so the same ordinals.
func buildShards(posts []*Post, db *social.Corpus, cfg Config, sc ShardingConfig) ([]shardImage, error) {
	if len(posts) == 0 {
		return nil, fmt.Errorf("tklus: no posts to index")
	}
	if sc.NumShards <= 0 {
		return nil, fmt.Errorf("tklus: shard count must be positive")
	}
	if sc.PrefixLen <= 0 {
		return nil, fmt.Errorf("tklus: sharding prefix length must be positive")
	}
	shardPrefixes, shardPosts := partitionByPrefix(posts, sc.PrefixLen, sc.NumShards)
	images := make([]shardImage, len(shardPrefixes))
	for i := range images {
		name := fmt.Sprintf("shard-%02d", i)
		img, err := segment.FromPosts(shardPosts[i], db, cfg.Index.GeohashLen, cfg.Index.BlockSize)
		if err != nil {
			return nil, fmt.Errorf("tklus: building %s index: %w", name, err)
		}
		prefixes := shardPrefixes[i]
		slices.Sort(prefixes)
		images[i] = shardImage{name: name, prefixes: prefixes, img: img, owns: func(p *Post) bool {
			_, ok := slices.BinarySearch(prefixes, geo.Encode(p.Loc, sc.PrefixLen))
			return ok
		}}
	}
	return images, nil
}

// BuildSharded partitions the posts by geohash prefix into cfg.NumShards
// in-process shards and wires the router over them. Following Figure 3's
// centralized metadata database, every shard shares one corpus table (in
// production: a replica), while each shard's hybrid index, and the rows
// behind it, cover only its own region, each row naming its post's ordinal
// in the shared table — that shared foundation is what makes cross-shard
// threads and |P_u| exact, and the merged results byte-identical to a
// monolithic Build over the same posts.
func BuildSharded(posts []*Post, cfg Config, sc ShardingConfig) (*ShardedSystem, error) {
	// Shared foundation (Figure 3's centralized metadata database,
	// replicated to every shard in a real deployment).
	db, err := social.NewCorpus(posts, cfg.Engine.Params.ThreadDepth)
	if err != nil {
		return nil, fmt.Errorf("tklus: deriving the corpus table: %w", err)
	}
	images, err := buildShards(posts, db, cfg, sc)
	if err != nil {
		return nil, err
	}

	specs := make([]ShardSpec, len(images))
	systems := make([]*System, len(images))
	for i, im := range images {
		sys, err := newHeapSystem(cfg, db, im.owns, im.img)
		if err != nil {
			return nil, fmt.Errorf("tklus: %s: %w", im.name, err)
		}
		systems[i] = sys
		specs[i] = ShardSpec{Name: im.name, Backend: sys, Prefixes: im.prefixes}
	}
	ss, err := NewSharded(cfg.Engine.Params.Alpha, sc, specs)
	if err != nil {
		return nil, err
	}
	ss.Systems = systems
	return ss, nil
}

// NumShards returns the number of shards behind the router.
func (ss *ShardedSystem) NumShards() int { return len(ss.shards) }

// ShardNames returns the shard names in routing order.
func (ss *ShardedSystem) ShardNames() []string {
	out := make([]string, len(ss.shards))
	for i, sh := range ss.shards {
		out[i] = sh.name
	}
	return out
}

// ShardPrefixes returns each shard's owned geohash prefixes by name —
// the routing table, for inspection and for composing a new router over
// the same partitioning (e.g. wrapping each shard in a decorator).
func (ss *ShardedSystem) ShardPrefixes() map[string][]string {
	out := make(map[string][]string, len(ss.shards))
	for _, sh := range ss.shards {
		out[sh.name] = append([]string(nil), sh.prefixes...)
	}
	return out
}

// PostCountOfUser reports the user's global post count |P_u| from the
// shared corpus table of an in-process build (the HTTP server uses it to
// enrich results). A router assembled by NewSharded holds no corpus table
// and reports 0.
func (ss *ShardedSystem) PostCountOfUser(uid UserID) int {
	if len(ss.Systems) > 0 {
		return ss.Systems[0].DB.PostCountOfUser(uid)
	}
	return 0
}

// BreakerStates reports each shard's circuit-breaker state by name
// (closed, open, half_open) — the operator's view of tier health. For a
// replicated shard this is the state of the currently preferred replica's
// breaker; ReplicaBreakerStates breaks the set out per replica.
func (ss *ShardedSystem) BreakerStates() map[string]string {
	out := make(map[string]string, len(ss.shards))
	for _, sh := range ss.shards {
		out[sh.name] = sh.ordered()[0].br.snapshot().String()
	}
	return out
}

// ReplicaBreakerStates reports every replica's circuit-breaker state,
// keyed by shard name then replica name.
func (ss *ShardedSystem) ReplicaBreakerStates() map[string]map[string]string {
	out := make(map[string]map[string]string, len(ss.shards))
	for _, sh := range ss.shards {
		m := make(map[string]string, len(sh.replicas))
		for _, r := range sh.replicas {
			m[r.name] = r.br.snapshot().String()
		}
		out[sh.name] = m
	}
	return out
}

// errBreakerOpen marks a sub-query rejected without reaching any backend.
var errBreakerOpen = errors.New("circuit breaker open")

// nonHedgeable reports whether an error is deterministic: re-asking the
// same question — of this replica or any other — will fail the same way,
// so a backup attempt would only burn work and skew the hedge counters.
func nonHedgeable(err error) bool {
	return errors.Is(err, core.ErrBadQuery) ||
		errors.Is(err, core.ErrNoResults) ||
		errors.Is(err, ErrStaleEpoch)
}

// classifyOutcome maps a finished sub-query attempt to its breaker
// outcome. Classification table (see DESIGN §12):
//
//	nil error                      → success (backend answered)
//	caller canceled / parent died  → abandon (says nothing about backend)
//	deterministic query error      → abandon (client's fault, not backend's)
//	anything else                  → failure (timeout, transport, engine)
func classifyOutcome(err error, parent context.Context) breakerOutcome {
	switch {
	case err == nil:
		return outcomeSuccess
	case errors.Is(err, context.Canceled), parent.Err() != nil:
		return outcomeAbandon
	case errors.Is(err, core.ErrBadQuery):
		return outcomeAbandon
	default:
		return outcomeFailure
	}
}

// Search executes a TkLUS query across the shards: compute the circle
// cover at the sharding prefix length, fan the query to the shards owning
// a covered prefix, and merge their partials into the exact monolithic
// top-k. Shards that time out, error, or sit entirely behind open breakers
// are reported in QueryStats.DegradedShards (unless FailOnPartial); the
// query fails with ErrShardUnavailable only when no overlapping shard
// answers. For replicated shards, QueryStats.ReplicaLagSIDs reports the
// worst replication lag among the replicas that served this query — 0
// means every answer came from a fully caught-up copy.
// It implements Searcher.
func (ss *ShardedSystem) Search(ctx context.Context, q Query) ([]UserResult, *QueryStats, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	// The router span parents every per-shard attempt; with tracing off it
	// is nil and every operation on it below is a no-op.
	rspan := telemetry.SpanFromContext(ctx).StartChild("router")
	defer rspan.Finish()
	cover := geo.CircleCover(q.Loc, q.RadiusKm, ss.cfg.PrefixLen)
	targets := make([]int, 0, len(ss.shards))
	seen := make(map[int]bool, len(ss.shards))
	for _, cell := range cover {
		if i, ok := ss.byPrefix[cell]; ok && !seen[i] {
			seen[i] = true
			targets = append(targets, i)
		}
	}
	sort.Ints(targets)
	rspan.SetAttr("cover_cells", fmt.Sprintf("%d", len(cover)))
	rspan.SetAttr("fanout", fmt.Sprintf("%d", len(targets)))
	if len(targets) == 0 {
		// No shard owns a covered prefix: no indexed post can lie inside
		// the circle, the same empty outcome a monolithic search produces.
		return []UserResult{}, &QueryStats{Cells: len(cover), Elapsed: time.Since(start)}, nil
	}

	type outcome struct {
		parts   *core.Partials
		err     error
		elapsed time.Duration
		hedged  bool
		lag     int64
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// The shard calls are independent: one goroutine per target, the first
	// target on this one. A shard failure degrades the query below and never
	// cancels its siblings.
	outs := make([]outcome, len(targets))
	call := func(i int) {
		sh := ss.shards[targets[i]]
		t0 := time.Now()
		parts, lag, hedged, err := ss.callShard(ctx, rspan, sh, q)
		outs[i] = outcome{parts: parts, err: err, elapsed: time.Since(t0), hedged: hedged, lag: lag}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(targets); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call(i)
		}()
	}
	call(0)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	good := make([]*core.Partials, 0, len(targets))
	var failures []core.ShardFailure
	var maxLag int64
	for i, o := range outs {
		sh := ss.shards[targets[i]]
		ss.metrics.observeShard(sh.name, o.elapsed, o.err, o.hedged)
		if o.err != nil {
			failures = append(failures, core.ShardFailure{Shard: sh.name, Reason: o.err.Error()})
			rspan.Event(telemetry.EventDegradedShard, sh.name+": "+o.err.Error())
			continue
		}
		if o.lag > maxLag {
			maxLag = o.lag
		}
		good = append(good, o.parts)
	}
	if len(good) == 0 {
		ss.metrics.countQuery("unavailable")
		return nil, nil, fmt.Errorf("tklus: %w: all %d overlapping shards failed (first: %s)",
			core.ErrShardUnavailable, len(targets), failures[0].Reason)
	}
	if len(failures) > 0 && ss.cfg.FailOnPartial {
		ss.metrics.countQuery("unavailable")
		return nil, nil, fmt.Errorf("tklus: %w: shard %s failed and partial results are disabled: %s",
			core.ErrShardUnavailable, failures[0].Shard, failures[0].Reason)
	}

	results, stats, err := core.MergePartials(q, ss.alpha, good)
	if err != nil {
		return nil, nil, err
	}
	stats.DegradedShards = failures
	stats.ReplicaLagSIDs = maxLag
	stats.Elapsed = time.Since(start)
	if len(failures) > 0 {
		ss.metrics.countQuery("degraded")
	} else {
		ss.metrics.countQuery("ok")
	}
	return results, stats, nil
}

// callShard runs one shard sub-query: pick the most-preferred replica
// whose breaker admits the request, derive the per-shard deadline, and run
// the hedged attempt pair. The returned lag is the winning replica's
// replication lag in records (0 for static shards and leaders).
func (ss *ShardedSystem) callShard(ctx context.Context, rspan *telemetry.TraceSpan, sh *shard, q Query) (*core.Partials, int64, bool, error) {
	order := sh.ordered()
	var primary *shardReplica
	var primaryTok breakerToken
	for _, r := range order {
		if tok, ok := r.br.allow(); ok {
			primary, primaryTok = r, tok
			break
		}
	}
	if primary == nil {
		ss.metrics.countRejected(sh.name)
		rspan.Event(telemetry.EventBreakerOpen, sh.name)
		return nil, 0, false, fmt.Errorf("shard %s: %w", sh.name, errBreakerOpen)
	}
	// Per-shard deadline derived from the request context: the configured
	// shard timeout, or 90% of the context's remaining budget if that is
	// tighter — the headroom pays for the merge. The parent is kept so the
	// failure classification below can tell "the shard blew its budget"
	// from "the whole query went away".
	parent := ctx
	timeout := ss.cfg.ShardTimeout
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl) * 9 / 10
		if timeout <= 0 || remaining < timeout {
			timeout = remaining
		}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	parts, winner, hedged, err := ss.attempt(ctx, parent, rspan, sh, q, order, primary, primaryTok)
	var lag int64
	if err == nil && sh.group != nil && winner != nil {
		lag = sh.group.LagRecords(winner.name)
	}
	return parts, lag, hedged, err
}

// attemptSlot tracks one issued attempt's replica and breaker token. The
// once is shared between attempts that share a token (a same-replica hedge
// pair counts once toward that replica's breaker), so each token reports
// exactly one outcome no matter which path observes the attempt finish.
type attemptSlot struct {
	rep  *shardReplica
	tok  breakerToken
	once *sync.Once
}

func (s *attemptSlot) report(oc breakerOutcome) {
	s.once.Do(func() { s.rep.br.done(s.tok, oc) })
}

// attempt issues the sub-query with at most one backup attempt: the hedge
// fires after HedgeDelay if the primary replica has not answered (the
// straggler case), or immediately when the first attempt fails fast with a
// RETRYABLE error — deterministic failures (nonHedgeable) return at once
// without burning a duplicate. The backup goes to the next replica in
// preference order whose breaker admits it; a shard with no other
// admitting replica hedges the same backend again (sharing the primary's
// breaker token, so the pair still counts once). The first success wins;
// the loser's context is canceled and its breaker outcome is reported by a
// drain goroutine once it unwinds — the breaker's generation tokens make
// that late report safe.
//
// Each issued attempt gets its own span under the router span, so a hedge
// appears as a sibling of the attempt it backs up; the loser's span stays
// open and is snapshotted as unfinished when the trace completes. The
// winner's span absorbs the shard's engine stage timings, which Partials
// carries back from the shard.
func (ss *ShardedSystem) attempt(ctx, parent context.Context, rspan *telemetry.TraceSpan, sh *shard, q Query,
	order []*shardReplica, primary *shardReplica, primaryTok breakerToken) (*core.Partials, *shardReplica, bool, error) {

	issue := func(cctx context.Context, rep *shardReplica, backup bool) (*core.Partials, error) {
		aspan := rspan.StartChild("shard.attempt")
		aspan.SetShard(sh.name)
		if len(sh.replicas) > 1 {
			aspan.SetAttr("replica", rep.name)
		}
		if backup {
			aspan.SetAttr("hedge", "backup")
		}
		t0 := time.Now()
		parts, err := rep.backend.SearchPartials(telemetry.ContextWithSpan(cctx, aspan), q)
		if err != nil {
			aspan.SetError(err)
		} else {
			aspan.FoldStages(t0, parts.Stats.Spans)
		}
		aspan.Finish()
		return parts, err
	}

	primarySlot := &attemptSlot{rep: primary, tok: primaryTok, once: new(sync.Once)}
	if ss.cfg.HedgeDelay <= 0 {
		parts, err := issue(ctx, primary, false)
		primarySlot.report(classifyOutcome(err, parent))
		if err != nil {
			return nil, nil, false, err
		}
		return parts, primary, false, nil
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type res struct {
		idx   int
		parts *core.Partials
		err   error
	}
	ch := make(chan res, 2)
	slots := []*attemptSlot{primarySlot}
	run := func(idx int, rep *shardReplica, backup bool) {
		parts, err := issue(actx, rep, backup)
		ch <- res{idx, parts, err}
	}
	go run(0, primary, false)
	timer := time.NewTimer(ss.cfg.HedgeDelay)
	defer timer.Stop()
	outstanding := 1
	hedged := false
	var firstErr error
	// hedge launches the backup attempt: the next replica in preference
	// order whose breaker admits it, or the primary again (sharing its
	// token) when the shard has no other admitting copy.
	hedge := func() {
		hedged = true
		target, slot := primary, &attemptSlot{rep: primary, tok: primaryTok, once: primarySlot.once}
		for _, r := range order {
			if r == primary {
				continue
			}
			if tok, ok := r.br.allow(); ok {
				target = r
				slot = &attemptSlot{rep: r, tok: tok, once: new(sync.Once)}
				break
			}
		}
		slots = append(slots, slot)
		outstanding++
		rspan.Event(telemetry.EventHedge, sh.name)
		go run(len(slots)-1, target, true)
	}
	// drain reports the breaker outcome of attempts still in flight when
	// we return — they unwind after cancel() and prove nothing beyond what
	// classifyOutcome says about them then.
	drain := func() {
		if outstanding == 0 {
			return
		}
		n := outstanding
		go func() {
			for i := 0; i < n; i++ {
				r := <-ch
				slots[r.idx].report(classifyOutcome(r.err, parent))
			}
		}()
	}
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				slots[r.idx].report(outcomeSuccess)
				drain()
				return r.parts, slots[r.idx].rep, hedged, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if !hedged {
				if nonHedgeable(r.err) {
					slots[r.idx].report(classifyOutcome(r.err, parent))
					return nil, nil, false, r.err
				}
				// The primary's verdict is in; if the hedge goes to a
				// different replica it carries its own token, so settle the
				// primary's now. (A same-replica hedge shares the once, so
				// this settles the pair — by then the primary has already
				// failed, which is the honest whole-pair outcome.)
				slots[r.idx].report(classifyOutcome(r.err, parent))
				hedge()
				continue
			}
			slots[r.idx].report(classifyOutcome(r.err, parent))
			if outstanding == 0 {
				return nil, nil, hedged, firstErr
			}
		case <-timer.C:
			if !hedged {
				hedge()
			}
		case <-ctx.Done():
			drain()
			return nil, nil, hedged, ctx.Err()
		}
	}
}

// shardedMetrics bundles the router's telemetry handles. A nil receiver is
// a no-op so an unregistered router costs nothing.
type shardedMetrics struct {
	reg *telemetry.Registry
}

// RegisterMetrics hooks the router into a telemetry registry: per-shard
// request counters by outcome, per-shard latency histograms, hedge
// counters, per-replica breaker-state gauges, and router-level query
// outcomes.
func (ss *ShardedSystem) RegisterMetrics(reg *telemetry.Registry) {
	ss.metrics = &shardedMetrics{reg: reg}
	for _, sh := range ss.shards {
		sh := sh
		// Pre-register the per-shard series so a fresh tier scrapes a
		// complete all-zero set, matching the server metrics' convention.
		for _, outcome := range []string{"ok", "error", "rejected", "canceled"} {
			reg.Counter("tklus_shard_requests_total",
				"Per-shard sub-queries by outcome.",
				telemetry.Labels{"shard": sh.name, "outcome": outcome})
		}
		reg.Counter("tklus_shard_hedges_total",
			"Backup sub-queries launched against straggler or failing shards.",
			telemetry.Labels{"shard": sh.name})
		reg.Histogram("tklus_shard_request_seconds",
			"Per-shard sub-query latency (including hedges and timeouts).",
			telemetry.Labels{"shard": sh.name}, nil)
		for _, rep := range sh.replicas {
			rep := rep
			reg.GaugeFunc("tklus_shard_breaker_state",
				"Circuit breaker state per replica (0 closed, 1 half-open, 2 open).",
				telemetry.Labels{"shard": sh.name, "replica": rep.name}, func() float64 {
					switch rep.br.snapshot() {
					case breakerOpen:
						return 2
					case breakerHalfOpen:
						return 1
					default:
						return 0
					}
				})
		}
	}
	for _, outcome := range []string{"ok", "degraded", "unavailable"} {
		reg.Counter("tklus_sharded_queries_total",
			"Scatter-gather queries by outcome.", telemetry.Labels{"outcome": outcome})
	}
}

func (m *shardedMetrics) observeShard(name string, d time.Duration, err error, hedged bool) {
	if m == nil {
		return
	}
	outcome := "ok"
	if errors.Is(err, errBreakerOpen) {
		return // counted by countRejected at the breaker
	} else if errors.Is(err, context.Canceled) {
		outcome = "canceled" // caller went away; not a shard error
	} else if err != nil {
		outcome = "error"
	}
	m.reg.Counter("tklus_shard_requests_total", "Per-shard sub-queries by outcome.",
		telemetry.Labels{"shard": name, "outcome": outcome}).Inc()
	m.reg.Histogram("tklus_shard_request_seconds",
		"Per-shard sub-query latency (including hedges and timeouts).",
		telemetry.Labels{"shard": name}, nil).Observe(d.Seconds())
	if hedged {
		m.reg.Counter("tklus_shard_hedges_total",
			"Backup sub-queries launched against straggler or failing shards.",
			telemetry.Labels{"shard": name}).Inc()
	}
}

func (m *shardedMetrics) countRejected(name string) {
	if m == nil {
		return
	}
	m.reg.Counter("tklus_shard_requests_total", "Per-shard sub-queries by outcome.",
		telemetry.Labels{"shard": name, "outcome": "rejected"}).Inc()
}

func (m *shardedMetrics) countQuery(outcome string) {
	if m == nil {
		return
	}
	m.reg.Counter("tklus_sharded_queries_total", "Scatter-gather queries by outcome.",
		telemetry.Labels{"outcome": outcome}).Inc()
}
