package tklus

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/social"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// This file turns a shard into a REPLICA GROUP: one leader and N followers
// over identical state. The leader accepts the shard's ingest stream and
// appends every post to its segment WAL (the same log crash recovery
// replays); a shipper per follower tails that WAL with wal.OpenTail and
// replays each framed record through the follower's normal Ingest path, so
// a follower reproduces the leader's state transitions exactly — corpus
// table append, then the level counts — and its answers
// are byte-identical once it has applied through the query's horizon.
// Re-shipping after a failover is idempotent: post IDs are monotone, so a
// follower skips any record at or below its corpus table's high-water SID,
// the same rule crash replay uses.
//
// Leadership is a lease with an epoch fencing token (lease.go): ingest is
// stamped with the epoch it was accepted under, IngestAs rejects stamps
// older than the current lease, and shippers stop applying the moment the
// group's epoch moves past theirs — a deposed leader cannot smuggle a late
// write into the group through either door.
//
// Replica topology follows the paper's Figure 3: the metadata database is
// "centralized … replicated", so every replica holds a FULL copy of the
// corpus table and popularity bounds (thread expansion and |P_u| are
// global). Each replica's index is its own store over the shard's build
// image (immutable, so SHARED by the replicas), whose memtable indexes the
// ingested posts in the shard's prefixes. Every group receives every post,
// so any replica, a promoted follower included, scores its region's
// candidates exactly, the acknowledged posts among them.

// Typed sentinels of the replication layer. Match with errors.Is.
var (
	// ErrStaleEpoch rejects work stamped with an epoch older than the
	// group's current lease — the fencing rule.
	ErrStaleEpoch = errors.New("tklus: stale replication epoch")
	// ErrNotLeader rejects ingest routed to a replica that does not hold
	// the group's lease.
	ErrNotLeader = errors.New("tklus: not the shard leader")
	// ErrReplicaDown marks a replica administratively killed (fault
	// injection, decommission); its reads and writes fail fast.
	ErrReplicaDown = errors.New("tklus: replica down")
)

// ReplicationConfig tunes BuildReplicatedSharded.
type ReplicationConfig struct {
	// Replicas is the copies per shard (1 leader + Replicas-1 followers).
	// Must be at least 1; 1 degenerates to an unreplicated shard that
	// still pays WAL appends.
	Replicas int
	// Dir is the root directory for per-replica WAL directories
	// (<Dir>/shard-XX/rN/wal). Required.
	Dir string
	// LeaseTTL is the leadership lease duration; failover cannot complete
	// before a dead leader's lease lapses, so this bounds fail-over time
	// from below and split-brain risk from above. Non-positive defaults
	// to 150ms.
	LeaseTTL time.Duration
	// ShipInterval is the shipper's poll cadence when it has caught up
	// with the leader's WAL tail. Non-positive defaults to 2ms.
	ShipInterval time.Duration
	// WAL is the per-replica ingest log's fsync policy.
	WAL WALOptions
	// LeaseManagerFor, when set, supplies the lease manager per shard —
	// the hook for an external coordination store. Nil uses an in-process
	// LocalLeaseManager per group.
	LeaseManagerFor func(shard string) LeaseManager
}

// DefaultReplicationConfig returns 2 replicas per shard with a 150ms
// lease and a 2ms shipping poll.
func DefaultReplicationConfig() ReplicationConfig {
	return ReplicationConfig{Replicas: 2, LeaseTTL: 150 * time.Millisecond, ShipInterval: 2 * time.Millisecond}
}

// GroupReplica is one copy of a shard inside a replica group. It
// implements ShardBackend, so the router reads from it directly; a downed
// replica fails reads fast with ErrReplicaDown.
type GroupReplica struct {
	name   string
	sys    *System
	walDir string // this replica's own WAL directory (the shipping source when it leads)

	down     atomic.Bool
	consumed atomic.Int64 // records consumed from the CURRENT leader's stream (reset per promotion)
	shipErr  atomic.Value // last shipping error (error), for diagnostics
}

// Name returns the replica's name (shard-XX/rN).
func (r *GroupReplica) Name() string { return r.name }

// System exposes the replica's underlying system (tests and tools).
func (r *GroupReplica) System() *System { return r.sys }

// Down reports whether the replica is administratively down.
func (r *GroupReplica) Down() bool { return r.down.Load() }

// ShipError returns the last error that stopped this replica's shipper,
// nil if it never failed.
func (r *GroupReplica) ShipError() error {
	if v := r.shipErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// SearchPartials makes the replica a ShardBackend. A downed replica fails
// fast so the router's breaker and preference order route around it.
func (r *GroupReplica) SearchPartials(ctx context.Context, q Query) (*core.Partials, error) {
	if r.down.Load() {
		return nil, fmt.Errorf("replica %s: %w", r.name, ErrReplicaDown)
	}
	return r.sys.SearchPartials(ctx, q)
}

// maxSID is the replica's applied high-water mark — the global progress
// measure used to pick the most-caught-up successor at election time.
func (r *GroupReplica) maxSID() PostID {
	_, max := r.sys.DB.SIDRange()
	return max
}

// ReplicaGroup is one shard's replica set with its leadership state and
// WAL shippers. The router holds it to order the shard's replicas and to
// read the winning replica's lag.
type ReplicaGroup struct {
	shard        string
	replicas     []*GroupReplica
	lm           LeaseManager
	leaseTTL     time.Duration
	shipInterval time.Duration

	mu     sync.Mutex
	leader *GroupReplica // nil before the first election
	epoch  uint64        // the lease epoch the current leader was promoted under
	stop   chan struct{} // closed to stop the current generation's shippers

	failovers atomic.Int64 // leadership CHANGES (the first election is not one)
	wg        sync.WaitGroup
}

// newReplicaGroup returns an empty group; the caller adds its replicas and
// elects the first leader via EnsureLeader.
func newReplicaGroup(shard string, lm LeaseManager, ttl, shipInterval time.Duration) *ReplicaGroup {
	if ttl <= 0 {
		ttl = 150 * time.Millisecond
	}
	if shipInterval <= 0 {
		shipInterval = 2 * time.Millisecond
	}
	return &ReplicaGroup{
		shard: shard, lm: lm,
		leaseTTL: ttl, shipInterval: shipInterval,
	}
}

// Shard returns the shard name the group serves.
func (g *ReplicaGroup) Shard() string { return g.shard }

// Replicas returns the group's replicas in declared order.
func (g *ReplicaGroup) Replicas() []*GroupReplica {
	return append([]*GroupReplica(nil), g.replicas...)
}

// Replica returns the named replica, or nil.
func (g *ReplicaGroup) Replica(name string) *GroupReplica {
	for _, r := range g.replicas {
		if r.name == name {
			return r
		}
	}
	return nil
}

// Epoch returns the epoch of the current leadership, 0 before the first
// election.
func (g *ReplicaGroup) Epoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// Leader returns the current leader's name, "" before the first election.
// The answer is advisory — only the lease decides whose writes are
// accepted.
func (g *ReplicaGroup) Leader() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.leader == nil {
		return ""
	}
	return g.leader.name
}

// Failovers returns how many leadership changes the group has seen.
func (g *ReplicaGroup) Failovers() int64 { return g.failovers.Load() }

// PreferredOrder returns the replica names the router tries in order: the
// valid-lease leader first, then live replicas by applied high-water SID
// (most caught-up first), downed replicas last.
func (g *ReplicaGroup) PreferredOrder() []string {
	g.mu.Lock()
	leader := g.leader
	g.mu.Unlock()
	cur, held := g.lm.Current()
	type ranked struct {
		name string
		tier int // 2 valid leader, 1 alive, 0 down
		sid  PostID
	}
	rs := make([]ranked, 0, len(g.replicas))
	for _, r := range g.replicas {
		tier := 1
		switch {
		case r.down.Load():
			tier = 0
		case leader != nil && r == leader && held && cur.Holder == r.name:
			tier = 2
		}
		rs = append(rs, ranked{name: r.name, tier: tier, sid: r.maxSID()})
	}
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].tier != rs[j].tier {
			return rs[i].tier > rs[j].tier
		}
		return rs[i].sid > rs[j].sid
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.name
	}
	return out
}

// LagRecords returns how many records of the current leader's
// acknowledged WAL stream the named replica has not yet consumed. The
// leader (and an unelected group) reports 0. Just after a failover the new
// stream is re-shipped from its start, so lag transiently reads as the full
// stream length and collapses as the follower's idempotent skip consumes
// it.
func (g *ReplicaGroup) LagRecords(name string) int64 {
	g.mu.Lock()
	leader := g.leader
	g.mu.Unlock()
	if leader == nil || leader.name == name {
		return 0
	}
	rep := g.Replica(name)
	if rep == nil {
		return 0
	}
	lag := leader.sys.walStats().Records - rep.consumed.Load()
	if lag < 0 {
		lag = 0
	}
	return lag
}

// EnsureLeader establishes a valid leadership: renew the current leader's
// lease if it is alive, otherwise elect the most-caught-up live replica —
// waiting out the old lease if one is still unexpired (the safety window
// that fences a silent leader). It returns once a leader holds a valid
// lease or the context ends.
func (g *ReplicaGroup) EnsureLeader(ctx context.Context) error {
	for {
		g.mu.Lock()
		leader := g.leader
		g.mu.Unlock()
		if leader != nil && !leader.down.Load() {
			if _, err := g.lm.Renew(leader.name, g.leaseTTL); err == nil {
				return nil
			}
		}
		cand := g.mostCaughtUpAlive()
		if cand == nil {
			return fmt.Errorf("tklus: shard %s: %w: no live replica to elect", g.shard, ErrReplicaDown)
		}
		lease, err := g.lm.Acquire(cand.name, g.leaseTTL)
		if err == nil {
			g.promote(cand, lease)
			return nil
		}
		if !errors.Is(err, ErrLeaseHeld) {
			return err
		}
		// The dead leader's lease has not lapsed yet: wait a beat.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(g.leaseTTL / 10):
		}
	}
}

// mostCaughtUpAlive picks the election candidate: the live replica with
// the highest applied SID (ties to declared order).
func (g *ReplicaGroup) mostCaughtUpAlive() *GroupReplica {
	var best *GroupReplica
	var bestSID PostID
	for _, r := range g.replicas {
		if r.down.Load() {
			continue
		}
		if sid := r.maxSID(); best == nil || sid > bestSID {
			best, bestSID = r, sid
		}
	}
	return best
}

// promote installs a new leadership: swap the leader and epoch, stop the
// previous generation's shippers, and start fresh shippers tailing the new
// leader's WAL from its start (idempotent re-ship).
func (g *ReplicaGroup) promote(cand *GroupReplica, lease Lease) {
	g.mu.Lock()
	prev, prevEpoch := g.leader, g.epoch
	if lease.Epoch == prevEpoch && prev == cand {
		g.mu.Unlock()
		return // same leadership, nothing to restart
	}
	g.leader = cand
	g.epoch = lease.Epoch
	if g.stop != nil {
		close(g.stop)
	}
	g.stop = make(chan struct{})
	stop := g.stop
	g.mu.Unlock()
	if prev != nil && prev != cand {
		g.failovers.Add(1)
	}
	// Every non-leader replica gets a shipper — including downed ones,
	// whose shipper idles in the retry loop until revival. Exactly one
	// shipper per replica per generation means a kill/revive cycle can
	// never race two shippers onto the same stream (which could double-
	// apply a record that passes the SID check in both concurrently).
	for _, r := range g.replicas {
		if r == cand {
			continue
		}
		r.consumed.Store(0)
		g.wg.Add(1)
		go g.ship(lease.Epoch, cand.walDir, r, stop)
	}
}

// ship tails the leader's WAL and replays each record into one follower
// until stopped, fenced by a newer epoch, or failed. It is the
// replication stream: OpenTail surfaces only fully framed, checksummed
// records, so a follower never applies a torn write.
func (g *ReplicaGroup) ship(epoch uint64, leaderDir string, rep *GroupReplica, stop chan struct{}) {
	defer g.wg.Done()
	tr, err := wal.OpenTail(leaderDir)
	if err != nil {
		rep.shipErr.Store(err)
		return
	}
	defer tr.Close()
	for {
		select {
		case <-stop:
			return
		default:
		}
		p, err := tr.Next()
		if errors.Is(err, io.EOF) {
			select {
			case <-stop:
				return
			case <-time.After(g.shipInterval):
			}
			continue
		}
		if err != nil {
			rep.shipErr.Store(err)
			return
		}
		for {
			err := g.applyShipped(epoch, rep, p)
			if err == nil {
				break
			}
			if errors.Is(err, ErrReplicaDown) {
				// The replica is administratively down: hold this record
				// and retry after revival rather than exiting, so the
				// generation keeps exactly one shipper per replica.
				select {
				case <-stop:
					return
				case <-time.After(g.shipInterval):
				}
				continue
			}
			if !errors.Is(err, ErrStaleEpoch) {
				rep.shipErr.Store(err)
			}
			return
		}
	}
}

// applyShipped applies one shipped record to a follower: fence the epoch,
// skip records the follower already holds (SID at or below its high-water
// mark — the crash-replay idempotence rule), and replay the rest through
// the follower's normal Ingest path so every state transition the leader
// made happens here too.
func (g *ReplicaGroup) applyShipped(epoch uint64, rep *GroupReplica, p *Post) error {
	if g.Epoch() != epoch {
		return fmt.Errorf("shipping to %s: %w: epoch %d", rep.name, ErrStaleEpoch, epoch)
	}
	if rep.down.Load() {
		return fmt.Errorf("shipping to %s: %w", rep.name, ErrReplicaDown)
	}
	if p.SID > rep.maxSID() {
		if err := rep.sys.Ingest(p); err != nil {
			return err
		}
	}
	rep.consumed.Add(1)
	return nil
}

// Ingest accepts a batch for the group through its current leader,
// electing one first if needed.
func (g *ReplicaGroup) Ingest(posts ...*Post) error {
	return g.IngestContext(context.Background(), posts...)
}

// IngestContext is Ingest with the caller's context for election waits
// and tracing.
func (g *ReplicaGroup) IngestContext(ctx context.Context, posts ...*Post) error {
	if err := g.EnsureLeader(ctx); err != nil {
		return err
	}
	return g.ingestAs(ctx, g.Epoch(), posts...)
}

// IngestAs accepts a batch stamped with the epoch the caller believes it
// leads under — the write-path fencing check. A deposed leader retrying a
// late write with its old epoch gets ErrStaleEpoch; a caller naming an
// epoch the lease does not back gets ErrNotLeader.
func (g *ReplicaGroup) IngestAs(epoch uint64, posts ...*Post) error {
	return g.ingestAs(context.Background(), epoch, posts...)
}

func (g *ReplicaGroup) ingestAs(ctx context.Context, epoch uint64, posts ...*Post) error {
	cur, held := g.lm.Current()
	if !held || cur.Epoch != epoch {
		return fmt.Errorf("shard %s: %w: write stamped epoch %d, lease epoch %d",
			g.shard, ErrStaleEpoch, epoch, cur.Epoch)
	}
	g.mu.Lock()
	leader := g.leader
	g.mu.Unlock()
	if leader == nil || leader.name != cur.Holder {
		return fmt.Errorf("shard %s: %w: lease held by %s", g.shard, ErrNotLeader, cur.Holder)
	}
	if leader.down.Load() {
		return fmt.Errorf("shard %s leader %s: %w", g.shard, leader.name, ErrReplicaDown)
	}
	if err := leader.sys.IngestContext(ctx, posts...); err != nil {
		return err
	}
	leader.consumed.Add(int64(len(posts))) // the leader applies its own stream
	return nil
}

// KillReplica marks a replica down: reads and writes through it fail
// fast, its shipper pauses at the next record, and — when it was the
// leader — the group stays leaderless until its lease lapses and
// EnsureLeader (or the lease keeper) promotes a successor. This is the
// fault-injection hook; it does not touch on-disk state.
func (g *ReplicaGroup) KillReplica(name string) error {
	rep := g.Replica(name)
	if rep == nil {
		return fmt.Errorf("tklus: shard %s has no replica %q", g.shard, name)
	}
	rep.down.Store(true)
	return nil
}

// ReviveReplica brings a killed replica back as a follower. Its shipper
// never went away — it has been idling in the down-retry loop (or was
// started for it at the last promotion) — so clearing the flag is enough:
// the paused stream resumes, the idempotent SID skip absorbs anything the
// replica already holds, and reads return once the router's breaker
// re-admits it.
func (g *ReplicaGroup) ReviveReplica(name string) error {
	rep := g.Replica(name)
	if rep == nil {
		return fmt.Errorf("tklus: shard %s has no replica %q", g.shard, name)
	}
	rep.down.Store(false)
	return nil
}

// WaitCaughtUp blocks until every live follower has consumed the leader's
// acknowledged stream (LagRecords 0 for all), or the context ends — the
// test and benchmark barrier between "ingest acknowledged" and "any
// replica answers identically".
func (g *ReplicaGroup) WaitCaughtUp(ctx context.Context) error {
	for {
		caughtUp := true
		for _, r := range g.replicas {
			if r.down.Load() {
				continue
			}
			if g.LagRecords(r.name) > 0 {
				caughtUp = false
				break
			}
		}
		if caughtUp {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// close stops the group's shippers and closes every replica's WAL and
// system.
func (g *ReplicaGroup) close() error {
	g.mu.Lock()
	if g.stop != nil {
		close(g.stop)
		g.stop = nil
	}
	g.mu.Unlock()
	g.wg.Wait()
	var errs []error
	for _, r := range g.replicas {
		errs = append(errs, r.sys.CloseWAL(), r.sys.Close())
	}
	return errors.Join(errs...)
}

// ReplicatedShardedSystem is the sharded serving tier with a replica
// group per shard. It embeds the router (Search, metrics, Searcher) and
// adds the replicated write path plus the groups' lifecycle.
type ReplicatedShardedSystem struct {
	*ShardedSystem
	groups []*ReplicaGroup

	keeperStop chan struct{}
	keeperWG   sync.WaitGroup
}

// BuildReplicatedSharded partitions the posts into sc.NumShards shards
// (same placement as BuildSharded) and builds rc.Replicas copies of each:
// one shared immutable build image per shard, and per replica a store over
// it, a full corpus table and an ingest WAL under rc.Dir. Each
// group elects its first leader before this returns, and a lease keeper per
// group renews leases and promotes successors in the background. A build
// that fails stops every group it started and closes every WAL it opened.
func BuildReplicatedSharded(posts []*Post, cfg Config, sc ShardingConfig, rc ReplicationConfig) (_ *ReplicatedShardedSystem, err error) {
	if rc.Replicas < 1 {
		return nil, fmt.Errorf("tklus: replication needs at least 1 replica per shard")
	}
	if rc.Dir == "" {
		return nil, fmt.Errorf("tklus: replication needs a WAL root directory")
	}
	// One immutable build image per shard, shared by its replicas' stores —
	// ingest lands in each replica's own memtable, so sharing is safe and
	// saves Replicas-1 builds. Its rows name post ordinals, which every
	// replica's table, derived from the same posts, shares.
	db, err := social.NewCorpus(posts, cfg.Engine.Params.ThreadDepth)
	if err != nil {
		return nil, fmt.Errorf("tklus: deriving the corpus table: %w", err)
	}
	images, err := buildShards(posts, db, cfg, sc)
	if err != nil {
		return nil, err
	}

	groups := make([]*ReplicaGroup, 0, len(images))
	defer func() {
		if err != nil {
			for _, g := range groups {
				g.close()
			}
		}
	}()
	shards := make([]*shard, len(images))
	for i, im := range images {
		var lm LeaseManager = NewLocalLeaseManager(nil)
		if rc.LeaseManagerFor != nil {
			lm = rc.LeaseManagerFor(im.name)
		}
		// The group is tracked before its replicas exist, so a failure
		// part-way through closes the WALs its replicas already opened.
		g := newReplicaGroup(im.name, lm, rc.LeaseTTL, rc.ShipInterval)
		groups = append(groups, g)
		sh := &shard{name: im.name, prefixes: im.prefixes, group: g}
		for j := 0; j < rc.Replicas; j++ {
			// Every replica holds its own full corpus table — Figure 3's
			// replicated centralized database — because live ingest
			// mutates it and replicas must diverge in nothing.
			db, err := social.NewCorpus(posts, cfg.Engine.Params.ThreadDepth)
			if err != nil {
				return nil, fmt.Errorf("tklus: deriving %s replica %d corpus table: %w", im.name, j, err)
			}
			sys, err := newHeapSystem(cfg, db, im.owns, im.img)
			if err != nil {
				return nil, fmt.Errorf("tklus: %s replica %d: %w", im.name, j, err)
			}
			dataDir := filepath.Join(rc.Dir, im.name, fmt.Sprintf("r%d", j))
			if _, err := sys.EnableWAL(dataDir, rc.WAL); err != nil {
				return nil, fmt.Errorf("tklus: opening %s replica %d WAL: %w", im.name, j, err)
			}
			rep := &GroupReplica{
				name:   fmt.Sprintf("%s/r%d", im.name, j),
				sys:    sys,
				walDir: filepath.Join(dataDir, walDirName),
			}
			g.replicas = append(g.replicas, rep)
			sh.replicas = append(sh.replicas, &shardReplica{name: rep.name, backend: rep})
		}
		if err := g.EnsureLeader(context.Background()); err != nil {
			return nil, fmt.Errorf("tklus: electing %s leader: %w", im.name, err)
		}
		shards[i] = sh
	}

	ss, err := newRouter(cfg.Engine.Params.Alpha, sc, shards)
	if err != nil {
		return nil, err
	}
	rs := &ReplicatedShardedSystem{
		ShardedSystem: ss,
		groups:        groups,
		keeperStop:    make(chan struct{}),
	}
	// One lease keeper per group: renew well inside the TTL so a healthy
	// leader never lapses, and promote a successor when it dies.
	for _, g := range groups {
		g := g
		rs.keeperWG.Add(1)
		go func() {
			defer rs.keeperWG.Done()
			interval := g.leaseTTL / 3
			for {
				select {
				case <-rs.keeperStop:
					return
				case <-time.After(interval):
				}
				ctx, cancel := context.WithTimeout(context.Background(), g.leaseTTL)
				_ = g.EnsureLeader(ctx) // leaderless until a lease can be taken; keep trying
				cancel()
			}
		}()
	}
	return rs, nil
}

// Groups returns the per-shard replica groups in shard order.
func (rs *ReplicatedShardedSystem) Groups() []*ReplicaGroup {
	return append([]*ReplicaGroup(nil), rs.groups...)
}

// Group returns the named shard's replica group, or nil.
func (rs *ReplicatedShardedSystem) Group(shard string) *ReplicaGroup {
	for _, g := range rs.groups {
		if g.shard == shard {
			return g
		}
	}
	return nil
}

// Ingest accepts a batch of live posts: the FULL stream goes to every
// group's leader, because the corpus table is global (Figure 3) —
// |P_u|, thread expansion and popularity bounds need every post no matter
// which shard's region it falls in — and the group owning a post's region
// indexes it. Each leader's WAL then fans the batch to its followers.
func (rs *ReplicatedShardedSystem) Ingest(posts ...*Post) error {
	return rs.IngestContext(context.Background(), posts...)
}

// IngestContext is Ingest with the caller's context (server duck-typing
// for /v1/ingest, tracing, election waits). A post in a region no shard
// owns could be acknowledged but indexed by none, so the whole batch is
// refused, before any group applies it, with an error wrapping
// ErrRejected.
func (rs *ReplicatedShardedSystem) IngestContext(ctx context.Context, posts ...*Post) error {
	for _, p := range posts {
		prefix := geo.Encode(p.Loc, rs.cfg.PrefixLen)
		if _, owned := rs.byPrefix[prefix]; !owned {
			return fmt.Errorf("tklus: ingest: %w: post %d at %v lies in region %q, which no shard owns",
				ErrRejected, p.SID, p.Loc, prefix)
		}
	}
	for _, g := range rs.groups {
		if err := g.IngestContext(ctx, posts...); err != nil {
			return fmt.Errorf("shard %s: %w", g.shard, err)
		}
	}
	return nil
}

// WaitCaughtUp blocks until every group's live followers have applied the
// acknowledged stream.
func (rs *ReplicatedShardedSystem) WaitCaughtUp(ctx context.Context) error {
	for _, g := range rs.groups {
		if err := g.WaitCaughtUp(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the lease keepers and every group's shippers, and closes
// the replica WALs and systems.
func (rs *ReplicatedShardedSystem) Close() error {
	close(rs.keeperStop)
	rs.keeperWG.Wait()
	var first error
	for _, g := range rs.groups {
		if err := g.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PostCountOfUser reports the user's global post count |P_u|. Every
// replica holds the full corpus table (Figure 3's replicated centralized
// database), so it reads the first group's current leader — the
// replica every acknowledged ingest has reached — or, before the first
// election, its replica 0.
func (rs *ReplicatedShardedSystem) PostCountOfUser(uid UserID) int {
	g := rs.groups[0]
	rep := g.Replica(g.Leader())
	if rep == nil {
		rep = g.replicas[0]
	}
	return rep.sys.DB.PostCountOfUser(uid)
}

// RegisterMetrics exposes the router's series (ShardedSystem.RegisterMetrics)
// and the replication health series: per-replica lag, per-shard failover
// counts and current epochs.
func (rs *ReplicatedShardedSystem) RegisterMetrics(reg *telemetry.Registry) {
	rs.ShardedSystem.RegisterMetrics(reg)
	for _, g := range rs.groups {
		g := g
		reg.CounterFunc("tklus_replica_failovers_total",
			"Leadership changes per shard (the first election is not one).",
			telemetry.Labels{"shard": g.shard},
			func() float64 { return float64(g.Failovers()) })
		reg.GaugeFunc("tklus_replica_epoch",
			"Current leadership epoch per shard (the fencing token).",
			telemetry.Labels{"shard": g.shard},
			func() float64 { return float64(g.Epoch()) })
		for _, r := range g.replicas {
			name := r.name
			reg.GaugeFunc("tklus_replica_lag_sids",
				"Acknowledged ingest records the replica has not yet applied.",
				telemetry.Labels{"shard": g.shard, "replica": name},
				func() float64 { return float64(g.LagRecords(name)) })
		}
	}
}
