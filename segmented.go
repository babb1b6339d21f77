package tklus

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/segment"
	"repro/internal/social"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// SegmentOptions configures the on-disk segment storage engine
// EnableSegments installs on a System.
type SegmentOptions struct {
	// Dir is the segment directory (conventionally <data>/segments).
	Dir string
	// BucketWidth is the time-bucket width; ingest crossing a bucket
	// boundary seals the memtable, so each segment covers at most one
	// bucket and windowed queries prune whole segments. Non-positive
	// selects 30 days.
	BucketWidth time.Duration
	// BlockSize is the postings block size segments are sealed with;
	// non-positive selects the index default.
	BlockSize int
	// MemtableRows force-seals the memtable at this many buffered rows;
	// non-positive disables size-based seals.
	MemtableRows int
	// CompactFanIn is how many adjacent same-size-class segments one
	// compaction merge folds together; non-positive selects 4.
	CompactFanIn int
	// CompactInterval, when positive, runs background size-tiered
	// compaction on this period until Close.
	CompactInterval time.Duration
	// WALDir, when set, replays the data directory's WAL into the
	// memtable on open: posts beyond the last sealed segment carry their
	// keywords in the log, so their index entries survive a restart.
	WALDir string
}

// SegmentedSystem is System. The alias exists only because the frozen
// internal/bench harness names it; delete it with ROADMAP 1.
type SegmentedSystem = System

// EnableSegments moves a built (or loaded) System onto the segment storage
// engine: sealed immutable segments (mmap'd, zero-copy postings and row
// metadata) plus a live memtable, published to the System's one query
// engine as time-bounded partitions. The store is installed on sys itself,
// which is returned, so every path through sys — Search, SearchPartials,
// Evidence, Ingest, Save — serves from (and feeds) segments afterwards:
//
//   - Reads skip the simulated DFS page model and the B⁺-tree descents
//     entirely; postings iterate directly over mapped bytes.
//   - Ingested posts are indexed immediately in the memtable (without a
//     store, keywords wait for the next batch build), so results equal a
//     full batch rebuild over all posts.
//   - A query TimeWindow prunes whole segments by bucket range before
//     any block is touched (QueryStats.PartitionsPruned counts them).
//   - Save seals the memtable before it rotates the WAL, so the log only
//     ever drops records whose posts are already in a segment and a
//     restart can always rebuild the memtable from it.
//
// An empty store is seeded by migrating the batch-built index and row
// store into time-bucketed segments; a populated store is opened as-is
// (every file checksummed). With WALDir set, logged posts beyond the last
// sealed segment are replayed into the memtable, restoring their
// just-in-time index entries after a restart. Not safe to call
// concurrently with queries on sys; a system takes one store.
func EnableSegments(sys *System, opts SegmentOptions) (*System, error) {
	if sys == nil {
		return nil, fmt.Errorf("tklus: EnableSegments needs a built system")
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("tklus: EnableSegments needs a segment directory")
	}
	sys.ingestMu.Lock()
	defer sys.ingestMu.Unlock()
	if sys.Store != nil {
		return nil, fmt.Errorf("tklus: EnableSegments: system already serves from the segment store in %s", sys.Store.Dir())
	}
	store, err := segment.OpenStore(opts.Dir, segment.Options{
		GeohashLen:   sys.Index.GeohashLen(),
		BucketWidth:  opts.BucketWidth,
		BlockSize:    opts.BlockSize,
		MemtableRows: opts.MemtableRows,
		CompactFanIn: opts.CompactFanIn,
	})
	if err != nil {
		return nil, err
	}
	if store.Empty() {
		if err := sys.migrate(store); err != nil {
			store.Close()
			return nil, fmt.Errorf("tklus: migrating index into segments: %w", err)
		}
	}
	if opts.WALDir != "" {
		if err := sys.replayWALIntoMemtable(store, filepath.Join(opts.WALDir, walDirName)); err != nil {
			store.Close()
			return nil, fmt.Errorf("tklus: replaying wal into memtable: %w", err)
		}
	}
	sys.Store = store
	sys.publishPartitions()
	if opts.CompactInterval > 0 {
		sys.stopCompact = make(chan struct{})
		sys.compactDone = make(chan struct{})
		go sys.compactLoop(opts.CompactInterval)
	}
	return sys, nil
}

// publishPartitions swaps the engine onto the store's current view set,
// each view answering for its own postings and its own rows; in-flight
// searches finish on the set they loaded (whose retired segments stay
// mapped until Close, and whose memtable stays reachable after a seal
// replaces it). Caller holds ingestMu.
func (s *System) publishPartitions() {
	views := s.Store.Views()
	parts := make([]core.Partition, len(views))
	for i, v := range views {
		parts[i] = core.Partition{Source: v.Source, Rows: v.Source, MinSID: v.MinSID, MaxSID: v.MaxSID}
	}
	s.Engine.SetPartitions(parts)
}

// sealStore seals the memtable into an immutable segment (no-op while it is
// empty) and publishes the resulting partition set. Nothing to do without a
// store or once it is closed. Caller holds ingestMu.
func (s *System) sealStore() error {
	if s.Store == nil || s.storeClosed {
		return nil
	}
	if err := s.Store.SealNow(); err != nil {
		return err
	}
	s.publishPartitions()
	return nil
}

// migrate seeds an empty store from the batch-built index: every row of
// the metadata database and every postings list of the inverted index,
// split at time-bucket boundaries. One-time cost on first boot with
// segments enabled; afterwards the store opens from its MANIFEST.
func (s *System) migrate(store *segment.Store) error {
	var rows []metadb.Row
	s.DB.Scan(func(r metadb.Row) bool {
		rows = append(rows, r)
		return true
	})
	postings := make(map[invindex.Key][]invindex.Posting)
	for _, k := range s.Index.Keys() {
		ps, err := s.Index.FetchPostings(k.Geohash, k.Term)
		if err != nil {
			return err
		}
		if len(ps) > 0 {
			postings[k] = ps
		}
	}
	return store.BulkLoad(rows, postings)
}

// replayWALIntoMemtable restores the just-in-time index entries of posts
// the WAL holds beyond the last sealed segment. Rows themselves were
// already replayed into the metadata database by Load; this pass only
// rebuilds their memtable postings (the log records carry the words).
// Records at or below the seal watermark — or beyond what the database
// accepted — are skipped, so the replay is idempotent across crashes.
func (s *System) replayWALIntoMemtable(store *segment.Store, walDir string) error {
	sealed := store.MaxSealedSID()
	_, dbMax := s.DB.SIDRange()
	_, err := wal.Replay(walDir, func(p *social.Post) error {
		if p.SID <= sealed || p.SID > dbMax {
			return nil
		}
		_, err := store.Add(p)
		return err
	})
	return err
}

// UnderlyingSystem returns s, the one serving unit; decorators over a
// system return the system they wrap.
func (s *System) UnderlyingSystem() *System { return s }

// SealNow seals the memtable into an immutable segment. No-op when the
// memtable is empty or no store is installed.
func (s *System) SealNow() error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return s.sealStore()
}

// Compact runs size-tiered compaction to a fixed point and publishes the
// merged partition set. Returns how many segments were merged away; 0
// without an open store.
func (s *System) Compact() (int, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.Store == nil || s.storeClosed {
		return 0, nil
	}
	n, err := s.Store.Compact()
	if n > 0 {
		s.publishPartitions()
	}
	return n, err
}

// compactLoop runs background compaction until Close.
func (s *System) compactLoop(interval time.Duration) {
	defer close(s.compactDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCompact:
			return
		case <-t.C:
			s.Compact() // best-effort; next tick retries after an error
		}
	}
}

// RegisterMetrics exports the segment store's tklus_segment_* counters and
// gauges; a system without a store has none.
func (s *System) RegisterMetrics(reg *telemetry.Registry) {
	if s.Store != nil {
		s.Store.RegisterMetrics(reg)
	}
}

// Close stops background compaction, closes the engine — Search,
// SearchPartials, Evidence and Ingest fail with ErrClosed from here on —
// and unmaps every segment. Searches already in flight still read mapped
// bytes, so call it only after they have drained. It does not close the
// System's WAL. A no-op without an open store.
func (s *System) Close() error {
	if s.stopCompact != nil {
		close(s.stopCompact)
		<-s.compactDone
		s.stopCompact = nil
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.Store == nil || s.storeClosed {
		return nil
	}
	s.storeClosed = true
	s.Engine.SetPartitions(nil)
	return s.Store.Close()
}
