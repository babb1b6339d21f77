package tklus

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/segment"
	"repro/internal/social"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// SegmentOptions configures the segment directory EnableSegments attaches
// to a System.
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
	// WALDir, when set, replays the data directory's WAL beyond the last
	// sealed segment into the memtable on open.
	WALDir string
}

// SegmentedSystem is System. The alias exists only because the frozen
// internal/bench harness names it; delete it with ROADMAP 1.
type SegmentedSystem = System

// EnableSegments attaches a segment directory to a built (or loaded)
// System, which it returns: its store then seals into mmap'd segment files
// committed under a MANIFEST, and a restart opens them from disk. An empty
// directory is seeded from the heap store — memtable sealed, every segment
// split at time-bucket boundaries, so a query TimeWindow prunes whole
// segments. A populated one is opened as-is (every file checksummed) and
// replaces the heap store; with WALDir set, logged posts beyond its last
// sealed segment are replayed into its memtable. Call it before the system
// serves or registers metrics; a system attaches one directory.
func EnableSegments(sys *System, opts SegmentOptions) (*System, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("tklus: EnableSegments needs a segment directory")
	}
	sys.ingestMu.Lock()
	defer sys.ingestMu.Unlock()
	if sys.closed {
		return nil, fmt.Errorf("tklus: EnableSegments: %w", ErrClosed)
	}
	if dir := sys.Store.Dir(); dir != "" {
		return nil, fmt.Errorf("tklus: EnableSegments: system already serves from the segment store in %s", dir)
	}
	store, err := segment.OpenStore(opts.Dir, segment.Options{
		GeohashLen:   sys.Store.GeohashLen(),
		BucketWidth:  opts.BucketWidth,
		BlockSize:    opts.BlockSize,
		MemtableRows: opts.MemtableRows,
		CompactFanIn: opts.CompactFanIn,
	})
	if err != nil {
		return nil, err
	}
	if store.Empty() {
		err = sys.sealStore()
		if err == nil {
			err = store.BulkLoad(sys.Store.Segments()...)
		}
		if err != nil {
			store.Close()
			return nil, fmt.Errorf("tklus: seeding the segment directory: %w", err)
		}
	}
	if opts.WALDir != "" {
		if err := sys.replayWALIntoMemtable(store, filepath.Join(opts.WALDir, walDirName)); err != nil {
			store.Close()
			return nil, fmt.Errorf("tklus: replaying wal into memtable: %w", err)
		}
	}
	sys.Store = store // the heap store holds no resources beyond memory
	sys.publishPartitions()
	if opts.CompactInterval > 0 {
		sys.stopCompact = make(chan struct{})
		sys.compactDone = make(chan struct{})
		go sys.compactLoop(opts.CompactInterval)
	}
	return sys, nil
}

// partitions maps the store's views to engine partitions, each view
// answering for its own postings and rows.
func partitions(store *segment.Store) []core.Partition {
	views := store.Views()
	parts := make([]core.Partition, len(views))
	for i, v := range views {
		parts[i] = core.Partition{Source: v.Source, Rows: v.Source, MinSID: v.MinSID, MaxSID: v.MaxSID}
	}
	return parts
}

// publishPartitions swaps the engine onto the store's current views;
// in-flight searches finish on the set they loaded (retired segments stay
// mapped until Close). Caller holds ingestMu.
func (s *System) publishPartitions() {
	s.Engine.SetPartitions(partitions(s.Store))
}

// sealStore seals the memtable (no-op while empty) and publishes the new
// partition set; ErrClosed once the system is closed. Caller holds ingestMu.
func (s *System) sealStore() error {
	if s.closed {
		return fmt.Errorf("tklus: %w", ErrClosed)
	}
	if err := s.Store.SealNow(); err != nil {
		return err
	}
	s.publishPartitions()
	return nil
}

// replayWALIntoMemtable indexes into store's memtable the posts the WAL
// holds beyond its last sealed segment; Load already replayed their rows
// into the database. Records at or below the seal watermark, or beyond what
// the database accepted, are skipped, so the replay is idempotent.
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

// UnderlyingSystem returns s; decorators over a system return the system
// they wrap.
func (s *System) UnderlyingSystem() *System { return s }

// SealNow seals the memtable into an immutable segment (no-op while empty).
func (s *System) SealNow() error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return s.sealStore()
}

// Compact runs size-tiered compaction to a fixed point and publishes the
// merged partition set; it returns how many segments were merged away.
func (s *System) Compact() (int, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.closed {
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

// RegisterMetrics exports the store's tklus_segment_* counters and gauges.
func (s *System) RegisterMetrics(reg *telemetry.Registry) {
	s.Store.RegisterMetrics(reg)
}

// Close stops background compaction and closes the engine and the store:
// Search, SearchPartials, Evidence and Ingest fail with ErrClosed from here
// on. Call it once in-flight searches drained (they may read mapped bytes);
// a Save in progress finishes first. It does not close the System's WAL.
func (s *System) Close() error {
	if s.stopCompact != nil {
		close(s.stopCompact)
		<-s.compactDone
		s.stopCompact = nil
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.Engine.SetPartitions(nil)
	return s.Store.Close()
}
