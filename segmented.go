package tklus

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/segment"
	"repro/internal/telemetry"
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
	// WALDir is accepted and changes nothing: Load replays the WAL into the
	// store it opens, so there is nothing left to replay here. Only the
	// frozen internal/bench harness still sets it — delete with the
	// harness's next move (ROADMAP 1(c)).
	WALDir string
}

// SegmentedSystem is System. The alias exists only because the frozen
// internal/bench harness names it; delete it with ROADMAP 1.
type SegmentedSystem = System

// EnableSegments attaches a segment directory to a built (or loaded)
// System, which it returns: its store then seals into mmap'd segment files
// committed under a MANIFEST, and a restart (Load) opens them in place. A
// heap System writes its rows there — memtable sealed, every segment split
// at time-bucket boundaries, so a query TimeWindow prunes whole segments —
// replacing whatever the directory committed before. A System already
// serving from opts.Dir (one Load or Save returned) adds nothing: its later
// seals and compactions take the options. Call it before the system serves
// or registers metrics; a system attaches one directory.
func EnableSegments(sys *System, opts SegmentOptions) (*System, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("tklus: EnableSegments needs a segment directory")
	}
	sys.ingestMu.Lock()
	defer sys.ingestMu.Unlock()
	if sys.closed {
		return nil, fmt.Errorf("tklus: EnableSegments: %w", ErrClosed)
	}
	segOpts := segment.Options{
		GeohashLen:   sys.Store.GeohashLen(),
		BucketWidth:  opts.BucketWidth,
		BlockSize:    opts.BlockSize,
		MemtableRows: opts.MemtableRows,
		CompactFanIn: opts.CompactFanIn,
	}
	var err error
	switch serves, dir := sys.servesFrom(opts.Dir); {
	case dir == "":
		err = sys.attach(opts.Dir, segOpts)
	case serves:
		err = sys.Store.SetOptions(segOpts)
	default:
		err = fmt.Errorf("system already serves from the segment store in %s", dir)
	}
	if err != nil {
		return nil, fmt.Errorf("tklus: EnableSegments: %w", err)
	}
	if opts.CompactInterval > 0 && sys.stopCompact == nil {
		sys.stopCompact = make(chan struct{})
		sys.compactDone = make(chan struct{})
		go sys.compactLoop(opts.CompactInterval)
	}
	return sys, nil
}

// servesFrom reports whether the system's store is the one in dir, and the
// directory it does serve from ("" for a heap store).
func (s *System) servesFrom(dir string) (bool, string) {
	abs, err := filepath.Abs(dir)
	return err == nil && abs == s.Store.Dir(), s.Store.Dir()
}

// attach writes the heap store's rows into a new store in dir (seeded the
// way BulkLoad splits them, replacing what dir committed) and serves from
// it: the memtable is sealed first, so nothing stays behind. Caller holds
// ingestMu.
func (s *System) attach(dir string, opts segment.Options) error {
	if err := s.sealStore(); err != nil {
		return err
	}
	store, err := segment.CreateStore(dir, opts)
	if err == nil {
		if err = store.BulkLoad(s.Store.Segments()...); err != nil {
			store.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("seeding the segment directory: %w", err)
	}
	s.Store = store // the heap store holds no resources beyond memory
	s.publishPartitions()
	return nil
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
