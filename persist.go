package tklus

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/metadb"
	"repro/internal/segment"
	"repro/internal/telemetry"
	"repro/internal/thread"
	"repro/internal/wal"
)

// On-disk layout of a saved system: the segment store and the ingest WAL
// beside it, nothing else.
//
//	<dir>/segments/CURRENT              names the committed MANIFEST
//	<dir>/segments/MANIFEST-NNNNNNNN    the live segment files, in time order
//	<dir>/segments/seg-NNNNNNNN.tkseg   sealed segments (TKSEG3): rows, texts, postings
//	<dir>/wal/seg-NNNNNNNN.log          ingest write-ahead log segments
//
// Save seals the memtable, so every row is in a committed segment and the
// log need only hold posts beyond the last one. Load opens the store in
// place, rebuilds the metadata database and the level-count table from its
// rows, and replays the log's tail into its memtable.
const (
	walDirName      = "wal"
	segmentsDirName = "segments"
	// legacyCurrent is the pointer file of the snapshot directories
	// (snap-NNNNNNNN/) earlier code wrote; Load refuses a directory holding
	// one.
	legacyCurrent = "CURRENT"
)

// Typed load failures, classified so operators (and the corruption tests)
// can tell "nothing was ever committed / a file vanished" from "committed
// bytes rotted" from "written by a different format". All are
// errors.Is-able.
var (
	// ErrPartialSave: the directory holds no committed segment store, or a
	// file its MANIFEST names is missing — the shape a crash or an
	// incomplete copy leaves behind.
	ErrPartialSave = errors.New("tklus: partial or missing checkpoint")
	// ErrCorruptImage: a committed segment fails its checksum or does not
	// parse, or the WAL is damaged before its tail.
	ErrCorruptImage = errors.New("tklus: corrupt checkpoint")
	// ErrVersionMismatch: the directory was written in another format — a
	// snapshot directory of earlier code, or segments of another version.
	ErrVersionMismatch = errors.New("tklus: checkpoint format version mismatch")
)

// RecoveryStats reports what Load read and replayed.
type RecoveryStats struct {
	// Segments counts the sealed segments Load opened.
	Segments int
	// WALRecordsReplayed counts log records re-ingested beyond the store.
	WALRecordsReplayed int64
	// WALRecordsSkipped counts log records a sealed segment already held (a
	// crash between a seal and the log's truncation leaves them).
	WALRecordsSkipped int64
	// WALBytes is the valid log bytes scanned during replay.
	WALBytes int64
	// WALReplayDuration is the wall-clock time of the replay phase.
	WALReplayDuration time.Duration
	// WALTornTail reports that the log ended in a torn record — the
	// expected shape after a crash mid-append; the torn record was never
	// acknowledged and is dropped.
	WALTornTail bool
}

// Save checkpoints the system to dir: it seals the memtable, so the
// segment store's MANIFEST commits every row, and truncates the WAL through
// that point. A system serving from dir/segments copies no bytes: the seal
// is the commit. A heap system writes its segments to dir/segments once and
// serves from there afterwards; a system serving from another directory
// writes a copy. Either write replaces what dir/segments committed before by
// one MANIFEST commit, so a crash leaves the old checkpoint or the new one.
// Save is safe to run concurrently with Ingest and Search: the seal and the
// WAL rotation happen at one consistency point under the ingest lock, so the
// store plus the remaining WAL always replay to the live state.
func (s *System) Save(dir string) error {
	return s.SaveContext(context.Background(), dir)
}

// SaveContext is Save with the caller's context threaded through for
// tracing: when the context carries a trace span (or the server's
// checkpoint loop starts one), a "checkpoint.save" child span records the
// save with its phases — capture (the seal and WAL rotation under the
// ingest lock), write (a copy to another directory), and gc — folded in as
// child spans. The context does not cancel a save; an interrupted commit is
// exactly what the MANIFEST protocol exists to avoid.
func (s *System) SaveContext(ctx context.Context, dir string) error {
	span := telemetry.SpanFromContext(ctx).StartChild("checkpoint.save")
	err := s.save(span, dir)
	span.SetError(err)
	span.Finish()
	return err
}

func (s *System) save(span *telemetry.TraceSpan, dir string) error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	segDir := filepath.Join(dir, segmentsDirName)

	// Consistency point: the seal commits every row the database holds, and
	// the WAL rotation mark after it covers exactly those posts; records
	// beyond it are the ones a restart replays.
	var copied []*segment.Segment
	walMark := -1
	phase := time.Now()
	s.ingestMu.Lock()
	err := s.sealStore()
	if err == nil {
		err = s.holdsEveryRow()
	}
	if err == nil {
		switch serves, dir := s.servesFrom(segDir); {
		case serves:
		case dir == "":
			err = s.attach(segDir, s.Store.Options())
		default:
			copied = s.Store.Segments()
		}
	}
	if err == nil && s.wal != nil {
		walMark, err = s.wal.Rotate()
	}
	s.ingestMu.Unlock()
	span.Fold("capture", phase, time.Since(phase))
	if err != nil {
		return fmt.Errorf("tklus: checkpoint: %w", err)
	}

	// Sealed segments are immutable and stay readable until Close (which
	// waits for saveMu), so a copy streams outside the lock.
	if copied != nil {
		phase = time.Now()
		if err := writeStore(segDir, s.Store.Options(), copied); err != nil {
			return fmt.Errorf("tklus: checkpoint: %w", err)
		}
		span.Fold("write", phase, time.Since(phase))
	}
	atomic.AddInt64(&s.snapshotsSaved, 1)
	atomic.StoreInt64(&s.lastSnapshotUnix, time.Now().Unix())

	// The checkpoint is committed; everything below only reclaims space.
	// A failure here (or a crash) costs bytes, not correctness: WAL records
	// the store holds are skipped on replay, and orphans go at the next gc.
	phase = time.Now()
	_ = segment.GCOrphans(segDir)
	if s.wal != nil && walMark >= 0 {
		_ = s.wal.TruncateThrough(walMark)
	}
	span.Fold("gc", phase, time.Since(phase))
	return nil
}

// holdsEveryRow checks that the store holds every row Load must rebuild the
// database from; a shard's system holds only its region's. Caller holds
// ingestMu, after a seal.
func (s *System) holdsEveryRow() error {
	rows := 0
	for _, seg := range s.Store.Segments() {
		rows += seg.NumRows()
	}
	if rows != s.DB.Len() {
		return fmt.Errorf("the store indexes %d of the database's %d rows", rows, s.DB.Len())
	}
	return nil
}

// writeStore writes segs into a store in dir, replacing what dir committed.
func writeStore(dir string, opts segment.Options, segs []*segment.Segment) error {
	store, err := segment.CreateStore(dir, opts)
	if err != nil {
		return err
	}
	return errors.Join(store.BulkLoad(segs...), store.Close())
}

// SnapshotExists reports whether dir holds a committed checkpoint — a
// segment store under dir/segments — that is, whether Load has something to
// load. A directory with only WAL segments (or nothing) returns false.
func SnapshotExists(dir string) bool {
	return segment.Committed(filepath.Join(dir, segmentsDirName))
}

// Load reopens a system saved by Save. It opens dir/segments in place —
// the returned system serves from it, and its Store.Dir() is that
// directory — rebuilds the metadata database from the segments' rows,
// counts the level-count table from their (SID, RSID) pairs at the Config's
// thread depth, and replays the ingest WAL's tail through Ingest, so the
// level counts and the store after recovery match a process that never
// crashed. The Config supplies runtime settings (engine options, DB page
// and cache configuration); the data come from the directory. Every segment
// is checksummed before it serves; failures come back as ErrPartialSave,
// ErrVersionMismatch or ErrCorruptImage. Load does not open the WAL for
// writing — call EnableWAL on the returned system to make further Ingests
// durable.
func Load(dir string, cfg Config) (*System, error) {
	start := time.Now()
	if _, err := os.Stat(filepath.Join(dir, legacyCurrent)); err == nil {
		return nil, fmt.Errorf("%w: %s holds a snapshot directory of an earlier format; rebuild it from the corpus",
			ErrVersionMismatch, dir)
	}
	segDir := filepath.Join(dir, segmentsDirName)
	if !segment.Committed(segDir) {
		return nil, fmt.Errorf("%w: no committed segment store in %s", ErrPartialSave, segDir)
	}
	store, err := segment.OpenStore(segDir, segment.Options{BlockSize: cfg.Index.BlockSize})
	if err != nil {
		return nil, classifyOpen(err)
	}
	// A MANIFEST naming no segment leaves the store no geohash length, so
	// OpenStore has refused it: segs is not empty.
	segs := store.Segments()
	n := 0
	for _, seg := range segs {
		n += seg.NumRows()
	}
	rows := make([]metadb.Row, 0, n)
	for _, seg := range segs {
		for i := 0; i < seg.NumRows(); i++ {
			rows = append(rows, seg.RowAt(i))
		}
	}
	db, err := metadb.FromRows(cfg.DB, rows)
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("%w: segment rows: %v", ErrCorruptImage, err)
	}
	bounds := thread.ComputeRowBounds(rows, cfg.Engine.Params.ThreadDepth)
	sys, err := newSystem(cfg, db, bounds, nil, store)
	if err != nil {
		store.Close()
		return nil, err
	}
	sys.Recovery = &RecoveryStats{Segments: len(segs)}
	if err := sys.replayWAL(filepath.Join(dir, walDirName)); err != nil {
		sys.Close()
		return nil, err
	}
	sys.BuildTime = time.Since(start)
	return sys, nil
}

// classifyOpen maps a segment store's open failure onto Load's sentinels,
// keeping the segment error in the chain.
func classifyOpen(err error) error {
	switch {
	case errors.Is(err, segment.ErrVersion):
		return fmt.Errorf("%w: %w", ErrVersionMismatch, err)
	case errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("%w: %w", ErrPartialSave, err)
	default:
		return fmt.Errorf("%w: %w", ErrCorruptImage, err)
	}
}

// replayWAL re-ingests every log record the store does not already hold.
// Records at or below the database's high-water SID are skipped — that is
// the idempotence rule that makes "crash after a seal but before log
// truncation" safe. Replay goes through Ingest itself, so every live-ingest
// side effect (the level counts, the memtable and its seals) re-runs
// exactly.
func (s *System) replayWAL(walDir string) error {
	replayStart := time.Now()
	_, maxSID := s.DB.SIDRange()
	stats, err := wal.Replay(walDir, func(p *Post) error {
		if p.SID <= maxSID {
			s.Recovery.WALRecordsSkipped++
			return nil
		}
		if err := s.Ingest(p); err != nil {
			return err
		}
		s.Recovery.WALRecordsReplayed++
		return nil
	})
	if err != nil {
		return fmt.Errorf("%w: WAL replay: %v", ErrCorruptImage, err)
	}
	s.Recovery.WALBytes = stats.Bytes
	s.Recovery.WALTornTail = stats.TornTail
	s.Recovery.WALReplayDuration = time.Since(replayStart)
	return nil
}

// ReplayWAL replays dataDir's ingest WAL into a freshly BUILT system —
// the first-boot edge case where a previous process logged ingests but
// crashed before committing its first checkpoint, so there is nothing for
// Load to load and the corpus build is the recovery base. Records the
// system already contains are skipped; Load calls the same replay
// internally, so systems that came from Load never need this. Call it
// before EnableWAL.
func (s *System) ReplayWAL(dataDir string) (RecoveryStats, error) {
	if s.Recovery == nil {
		s.Recovery = &RecoveryStats{}
	}
	if err := s.replayWAL(filepath.Join(dataDir, walDirName)); err != nil {
		return *s.Recovery, err
	}
	return *s.Recovery, nil
}

// EnableWAL opens (or creates) the ingest write-ahead log under dataDir
// and attaches it to the system: every subsequent Ingest appends its posts
// to the log under the given fsync policy before returning, and Save
// rotates and compacts it. Call it after Load (which replays but does not
// open the log) or after Build (to make a fresh system durable). Returns
// the log so callers can read its Stats.
func (s *System) EnableWAL(dataDir string, opts WALOptions) (*WAL, error) {
	l, err := wal.Open(filepath.Join(dataDir, walDirName), opts)
	if err != nil {
		return nil, err
	}
	s.ingestMu.Lock()
	s.wal = l
	s.ingestMu.Unlock()
	return l, nil
}

// CloseWAL detaches and closes the ingest WAL, syncing its tail. Further
// Ingests are accepted but no longer logged.
func (s *System) CloseWAL() error {
	s.ingestMu.Lock()
	l := s.wal
	s.wal = nil
	s.ingestMu.Unlock()
	if l == nil {
		return nil
	}
	return l.Close()
}

// RegisterPersistenceMetrics exposes the durability counters on reg:
// checkpoints, WAL append/sync/rotation work, and — when the system was
// loaded from disk — the recovery replay counters.
func (s *System) RegisterPersistenceMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("tklus_snapshots_saved_total",
		"Checkpoints committed by Save.", nil,
		func() float64 { return float64(atomic.LoadInt64(&s.snapshotsSaved)) })
	reg.GaugeFunc("tklus_snapshot_last_unix",
		"Unix time of the last committed checkpoint (0 before the first).", nil,
		func() float64 { return float64(atomic.LoadInt64(&s.lastSnapshotUnix)) })
	reg.CounterFunc("tklus_wal_records_total",
		"Posts appended to the ingest WAL.", nil,
		func() float64 { return float64(s.walStats().Records) })
	reg.CounterFunc("tklus_wal_bytes_total",
		"Bytes appended to the ingest WAL (framing included).", nil,
		func() float64 { return float64(s.walStats().Bytes) })
	reg.CounterFunc("tklus_wal_syncs_total",
		"Explicit fsyncs issued by the ingest WAL.", nil,
		func() float64 { return float64(s.walStats().Syncs) })
	if s.Recovery != nil {
		rec := *s.Recovery // recovery is immutable after Load
		reg.CounterFunc("tklus_recovery_wal_records_replayed_total",
			"WAL records re-ingested by the last Load.", nil,
			func() float64 { return float64(rec.WALRecordsReplayed) })
		reg.CounterFunc("tklus_recovery_wal_records_skipped_total",
			"WAL records the last Load skipped as already in a sealed segment.", nil,
			func() float64 { return float64(rec.WALRecordsSkipped) })
		reg.CounterFunc("tklus_recovery_wal_bytes_total",
			"Valid WAL bytes scanned by the last Load.", nil,
			func() float64 { return float64(rec.WALBytes) })
		reg.GaugeFunc("tklus_recovery_replay_seconds",
			"Wall-clock duration of the last Load's WAL replay.", nil,
			func() float64 { return rec.WALReplayDuration.Seconds() })
	}
}

// walStats reads the attached WAL's counters (zero when none is attached).
func (s *System) walStats() wal.Stats {
	s.ingestMu.Lock()
	l := s.wal
	s.ingestMu.Unlock()
	if l == nil {
		return wal.Stats{}
	}
	return l.Stats()
}
