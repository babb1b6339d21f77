package tklus

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/contents"
	"repro/internal/dfs"
	"repro/internal/fsx"
	"repro/internal/metadb"
	"repro/internal/segment"
	"repro/internal/telemetry"
	"repro/internal/thread"
	"repro/internal/wal"
)

// On-disk layout of a saved system. Snapshots are immutable numbered
// directories; CURRENT names the committed one, and the commit step is the
// atomic rename of CURRENT — a crash at any point during Save leaves the
// previous snapshot untouched and loadable.
//
//	<dir>/CURRENT                    committed snapshot name ("snap-NNNNNNNN\n")
//	<dir>/snap-NNNNNNNN/MANIFEST     format version + per-file size and CRC
//	<dir>/snap-NNNNNNNN/index.tkseg  build image (TKSEG2): postings + the rows they name by ordinal
//	<dir>/snap-NNNNNNNN/rows.bin     metadata rows ingested beyond the image's max SID
//	<dir>/snap-NNNNNNNN/dfs/         simulated-DFS image (tweet contents)
//	<dir>/snap-NNNNNNNN/contents.bin tweet-ID -> content location table
//	<dir>/snap-NNNNNNNN/bounds.gob   popularity bounds (Section V-B)
//	<dir>/wal/seg-NNNNNNNN.log       ingest write-ahead log segments
//	<dir>/segments/                  LSM segment store (own MANIFEST/CURRENT)
//
// Each row is stored once: the image (a TKSEG segment) holds the rows it
// indexes, rows.bin the rest, and Load rebuilds the metadata database from
// both.
const (
	currentFile     = "CURRENT"
	manifestFile    = "MANIFEST"
	snapPrefix      = "snap-"
	tmpPrefix       = ".tmp-snap-"
	walDirName      = "wal"
	segmentsDirName = "segments"
	dfsDir          = "dfs"
	indexFile       = "index.tkseg"
	contentsFile    = "contents.bin"
	rowsFile        = "rows.bin"
	boundsFile      = "bounds.gob"
)

// manifestVersion is the snapshot format version this code writes and the
// only one it loads. Version 1 held a paged DFS index; version 2's
// index.tkseg was a TKSEG1 image, whose postings held tweet IDs where
// TKSEG2's hold row ordinals.
const manifestVersion = 3

// Typed load failures, classified so operators (and the corruption tests)
// can tell "no snapshot was ever committed / a file vanished" from "a
// committed snapshot's bytes rotted" from "written by a different format"
// from "built for a different scoring model". All are errors.Is-able.
var (
	// ErrPartialSave: the directory holds no committed snapshot, or a file
	// the manifest promises is missing — the shape a crash or an
	// incomplete copy leaves behind.
	ErrPartialSave = errors.New("tklus: partial or missing snapshot")
	// ErrCorruptImage: a committed artifact fails its size/CRC check or
	// does not decode.
	ErrCorruptImage = errors.New("tklus: corrupt snapshot image")
	// ErrVersionMismatch: the manifest's format version is not ours.
	ErrVersionMismatch = errors.New("tklus: snapshot format version mismatch")
	// ErrParamsMismatch: the snapshot's popularity bounds hold no
	// level-count table, or one counted for a thread depth other than the
	// Config's, so the engine, which scores every candidate from that table,
	// refuses them. The table holds counts, so any ε reads it.
	// It is thread.ErrParamsMismatch, the error the engine refuses them with.
	ErrParamsMismatch = thread.ErrParamsMismatch
)

// manifest is the MANIFEST file: the format version and one entry per file
// in the snapshot directory (the DFS image contributes one entry per image
// file). CRCs are CRC-32C (Castagnoli).
type manifest struct {
	Version int             `json:"version"`
	Files   []manifestEntry `json:"files"`
}

type manifestEntry struct {
	Name string `json:"name"` // path relative to the snapshot dir, "/"-separated
	Size int64  `json:"size"`
	CRC  string `json:"crc32c"` // lowercase hex
}

var persistCRC = crc32.MakeTable(crc32.Castagnoli)

// RecoveryStats reports what Load had to do beyond decoding the snapshot.
type RecoveryStats struct {
	// Snapshot is the committed snapshot directory name that was loaded.
	Snapshot string
	// WALRecordsReplayed counts log records re-ingested after the snapshot.
	WALRecordsReplayed int64
	// WALRecordsSkipped counts log records the snapshot already contained
	// (a crash between snapshot commit and log truncation leaves them).
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

// Save persists the system to dir as a new immutable snapshot, committing
// it atomically: every artifact is written into a temporary directory and
// fsynced, a MANIFEST records each file's size and CRC-32C, the directory
// is renamed to its final snap-N name, and the CURRENT pointer file is
// atomically replaced. A crash before the CURRENT rename leaves the
// previous snapshot committed; after it, the new one. Save is safe to run
// concurrently with Ingest and Search: the row/bounds capture and the WAL
// rotation happen at a single consistency point under the ingest lock, so
// the snapshot plus the remaining WAL always replay to the live state.
func (s *System) Save(dir string) error {
	return s.SaveContext(context.Background(), dir)
}

// SaveContext is Save with the caller's context threaded through for
// tracing: when the context carries a trace span (or the server's
// checkpoint loop starts one), a "checkpoint.save" child span records the
// save with its phases — capture (the consistency point under the ingest
// lock), write_artifacts, commit, and gc — folded in as child spans. The
// context does not cancel a save; an interrupted commit is exactly what
// the snapshot protocol exists to avoid.
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

	if err := fsx.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	seq, err := nextSnapSeq(dir)
	if err != nil {
		return err
	}

	// Consistency point: everything Ingest mutates is captured here, in
	// one critical section — the rows buffer, the bounds image, and the
	// WAL rotation mark. Records at or before the mark are covered by this
	// snapshot; records after it are exactly the ones a post-crash replay
	// must re-apply on top of it. A segment store's memtable is sealed
	// first: the rotation mark then only ever truncates records whose posts
	// are already in a segment, so a restart can always rebuild the
	// memtable's index entries from the log.
	var rowsBuf, boundsBuf bytes.Buffer
	walMark := -1
	phase := time.Now()
	s.ingestMu.Lock()
	err = s.sealStore()
	if err == nil {
		err = s.DB.SaveRows(&rowsBuf, s.Index.MaxSID())
	}
	if err == nil {
		err = s.Bounds.EncodeGob(&boundsBuf)
	}
	if err == nil && s.wal != nil {
		walMark, err = s.wal.Rotate()
	}
	s.ingestMu.Unlock()
	span.Fold("capture", phase, time.Since(phase))
	if err != nil {
		return fmt.Errorf("tklus: capturing snapshot state: %w", err)
	}

	// Write every artifact into the temp directory, fsynced. The build
	// image and contents store are immutable after Build (ingest reaches
	// them only at the next batch build), so they stream outside the lock.
	phase = time.Now()
	tmp := filepath.Join(dir, fmt.Sprintf("%s%08d", tmpPrefix, seq))
	if err := fsx.RemoveAll(tmp); err != nil {
		return err
	}
	if err := fsx.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := s.FS.Save(filepath.Join(tmp, dfsDir)); err != nil {
		return fmt.Errorf("tklus: saving DFS image: %w", err)
	}
	if err := fsx.WriteFileSync(filepath.Join(tmp, indexFile), s.Index.Bytes()); err != nil {
		return err
	}
	if err := writeArtifact(tmp, contentsFile, s.Contents.Save); err != nil {
		return err
	}
	if err := fsx.WriteFileSync(filepath.Join(tmp, rowsFile), rowsBuf.Bytes()); err != nil {
		return err
	}
	if err := fsx.WriteFileSync(filepath.Join(tmp, boundsFile), boundsBuf.Bytes()); err != nil {
		return err
	}
	if err := writeManifest(tmp); err != nil {
		return err
	}
	if err := fsx.SyncDir(tmp); err != nil {
		return err
	}
	span.Fold("write_artifacts", phase, time.Since(phase))

	// Commit: rename the finished directory into place, then atomically
	// repoint CURRENT at it. Loaders never look inside .tmp-* or at
	// snapshots CURRENT does not name, so both renames are safe.
	phase = time.Now()
	snapName := fmt.Sprintf("%s%08d", snapPrefix, seq)
	if err := fsx.Rename(tmp, filepath.Join(dir, snapName)); err != nil {
		return err
	}
	if err := fsx.SyncDir(dir); err != nil {
		return err
	}
	curTmp := filepath.Join(dir, currentFile+".tmp")
	if err := fsx.WriteFileSync(curTmp, []byte(snapName+"\n")); err != nil {
		return err
	}
	if err := fsx.Rename(curTmp, filepath.Join(dir, currentFile)); err != nil {
		return err
	}
	if err := fsx.SyncDir(dir); err != nil {
		return err
	}
	atomic.AddInt64(&s.snapshotsSaved, 1)
	atomic.StoreInt64(&s.lastSnapshotUnix, time.Now().Unix())
	span.Fold("commit", phase, time.Since(phase))

	// The snapshot is committed; everything below only reclaims space.
	// Failures here (or a crash) cost bytes, not correctness: leftover
	// snapshots and tmp dirs are skipped by Load and removed by the next
	// Save, and WAL records the snapshot absorbed replay idempotently.
	phase = time.Now()
	gcSnapshots(dir, seq)
	if s.wal != nil && walMark >= 0 {
		_ = s.wal.TruncateThrough(walMark)
	}
	span.Fold("gc", phase, time.Since(phase))
	return nil
}

// writeArtifact streams fn into dir/name and fsyncs it.
func writeArtifact(dir, name string, fn func(io.Writer) error) error {
	f, err := fsx.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("tklus: writing %s: %w", name, err)
	}
	return fsx.SyncClose(f)
}

// writeManifest walks the finished snapshot directory and records every
// file's size and CRC-32C, then writes MANIFEST (fsynced) alongside them.
func writeManifest(snapDir string) error {
	var m manifest
	m.Version = manifestVersion
	err := filepath.WalkDir(snapDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(snapDir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		m.Files = append(m.Files, manifestEntry{
			Name: filepath.ToSlash(rel),
			Size: int64(len(data)),
			CRC:  fmt.Sprintf("%08x", crc32.Checksum(data, persistCRC)),
		})
		return nil
	})
	if err != nil {
		return fmt.Errorf("tklus: building manifest: %w", err)
	}
	sort.Slice(m.Files, func(i, j int) bool { return m.Files[i].Name < m.Files[j].Name })
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	return fsx.WriteFileSync(filepath.Join(snapDir, manifestFile), append(data, '\n'))
}

// nextSnapSeq picks a sequence number above every snap-*/.tmp-snap-* the
// directory holds (committed or abandoned), so names never collide.
func nextSnapSeq(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	next := 1
	for _, e := range entries {
		name := e.Name()
		var numPart string
		switch {
		case strings.HasPrefix(name, snapPrefix):
			numPart = name[len(snapPrefix):]
		case strings.HasPrefix(name, tmpPrefix):
			numPart = name[len(tmpPrefix):]
		default:
			continue
		}
		var n int
		if _, err := fmt.Sscanf(numPart, "%d", &n); err == nil && n >= next {
			next = n + 1
		}
	}
	return next, nil
}

// gcSnapshots best-effort removes committed snapshots older than keep and
// any abandoned temp directories. Errors are ignored: garbage costs disk,
// not correctness.
func gcSnapshots(dir string, keep int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	// Segment awareness: sealed segment files referenced by the segment
	// store's current MANIFEST are live serving state with their own
	// lifecycle — snapshot collection must never take them down, even if
	// a segment directory ever ends up nested under a snap-N path. An
	// unreadable store reports nothing referenced, and the prefix guard
	// below then leaves every candidate containing segment state alone
	// only when the store names it, so the conservative branch is the
	// removal of nothing extra, never of something live.
	referenced := segment.ReferencedFiles(filepath.Join(dir, segmentsDirName))
	shieldsLive := func(candidate string) bool {
		prefix := candidate + string(filepath.Separator)
		for _, ref := range referenced {
			if ref == candidate || strings.HasPrefix(ref, prefix) {
				return true
			}
		}
		return false
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(dir, name)
		if shieldsLive(path) {
			continue
		}
		switch {
		case strings.HasPrefix(name, tmpPrefix):
			if name != fmt.Sprintf("%s%08d", tmpPrefix, keep) {
				_ = fsx.RemoveAll(path)
			}
		case strings.HasPrefix(name, snapPrefix):
			var n int
			if _, err := fmt.Sscanf(name[len(snapPrefix):], "%d", &n); err == nil && n < keep {
				_ = fsx.RemoveAll(path)
			}
		}
	}
	// Ride-along: clear orphaned segment files a crashed seal or
	// compaction left behind; GCOrphans only ever removes what the
	// segment MANIFEST does not reference.
	_ = segment.GCOrphans(filepath.Join(dir, segmentsDirName))
}

// SnapshotExists reports whether dir holds a committed snapshot — i.e.
// whether Load has something to load. A directory with only WAL segments
// (or nothing) returns false.
func SnapshotExists(dir string) bool {
	_, err := os.ReadFile(filepath.Join(dir, currentFile))
	return err == nil
}

// Load reconstructs a system saved by Save and replays any ingest WAL the
// directory holds through the normal Ingest path, so the level counts and
// the segment store after recovery match a process that never crashed. The Config supplies runtime settings (engine options, DB
// page/cache configuration, DFS parameters); the index structure, bounds,
// and data come from the directory. The manifest is verified (version,
// then every file's size and CRC) before anything is decoded; failures
// come back as ErrPartialSave, ErrVersionMismatch or ErrCorruptImage, and
// bounds without a level-count table or counted for another thread depth as
// ErrParamsMismatch.
// Load does not open the WAL for writing — call EnableWAL on the returned
// system to make further Ingests durable.
func Load(dir string, cfg Config) (*System, error) {
	start := time.Now()
	snapName, err := readCurrent(dir)
	if err != nil {
		return nil, err
	}
	snapDir := filepath.Join(dir, snapName)
	if err := verifyManifest(snapDir); err != nil {
		return nil, err
	}

	fsys := dfs.New(cfg.DFS)
	if err := fsys.Load(filepath.Join(snapDir, dfsDir)); err != nil {
		return nil, fmt.Errorf("%w: DFS image: %v", ErrCorruptImage, err)
	}
	raw, err := os.ReadFile(filepath.Join(snapDir, indexFile))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrPartialSave, indexFile, err)
	}
	img, err := segment.OpenBytes(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: decoding %s: %v", ErrCorruptImage, indexFile, err)
	}
	var store *contents.Store
	if err := readFrom(snapDir, contentsFile, func(f io.Reader) error {
		var err error
		store, err = contents.LoadStore(fsys, f)
		return err
	}); err != nil {
		return nil, err
	}
	base := make([]metadb.Row, img.NumRows())
	for i := range base {
		base[i] = img.RowAt(i)
	}
	var db *metadb.DB
	if err := readFrom(snapDir, rowsFile, func(f io.Reader) error {
		var err error
		db, err = metadb.LoadRows(cfg.DB, base, f)
		return err
	}); err != nil {
		return nil, err
	}
	var bounds *thread.Bounds
	if err := readFrom(snapDir, boundsFile, func(f io.Reader) error {
		var err error
		bounds, err = thread.DecodeBoundsGob(f)
		return err
	}); err != nil {
		return nil, err
	}
	sys, err := newSystem(cfg, db, img, fsys, bounds, store)
	if err != nil {
		return nil, err
	}
	sys.Recovery = &RecoveryStats{Snapshot: snapName}
	if err := sys.replayWAL(filepath.Join(dir, walDirName)); err != nil {
		return nil, err
	}
	sys.BuildTime = time.Since(start)
	return sys, nil
}

// replayWAL re-ingests every log record the snapshot does not already
// contain. Records at or below the snapshot's high-water SID are skipped —
// that is the idempotence rule that makes "crash after snapshot commit but
// before log truncation" safe. Replay goes through Ingest itself, so every
// live-ingest side effect (the level counts, the memtable and its seals)
// re-runs exactly.
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

// readCurrent resolves dir's committed snapshot name.
func readCurrent(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		return "", fmt.Errorf("%w: no committed snapshot in %s: %v", ErrPartialSave, dir, err)
	}
	name := strings.TrimSpace(string(data))
	if !strings.HasPrefix(name, snapPrefix) || strings.Contains(name, "/") || strings.Contains(name, "..") {
		return "", fmt.Errorf("%w: CURRENT names %q", ErrCorruptImage, name)
	}
	return name, nil
}

// verifyManifest checks the snapshot's format version and every file's
// size and CRC-32C before any decoding starts, so corruption surfaces as a
// typed error instead of a decoder panic or a silently wrong system.
func verifyManifest(snapDir string) error {
	data, err := os.ReadFile(filepath.Join(snapDir, manifestFile))
	if err != nil {
		return fmt.Errorf("%w: missing manifest: %v", ErrPartialSave, err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("%w: manifest does not parse: %v", ErrCorruptImage, err)
	}
	if m.Version != manifestVersion {
		return fmt.Errorf("%w: snapshot version %d, this build reads %d",
			ErrVersionMismatch, m.Version, manifestVersion)
	}
	if len(m.Files) == 0 {
		return fmt.Errorf("%w: manifest lists no files", ErrCorruptImage)
	}
	for _, e := range m.Files {
		name := filepath.FromSlash(e.Name)
		if strings.Contains(e.Name, "..") || filepath.IsAbs(name) {
			return fmt.Errorf("%w: manifest names %q", ErrCorruptImage, e.Name)
		}
		blob, err := os.ReadFile(filepath.Join(snapDir, name))
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ErrPartialSave, e.Name, err)
		}
		if int64(len(blob)) != e.Size {
			return fmt.Errorf("%w: %s is %d bytes, manifest says %d",
				ErrCorruptImage, e.Name, len(blob), e.Size)
		}
		if got := fmt.Sprintf("%08x", crc32.Checksum(blob, persistCRC)); got != e.CRC {
			return fmt.Errorf("%w: %s CRC %s, manifest says %s",
				ErrCorruptImage, e.Name, got, e.CRC)
		}
	}
	return nil
}

func readFrom(dir, name string, fn func(io.Reader) error) error {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrPartialSave, name, err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		return fmt.Errorf("%w: decoding %s: %v", ErrCorruptImage, name, err)
	}
	return nil
}

// ReplayWAL replays dataDir's ingest WAL into a freshly BUILT system —
// the first-boot edge case where a previous process logged ingests but
// crashed before committing its first snapshot, so there is nothing for
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
// snapshot saves, WAL append/sync/rotation work, and — when the system was
// loaded from disk — the recovery replay counters.
func (s *System) RegisterPersistenceMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("tklus_snapshots_saved_total",
		"Snapshots committed by Save.", nil,
		func() float64 { return float64(atomic.LoadInt64(&s.snapshotsSaved)) })
	reg.GaugeFunc("tklus_snapshot_last_unix",
		"Unix time of the last committed snapshot (0 before the first).", nil,
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
			"WAL records the last Load skipped as already in the snapshot.", nil,
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
