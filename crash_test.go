package tklus_test

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"context"

	tklus "repro"
	"repro/internal/fsx"
)

var errInjectedCrash = errors.New("injected crash")

// searchHotel runs the canonical corpus query. Sum ranking over the tiny
// hand-rolled corpus is fully deterministic, so recovered systems must
// reproduce these results exactly.
func searchHotel(t testing.TB, sys tklus.Searcher, loc tklus.Point) []tklus.UserResult {
	t.Helper()
	res, _, err := sys.Search(context.Background(), tklus.Query{
		Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"},
		K: 3, Ranking: tklus.SumScore,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func equalResults(a, b []tklus.UserResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// extraReplies builds n replies dated after the base corpus, round-robin
// across the three root threads, to ingest on top of a committed checkpoint.
func extraReplies(roots []*tklus.Post, loc tklus.Point, n int) []*tklus.Post {
	at := time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC)
	var extras []*tklus.Post
	for i := 0; i < n; i++ {
		at = at.Add(time.Second)
		extras = append(extras, tklus.NewReply(800+tklus.UserID(i), at, loc, "crash me maybe", roots[i%len(roots)]))
	}
	return extras
}

// TestSaveCrashInjection kills Save immediately before every single
// filesystem mutation it performs — create, fsync, rename, mkdir, remove —
// and asserts the data directory recovers at every kill point. A checkpoint
// of a system serving from the directory seals its memtable: Load must
// succeed (the old segment set before the CURRENT rename, the new one
// after), and because the extra ingests are in the WAL, the recovered query
// results must be byte-identical to a run that never crashed. A heap
// system's Save over a directory another system committed replaces that
// store: Load answers as the old checkpoint or as the new one, never a mix.
func TestSaveCrashInjection(t *testing.T) {
	t.Run("seal", testSealCrashInjection)
	t.Run("replace", testReplaceCrashInjection)
}

func testSealCrashInjection(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	extras := extraReplies(roots, loc, 6)

	oracle, err := tklus.Build(append(append([]*tklus.Post{}, posts...), extras...), tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := searchHotel(t, oracle, loc)

	for kill := 1; ; kill++ {
		dir := t.TempDir()
		sys, err := tklus.Build(posts, tklus.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.EnableWAL(dir, tklus.WALOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := sys.Save(dir); err != nil {
			t.Fatalf("base save: %v", err)
		}
		if err := sys.Ingest(extras...); err != nil {
			t.Fatal(err)
		}

		// Arm the fail-stop hook: die immediately before the kill-th
		// filesystem operation of the second Save.
		ops, tripped := 0, false
		fsx.SetHook(func(op fsx.Op, path string) error {
			ops++
			if ops == kill {
				tripped = true
				return errInjectedCrash
			}
			return nil
		})
		saveErr := sys.Save(dir)
		fsx.SetHook(nil)
		if err := sys.CloseWAL(); err != nil {
			t.Fatal(err)
		}

		if !tripped {
			// The save ran to completion without reaching operation #kill:
			// every kill point has been exercised.
			if saveErr != nil {
				t.Fatalf("uninterrupted save failed: %v", saveErr)
			}
			loaded, err := tklus.Load(dir, tklus.DefaultConfig())
			if err != nil {
				t.Fatalf("load after clean save: %v", err)
			}
			if got := searchHotel(t, loaded, loc); !equalResults(got, want) {
				t.Fatalf("clean save: recovered results %v, want %v", got, want)
			}
			t.Logf("save performs %d filesystem operations; all kill points recovered", kill-1)
			return
		}

		// Post-commit steps (the gc) swallow injected errors by design,
		// so saveErr may be nil even though the hook tripped. Either way the
		// directory must load and replay to the uninterrupted results.
		loaded, err := tklus.Load(dir, tklus.DefaultConfig())
		if err != nil {
			t.Fatalf("kill point %d (save err: %v): load failed: %v", kill, saveErr, err)
		}
		if got := searchHotel(t, loaded, loc); !equalResults(got, want) {
			t.Fatalf("kill point %d: recovered results %v, want %v", kill, got, want)
		}
	}
}

func testReplaceCrashInjection(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	all := append(append([]*tklus.Post{}, posts...), extraReplies(roots, loc, 6)...)
	old, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(t.TempDir(), "old")
	if err := old.Save(saved); err != nil {
		t.Fatal(err)
	}
	wantOld := searchHotel(t, old, loc)
	sys, err := tklus.Build(all, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantNew := searchHotel(t, sys, loc)
	if equalResults(wantOld, wantNew) {
		t.Fatal("the old and the new checkpoint answer alike: the test could not tell them apart")
	}

	for kill := 1; ; kill++ {
		dir := filepath.Join(t.TempDir(), "data")
		copyDir(t, saved, dir)
		ops, tripped := 0, false
		fsx.SetHook(func(op fsx.Op, path string) error {
			ops++
			if ops == kill {
				tripped = true
				return errInjectedCrash
			}
			return nil
		})
		saveErr := sys.Save(dir)
		fsx.SetHook(nil)
		loaded, err := tklus.Load(dir, tklus.DefaultConfig())
		if err != nil {
			t.Fatalf("kill point %d (save err: %v): load failed: %v", kill, saveErr, err)
		}
		got := searchHotel(t, loaded, loc)
		loaded.Close()
		if !tripped {
			if saveErr != nil {
				t.Fatalf("uninterrupted save failed: %v", saveErr)
			}
			if !equalResults(got, wantNew) {
				t.Fatalf("clean save: recovered results %v, want %v", got, wantNew)
			}
			t.Logf("replacing save performs %d filesystem operations; all kill points recovered", kill-1)
			return
		}
		if !equalResults(got, wantOld) && !equalResults(got, wantNew) {
			t.Fatalf("kill point %d: recovered results %v, want the old %v or the new %v", kill, got, wantOld, wantNew)
		}
	}
}

// TestWALRecoveryWithoutSave is the plain crash story: a checkpoint is
// committed, more posts are ingested (reaching only the WAL), and the
// process dies without ever checkpointing again. Load must replay every
// logged record through the normal Ingest path and land on results
// byte-identical to the process that never crashed.
func TestWALRecoveryWithoutSave(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	extras := extraReplies(roots, loc, 8)
	dir := t.TempDir()

	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.EnableWAL(dir, tklus.WALOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(extras...); err != nil {
		t.Fatal(err)
	}
	want := searchHotel(t, sys, loc)
	// Crash: abandon sys. Every record was fsynced (default policy), so the
	// WAL alone carries the extras.
	if err := sys.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	loaded, err := tklus.Load(dir, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Recovery == nil {
		t.Fatal("Load reported no recovery stats")
	}
	if got := loaded.Recovery.WALRecordsReplayed; got != int64(len(extras)) {
		t.Errorf("replayed %d WAL records, want %d (stats %+v)", got, len(extras), loaded.Recovery)
	}
	if loaded.Recovery.WALRecordsSkipped != 0 {
		t.Errorf("skipped %d WAL records, want 0", loaded.Recovery.WALRecordsSkipped)
	}
	if got := searchHotel(t, loaded, loc); !equalResults(got, want) {
		t.Errorf("recovered results %v, want %v", got, want)
	}
}

// TestWALReplaySkipsSnapshottedRecords pins the idempotence rule: when the
// process dies after a checkpoint's seal committed but before the WAL is
// truncated, the log still holds records a sealed segment already contains.
// Replay must skip them by SID — re-ingesting would fail (or double-count)
// — and still produce the uninterrupted results.
func TestWALReplaySkipsSnapshottedRecords(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	extras := extraReplies(roots, loc, 5)
	dir := t.TempDir()

	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.EnableWAL(dir, tklus.WALOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(extras...); err != nil {
		t.Fatal(err)
	}
	want := searchHotel(t, sys, loc)

	// Crash after the second Save committed its seal but before it
	// truncated the WAL: put back the log as it stood before the Save.
	walDir := filepath.Join(dir, "wal")
	logged := filepath.Join(t.TempDir(), "wal")
	copyDir(t, walDir, logged)
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(walDir); err != nil {
		t.Fatal(err)
	}
	copyDir(t, logged, walDir)

	loaded, err := tklus.Load(dir, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Recovery.WALRecordsSkipped; got != int64(len(extras)) {
		t.Errorf("skipped %d WAL records, want %d (stats %+v)", got, len(extras), loaded.Recovery)
	}
	if loaded.Recovery.WALRecordsReplayed != 0 {
		t.Errorf("replayed %d WAL records, want 0 (all are in a sealed segment)",
			loaded.Recovery.WALRecordsReplayed)
	}
	if got := searchHotel(t, loaded, loc); !equalResults(got, want) {
		t.Errorf("recovered results %v, want %v", got, want)
	}
}

// TestWALTornTailRecovered simulates dying mid-append: the last WAL segment
// ends in a partial record. Load must tolerate it — the torn record was
// never acknowledged — replay every complete record, and flag the tear in
// the recovery stats.
func TestWALTornTailRecovered(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	extras := extraReplies(roots, loc, 4)
	dir := t.TempDir()

	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.EnableWAL(dir, tklus.WALOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(extras...); err != nil {
		t.Fatal(err)
	}
	want := searchHotel(t, sys, loc)
	if err := sys.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: append half a record header to the newest segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments (err %v)", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := tklus.Load(dir, tklus.DefaultConfig())
	if err != nil {
		t.Fatalf("torn tail must be tolerated, got: %v", err)
	}
	if !loaded.Recovery.WALTornTail {
		t.Error("recovery stats did not flag the torn tail")
	}
	if got := loaded.Recovery.WALRecordsReplayed; got != int64(len(extras)) {
		t.Errorf("replayed %d WAL records, want %d", got, len(extras))
	}
	if got := searchHotel(t, loaded, loc); !equalResults(got, want) {
		t.Errorf("recovered results %v, want %v", got, want)
	}
}
