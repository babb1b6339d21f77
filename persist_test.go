package tklus_test

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	tklus "repro"
	"repro/internal/baseline"
	"repro/internal/datagen"
	"repro/internal/segment"
	"repro/internal/social"
	"repro/internal/wal"
)

// dirEntries lists the names directly under dir, sorted.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// segmentFiles maps every sealed segment file of dir/segments to its size.
func segmentFiles(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "segments", "seg-*.tkseg"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(paths))
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = fi.Size()
	}
	return out
}

// copyDir copies the tree under src to dst, so a test can damage a saved
// directory no live system maps.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	sys, corpus := buildSystem(t, 5000)
	dir := filepath.Join(t.TempDir(), "saved")
	if _, err := sys.EnableWAL(dir, tklus.WALOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	// The segment store and the WAL are the whole checkpoint.
	if got := dirEntries(t, dir); !slices.Equal(got, []string{"segments", "wal"}) {
		t.Fatalf("saved directory holds %v, want only segments and wal", got)
	}
	loaded, err := tklus.Load(dir, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Store.Dir(), filepath.Join(dir, "segments"); got != want {
		t.Fatalf("loaded system serves from %q, want %q in place", got, want)
	}

	if loaded.Store.NumKeys() != sys.Store.NumKeys() {
		t.Fatalf("keys: loaded %d vs built %d", loaded.Store.NumKeys(), sys.Store.NumKeys())
	}
	if loaded.DB.Len() != sys.DB.Len() {
		t.Fatalf("rows: loaded %d vs built %d", loaded.DB.Len(), sys.DB.Len())
	}
	if got, want := levelTable(loaded.DB), levelTable(sys.DB); !reflect.DeepEqual(got, want) {
		t.Fatalf("level-count tables differ: %d vs %d entries", len(got), len(want))
	}
	if loaded.Recovery == nil || loaded.Recovery.WALRecordsReplayed != 0 || loaded.Recovery.Segments == 0 {
		t.Fatalf("recovery stats = %+v, want segments and zero replays", loaded.Recovery)
	}

	// Queries against the loaded system must be byte-identical to the
	// original for every ranking and semantic.
	toronto := corpus.Config.Cities[0].Center
	for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
		for _, sem := range []tklus.Semantic{tklus.Or, tklus.And} {
			q := tklus.Query{
				Loc: toronto, RadiusKm: 20,
				Keywords: []string{"restaurant", "pizza"}, K: 10,
				Ranking: ranking, Semantic: sem,
			}
			a, _, err := sys.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := loaded.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%v/%v: loaded %v, built %v", ranking, sem, b, a)
			}
		}
	}

	// The texts ride in the segments: evidence survives the round trip.
	q := tklus.Query{Loc: toronto, RadiusKm: 20, Keywords: []string{"restaurant"}, K: 3}
	res, _, err := loaded.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no result to take evidence of")
	}
	got, err := loaded.Evidence(q, res[0].UID, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Evidence(q, res[0].UID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0] == "" || !slices.Equal(got, want) {
		t.Errorf("loaded evidence %q, built %q", got, want)
	}
}

// TestRepeatedSaveKeepsOneSnapshot: the first Save of a heap system writes
// its segments to dir/segments and serves from there; every later Save is a
// seal and copies no bytes — with nothing ingested, every sealed segment
// file keeps its name and size, however the directory is spelled — and the
// directory holds one store.
func TestRepeatedSaveKeepsOneSnapshot(t *testing.T) {
	sys, _ := buildSystem(t, 500)
	dir := filepath.Join(t.TempDir(), "saved")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if got, want := sys.Store.Dir(), filepath.Join(dir, "segments"); got != want {
		t.Fatalf("after Save the system serves from %q, want %q", got, want)
	}
	first := segmentFiles(t, dir)
	if len(first) == 0 {
		t.Fatal("Save wrote no segment file")
	}
	manifests, _ := filepath.Glob(filepath.Join(dir, "segments", "MANIFEST-*"))
	// The second spelling names the same directory.
	for i, d := range []string{dir, dir + string(filepath.Separator) + "."} {
		if err := sys.Save(d); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		if got := segmentFiles(t, dir); !reflect.DeepEqual(got, first) {
			t.Fatalf("save %d rewrote the segments: %v, then %v", i, first, got)
		}
	}
	if again, _ := filepath.Glob(filepath.Join(dir, "segments", "MANIFEST-*")); !slices.Equal(again, manifests) {
		t.Errorf("saves with nothing to seal committed manifests %v, then %v", manifests, again)
	}
	if got := dirEntries(t, dir); !slices.Equal(got, []string{"segments"}) {
		t.Errorf("saved directory holds %v, want only segments", got)
	}
	if _, err := tklus.Load(dir, tklus.DefaultConfig()); err != nil {
		t.Fatalf("load after repeated saves: %v", err)
	}
}

func TestLoadMissingDirectory(t *testing.T) {
	_, err := tklus.Load(filepath.Join(t.TempDir(), "nope"), tklus.DefaultConfig())
	if !errors.Is(err, tklus.ErrPartialSave) {
		t.Errorf("missing directory: err = %v, want ErrPartialSave", err)
	}
}

// TestLoadCorruptionMatrix damages every committed artifact — a sealed
// segment, the MANIFEST and the CURRENT pointer of dir/segments — in every
// way (delete, truncate, flip a byte) and requires Load to come back with
// the right typed error, never a panic or a half-loaded system. Each case
// damages a copy of one saved directory, which no live system maps.
func TestLoadCorruptionMatrix(t *testing.T) {
	sys, _ := buildSystem(t, 1000)
	saved := filepath.Join(t.TempDir(), "saved")
	if err := sys.Save(saved); err != nil {
		t.Fatal(err)
	}

	type mutation struct {
		name string
		do   func(t *testing.T, path string)
	}
	mutations := []mutation{
		{"delete", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncate", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"flip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 {
				t.Fatal("empty file")
			}
			data[len(data)/2] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}

	// glob resolves one artifact inside the damaged copy.
	glob := func(pattern string) func(*testing.T, string) string {
		return func(t *testing.T, dir string) string {
			matches, err := filepath.Glob(filepath.Join(dir, "segments", pattern))
			if err != nil || len(matches) == 0 {
				t.Fatalf("no %s: %v", pattern, err)
			}
			sort.Strings(matches)
			return matches[0]
		}
	}
	partial := []error{tklus.ErrPartialSave}
	corrupt := []error{tklus.ErrCorruptImage}
	targets := []struct {
		name string
		path func(t *testing.T, dir string) string
		// want maps mutation name -> acceptable sentinels. Deleting a file
		// is the partial-save shape; damaging bytes is corruption. The
		// pointer/manifest cases where the damage can land on either side
		// of that line accept both.
		want map[string][]error
	}{
		// The checkpoint's index is its seg-NNNNNNNN.tkseg segments; the
		// target keeps its old name and damages the first.
		{"index.tkseg", glob("seg-*.tkseg"), map[string][]error{"delete": partial, "truncate": corrupt, "flip": corrupt}},
		{"MANIFEST", glob("MANIFEST-*"), map[string][]error{
			"delete":   partial,
			"truncate": corrupt,
			// A flipped byte can break the JSON, an entry the segment
			// contradicts, the version digit, or a file name (which then
			// reads as a missing file).
			"flip": {tklus.ErrCorruptImage, tklus.ErrVersionMismatch, tklus.ErrPartialSave},
		}},
		{"CURRENT", glob("CURRENT"), map[string][]error{
			"delete":   partial,
			"truncate": {tklus.ErrPartialSave, tklus.ErrCorruptImage},
			"flip":     {tklus.ErrPartialSave, tklus.ErrCorruptImage},
		}},
	}

	for _, tg := range targets {
		for _, mu := range mutations {
			t.Run(tg.name+"/"+mu.name, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "copy")
				copyDir(t, saved, dir)
				mu.do(t, tg.path(t, dir))
				loaded, err := tklus.Load(dir, tklus.DefaultConfig())
				if err == nil {
					t.Fatalf("damaged %s (%s) loaded", tg.name, mu.name)
				}
				if loaded != nil {
					t.Fatalf("Load returned a system alongside error %v", err)
				}
				ok := false
				for _, want := range tg.want[mu.name] {
					if errors.Is(err, want) {
						ok = true
					}
				}
				if !ok {
					t.Errorf("%s/%s: err = %v, want one of %v", tg.name, mu.name, err, tg.want[mu.name])
				}
			})
		}
	}
}

// TestLoadVersionMismatch: a snapshot directory earlier code wrote (CURRENT
// naming snap-NNNNNNNN/ beside the data) is refused as a version mismatch
// before anything decodes — also when a segment store sits beside it.
func TestLoadVersionMismatch(t *testing.T) {
	sys, _ := buildSystem(t, 500)
	for _, withStore := range []bool{false, true} {
		dir := filepath.Join(t.TempDir(), "saved")
		if withStore {
			if err := sys.Save(dir); err != nil {
				t.Fatal(err)
			}
		}
		snap := filepath.Join(dir, "snap-00000001")
		if err := os.MkdirAll(snap, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(snap, "MANIFEST"), []byte(`{"version": 4, "files": []}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "CURRENT"), []byte("snap-00000001\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := tklus.Load(dir, tklus.DefaultConfig()); !errors.Is(err, tklus.ErrVersionMismatch) {
			t.Errorf("snapshot directory (segment store beside it: %v): err = %v, want ErrVersionMismatch", withStore, err)
		}
	}
}

// levelTable is every counted thread's level sizes, keyed by root.
func levelTable(c *social.Corpus) map[tklus.PostID][]uint32 {
	out := make(map[tklus.PostID][]uint32)
	c.Levels(func(root tklus.PostID, levels []uint32) { out[root] = slices.Clone(levels) })
	return out
}

// TestLoadRefusesSnapshotOfAnotherFormat: a segment the parser rejects is
// refused with its typed error in the chain — a TKSEG2 file (no texts) or
// another format version as a version mismatch and segment.ErrVersion,
// bytes whose own CRC fails as corruption.
func TestLoadRefusesSnapshotOfAnotherFormat(t *testing.T) {
	sys, _ := buildSystem(t, 500)
	saved := filepath.Join(t.TempDir(), "saved")
	if err := sys.Save(saved); err != nil {
		t.Fatal(err)
	}
	tkseg2, err := os.ReadFile(filepath.Join("internal", "segment", "testdata", "tkseg2.tkseg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		mutate func(b []byte) []byte
		want   []error
	}{
		{"TKSEG2 file", func([]byte) []byte { return tkseg2 }, []error{tklus.ErrVersionMismatch, segment.ErrVersion}},
		{"segment format version 9", func(b []byte) []byte { b[8] = 9; return b }, []error{tklus.ErrVersionMismatch, segment.ErrVersion}},
		{"row byte under the image's CRC", func(b []byte) []byte { b[64+8] ^= 0xff; return b }, []error{tklus.ErrCorruptImage, segment.ErrChecksum}},
	} {
		dir := filepath.Join(t.TempDir(), "copy")
		copyDir(t, saved, dir)
		path := filepath.Join(dir, "segments", "seg-00000001.tkseg")
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, c.mutate(img), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = tklus.Load(dir, tklus.DefaultConfig())
		for _, want := range c.want {
			if !errors.Is(err, want) {
				t.Errorf("%s: err = %v, want errors.Is %v", c.name, err, want)
			}
		}
	}
}

// TestSnapshotStoresEachRowOnce: Save seals the memtable, so the store's
// segments hold every row exactly once — the build image's, then the
// ingested ones — and Load derives the whole corpus table from them.
func TestSnapshotStoresEachRowOnce(t *testing.T) {
	sys, corpus := buildSystem(t, 500)
	at := corpus.Posts[len(corpus.Posts)-1].Time.Add(time.Minute)
	loc := corpus.Config.Cities[0].Center
	if err := sys.Ingest(
		tklus.NewPost(7001, at, loc, "late hotel"),
		tklus.NewReply(7002, at.Add(time.Second), loc, "same", corpus.Posts[0]),
	); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "saved")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for name := range segmentFiles(t, dir) {
		seg, err := segment.Open(filepath.Join(dir, "segments", name))
		if err != nil {
			t.Fatal(err)
		}
		rows += seg.NumRows()
		seg.Close()
	}
	if want := len(corpus.Posts) + 2; rows != want {
		t.Errorf("segments hold %d rows, want %d: the image, then the two ingested rows", rows, want)
	}
	loaded, err := tklus.Load(dir, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DB.Len() != sys.DB.Len() {
		t.Fatalf("loaded %d rows, want %d", loaded.DB.Len(), sys.DB.Len())
	}
	for _, p := range corpus.Posts {
		want, _ := sys.Store.LookupRowMeta(p.SID)
		if got, ok := loaded.Store.LookupRowMeta(p.SID); !ok || got != want {
			t.Fatalf("row %d: loaded %+v (%v), want %+v", p.SID, got, ok, want)
		}
		if got, want := loaded.DB.PostCountOfUser(p.UID), sys.DB.PostCountOfUser(p.UID); got != want {
			t.Fatalf("user %d: loaded |P_u| = %d, want %d", p.UID, got, want)
		}
	}
	gotMin, gotMax := loaded.DB.SIDRange()
	if wantMin, wantMax := sys.DB.SIDRange(); gotMin != wantMin || gotMax != wantMax {
		t.Fatalf("loaded SID range [%d, %d], want [%d, %d]", gotMin, gotMax, wantMin, wantMax)
	}
	gotNodes, gotPhi := loaded.Thread(corpus.Posts[0].SID)
	wantNodes, wantPhi := sys.Thread(corpus.Posts[0].SID)
	if !reflect.DeepEqual(gotNodes, wantNodes) || gotPhi != wantPhi {
		t.Fatalf("thread of %d: loaded %v (φ %v), want %v (φ %v)", corpus.Posts[0].SID, gotNodes, gotPhi, wantNodes, wantPhi)
	}
}

func TestSaveToUnwritableLocation(t *testing.T) {
	sys, _ := buildSystem(t, 500)
	// A path under a regular file cannot be created as a directory.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(filepath.Join(blocker, "sub")); err == nil {
		t.Error("save under a regular file succeeded")
	}
}

// TestSaveLoadDifferentEngineOptions: the directory carries data; engine
// options come from the Load config, and the level-count table is counted
// from the rows at the config's thread depth. A directory saved under the
// defaults and loaded with the recency extension, with another ε, or with
// another thread depth answers exactly (==) as a fresh build with the same
// options does — and, for the recency leg, as the scan oracle.
func TestSaveLoadDifferentEngineOptions(t *testing.T) {
	sys, corpus := buildSystem(t, 3000)
	dir := t.TempDir()
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	recency := tklus.DefaultConfig()
	recency.Engine.RecencyHalfLife = 0.3
	otherEps := tklus.DefaultConfig()
	otherEps.Engine.Params.Epsilon = 0.3
	shallow := tklus.DefaultConfig()
	shallow.Engine.Params.ThreadDepth = 2
	center := corpus.Config.Cities[0].Center
	for name, cfg := range map[string]tklus.Config{"recency": recency, "ε 0.3": otherEps, "depth 2": shallow} {
		loaded, err := tklus.Load(dir, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh, err := tklus.Build(corpus.Posts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		answered := 0
		for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
			for _, kw := range []string{"hotel", datagen.HotKeywords[1], datagen.HotKeywords[2]} {
				q := tklus.Query{Loc: center, RadiusKm: 15, Keywords: []string{kw}, K: 5, Ranking: ranking}
				want, _, err := fresh.Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := loaded.Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v %q: loaded %v, fresh build %v", name, ranking, kw, got, want)
				}
				answered += len(got)
			}
		}
		if answered == 0 {
			t.Fatalf("%s: no query returned a user: the comparison checks nothing", name)
		}
		loaded.Close()
	}

	scan := baseline.NewScanRanker(corpus.Posts, recency.Engine.Params)
	scan.RecencyHalfLife = recency.Engine.RecencyHalfLife
	loaded, err := tklus.Load(dir, recency)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
		q := tklus.Query{Loc: center, RadiusKm: 15, Keywords: []string{"hotel"}, K: 5, Ranking: ranking}
		got, _, err := loaded.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := scan.Search(q)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("%v: loaded %v, scan oracle %v", ranking, got, want)
		}
		for i := range got {
			if got[i].UID != want[i].UID || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
				t.Fatalf("%v result %d: loaded %+v, scan oracle %+v", ranking, i, got[i], want[i])
			}
		}
	}
}

// TestRestartReplaysWALOnce: Load opens dir/segments in place and replays
// the WAL once, through Ingest, into that store's memtable: the records it
// replays are exactly the logged ones beyond the last sealed segment, the
// memtable holds exactly them, and EnableSegments with the same directory
// afterwards — what a restarting server or harness calls next — adds
// nothing.
func TestRestartReplaysWALOnce(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	extras := extraReplies(roots, loc, 6)
	dir := t.TempDir()
	segDir := filepath.Join(dir, "segments")

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
	if err := sys.Ingest(extras[:2]...); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil { // seals the first two
		t.Fatal(err)
	}
	if err := sys.Ingest(extras[2:]...); err != nil {
		t.Fatal(err)
	}
	want := searchHotel(t, sys, loc)
	if err := sys.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	sys.Close() // crash: the last four live only in the WAL

	loaded, err := tklus.Load(dir, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Store.Dir() != segDir {
		t.Fatalf("loaded system serves from %q, want %q", loaded.Store.Dir(), segDir)
	}
	segs := loaded.Store.Segments()
	sealed := segs[len(segs)-1].MaxSID()
	var beyond int64
	if _, err := wal.Replay(filepath.Join(dir, "wal"), func(p *tklus.Post) error {
		if p.SID > sealed {
			beyond++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rec := loaded.Recovery
	if beyond != int64(len(extras)-2) || rec.WALRecordsReplayed != beyond {
		t.Fatalf("replayed %d records, the WAL holds %d beyond the sealed SID %d (want %d)",
			rec.WALRecordsReplayed, beyond, sealed, len(extras)-2)
	}
	if got := loaded.Store.Memtable().Len(); int64(got) != rec.WALRecordsReplayed {
		t.Fatalf("memtable holds %d rows after replaying %d records", got, rec.WALRecordsReplayed)
	}

	segments, rows, keys := loaded.Store.SegmentCount(), loaded.DB.Len(), loaded.Store.NumKeys()
	if _, err := tklus.EnableSegments(loaded, tklus.SegmentOptions{Dir: segDir, WALDir: dir}); err != nil {
		t.Fatal(err)
	}
	if loaded.Store.Memtable().Len() != int(rec.WALRecordsReplayed) || loaded.DB.Len() != rows ||
		loaded.Store.SegmentCount() != segments || loaded.Store.NumKeys() != keys {
		t.Fatalf("EnableSegments on the loaded directory changed the store: memtable %d, rows %d, segments %d, keys %d",
			loaded.Store.Memtable().Len(), loaded.DB.Len(), loaded.Store.SegmentCount(), loaded.Store.NumKeys())
	}
	if got := searchHotel(t, loaded, loc); !equalResults(got, want) {
		t.Fatalf("after restart: %v, want %v", got, want)
	}
}
