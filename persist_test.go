package tklus_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	tklus "repro"
	"repro/internal/baseline"
	"repro/internal/datagen"
	"repro/internal/metadb"
	"repro/internal/thread"
)

// snapDirOf resolves the committed snapshot directory of a saved system.
func snapDirOf(t *testing.T, dir string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatalf("reading CURRENT: %v", err)
	}
	return filepath.Join(dir, strings.TrimSpace(string(data)))
}

func TestSaveLoadRoundTrip(t *testing.T) {
	sys, corpus := buildSystem(t, 5000)
	dir := filepath.Join(t.TempDir(), "saved")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := tklus.Load(dir, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Index.NumKeys() != sys.Index.NumKeys() {
		t.Fatalf("keys: loaded %d vs built %d", loaded.Index.NumKeys(), sys.Index.NumKeys())
	}
	if loaded.DB.Len() != sys.DB.Len() {
		t.Fatalf("rows: loaded %d vs built %d", loaded.DB.Len(), sys.DB.Len())
	}
	if got, want := levelTable(loaded.Bounds), levelTable(sys.Bounds); !reflect.DeepEqual(got, want) {
		t.Fatalf("level-count tables differ: %d vs %d entries", len(got), len(want))
	}
	if loaded.Recovery == nil || loaded.Recovery.WALRecordsReplayed != 0 {
		t.Fatalf("recovery stats = %+v, want zero replays with no WAL", loaded.Recovery)
	}

	// Queries against the loaded system must be byte-identical to the
	// original for every ranking and semantic.
	toronto := corpus.Config.Cities[0].Center
	for _, ranking := range []int{int(tklus.SumScore), int(tklus.MaxScore)} {
		for _, sem := range []int{int(tklus.Or), int(tklus.And)} {
			q := tklus.Query{
				Loc: toronto, RadiusKm: 20,
				Keywords: []string{"restaurant", "pizza"}, K: 10,
			}
			if ranking == int(tklus.MaxScore) {
				q.Ranking = tklus.MaxScore
			}
			if sem == int(tklus.And) {
				q.Semantic = tklus.And
			}
			a, _, err := sys.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := loaded.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("result %d differs: %+v vs %+v", i, a[i], b[i])
				}
			}
		}
	}

	// Evidence (contents store) survives the round trip.
	q := tklus.Query{Loc: toronto, RadiusKm: 20, Keywords: []string{"restaurant"}, K: 3}
	res, _, err := loaded.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) > 0 {
		texts, err := loaded.Evidence(q, res[0].UID, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(texts) == 0 || texts[0] == "" {
			t.Error("loaded system returned no evidence texts")
		}
	}
}

func TestRepeatedSaveKeepsOneSnapshot(t *testing.T) {
	sys, _ := buildSystem(t, 500)
	dir := filepath.Join(t.TempDir(), "saved")
	for i := 0; i < 3; i++ {
		if err := sys.Save(dir); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps int
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") {
			snaps++
		}
		if strings.HasPrefix(e.Name(), ".tmp-snap-") {
			t.Errorf("abandoned temp dir %s survived", e.Name())
		}
	}
	if snaps != 1 {
		t.Errorf("%d committed snapshots after GC, want 1", snaps)
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

// TestLoadCorruptionMatrix damages every persisted artifact (plus the
// manifest and the CURRENT pointer) in every way — delete, truncate, flip
// a byte — and requires Load to come back with the right typed error,
// never a panic or a half-loaded system.
func TestLoadCorruptionMatrix(t *testing.T) {
	sys, _ := buildSystem(t, 1000)

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

	// target resolves one artifact path inside a freshly saved directory.
	type target struct {
		name string
		path func(t *testing.T, dir string) string
		// want maps mutation name -> acceptable sentinels. Deleting a file
		// is the partial-save shape; damaging bytes is corruption. The few
		// pointer/manifest cases where the damage can land on either side
		// of that line accept both.
		want map[string][]error
	}
	inSnap := func(rel string) func(*testing.T, string) string {
		return func(t *testing.T, dir string) string {
			return filepath.Join(snapDirOf(t, dir), rel)
		}
	}
	partial := []error{tklus.ErrPartialSave}
	corrupt := []error{tklus.ErrCorruptImage}
	artifactWant := map[string][]error{"delete": partial, "truncate": corrupt, "flip": corrupt}
	targets := []target{
		{"index.tkseg", inSnap("index.tkseg"), artifactWant},
		{"contents.bin", inSnap("contents.bin"), artifactWant},
		{"rows.bin", inSnap("rows.bin"), artifactWant},
		{"bounds.gob", inSnap("bounds.gob"), artifactWant},
		{"dfs-image", func(t *testing.T, dir string) string {
			matches, err := filepath.Glob(filepath.Join(snapDirOf(t, dir), "dfs", "*"))
			if err != nil || len(matches) == 0 {
				t.Fatalf("no dfs image files: %v", err)
			}
			return matches[0]
		}, artifactWant},
		{"MANIFEST", inSnap("MANIFEST"), map[string][]error{
			"delete":   partial,
			"truncate": corrupt,
			// A flipped byte can break the JSON, a CRC entry, the version
			// digit, or a file name (which then reads as a missing file).
			"flip": {tklus.ErrCorruptImage, tklus.ErrVersionMismatch, tklus.ErrPartialSave},
		}},
		{"CURRENT", func(t *testing.T, dir string) string {
			return filepath.Join(dir, "CURRENT")
		}, map[string][]error{
			"delete":   partial,
			"truncate": {tklus.ErrPartialSave, tklus.ErrCorruptImage},
			"flip":     {tklus.ErrPartialSave, tklus.ErrCorruptImage},
		}},
	}

	for _, tg := range targets {
		for _, mu := range mutations {
			t.Run(tg.name+"/"+mu.name, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "saved")
				if err := sys.Save(dir); err != nil {
					t.Fatal(err)
				}
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

func TestLoadVersionMismatch(t *testing.T) {
	sys, _ := buildSystem(t, 500)
	dir := filepath.Join(t.TempDir(), "saved")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	mfPath := filepath.Join(snapDirOf(t, dir), "MANIFEST")
	data, err := os.ReadFile(mfPath)
	if err != nil {
		t.Fatal(err)
	}
	future := strings.Replace(string(data), `"version": 3`, `"version": 99`, 1)
	if future == string(data) {
		t.Fatal("manifest version field not found")
	}
	if err := os.WriteFile(mfPath, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tklus.Load(dir, tklus.DefaultConfig()); !errors.Is(err, tklus.ErrVersionMismatch) {
		t.Errorf("future-version snapshot: err = %v, want ErrVersionMismatch", err)
	}
}

// levelTable is every counted thread's level sizes, keyed by root.
func levelTable(b *thread.Bounds) map[tklus.PostID][]uint32 {
	out := make(map[tklus.PostID][]uint32)
	b.Range(func(root tklus.PostID, levels []uint32) { out[root] = slices.Clone(levels) })
	return out
}

// TestLoadRejectsBoundsOfAnotherScoringModel: the level-count table is
// decoded from the snapshot, the engine options from the Config. A snapshot
// saved at thread depth 2 and loaded at the default depth would score
// popularities of a different model — Load refuses it. The table holds
// counts, not scores, so ε is free: an image saved at ε 0.1 and loaded at
// ε 0.3 answers exactly as a fresh build at ε 0.3.
func TestLoadRejectsBoundsOfAnotherScoringModel(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NumUsers, cfg.NumPosts = 200, 500
	corpus, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	saved := tklus.DefaultConfig()
	saved.Engine.Params.ThreadDepth = 2
	sys, err := tklus.Build(corpus.Posts, saved)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "saved")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := tklus.Load(dir, tklus.DefaultConfig()); !errors.Is(err, tklus.ErrParamsMismatch) {
		t.Errorf("depth 6: err = %v, want ErrParamsMismatch", err)
	}

	otherEps := saved
	otherEps.Engine.Params.Epsilon = 0.3
	loaded, err := tklus.Load(dir, otherEps)
	if err != nil {
		t.Fatalf("ε 0.3: %v", err)
	}
	fresh, err := tklus.Build(corpus.Posts, otherEps)
	if err != nil {
		t.Fatal(err)
	}
	center := corpus.Config.Cities[0].Center
	answered := 0
	for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
		for _, kw := range datagen.HotKeywords[:3] {
			q := tklus.Query{Loc: center, RadiusKm: 30, Keywords: []string{kw}, K: 10, Ranking: ranking}
			got, _, err := loaded.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := fresh.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v %q: saved at ε 0.1, loaded at ε 0.3: %v, fresh build at ε 0.3: %v", ranking, kw, got, want)
			}
			answered += len(got)
		}
	}
	if answered == 0 {
		t.Fatal("no query returned a user: the comparison checks nothing")
	}
}

// TestLoadRejectsTablelessBounds: a snapshot whose bounds.gob holds no
// level-count table — the exported bound fields alone, or the dense φ
// column of one ε that earlier code wrote — holds nothing for the engine to
// score from at this code's model, so Load refuses it with a typed error
// rather than serve scores of no table. The manifest is rewritten to match
// the new file, so only the bounds themselves can object.
func TestLoadRejectsTablelessBounds(t *testing.T) {
	sys, _ := buildSystem(t, 500)
	type preTableBounds struct {
		TM, Depth          int
		Def11, MaxObserved float64
		PerKeyword         map[string]float64
	}
	type phiColumnBounds struct {
		TM, Depth          int
		Def11, MaxObserved float64
		PerKeyword         map[string]float64
		PhiSIDs            []tklus.PostID
		PhiVals            []float64
		PhiFloor           float64
	}
	depth := tklus.DefaultConfig().Engine.Params.ThreadDepth
	kw := map[string]float64{"hotel": 2.5}
	for name, image := range map[string]any{
		"exported fields only": &preTableBounds{TM: 3, Depth: depth, Def11: 7.5, MaxObserved: 2.5, PerKeyword: kw},
		"φ column": &phiColumnBounds{TM: 3, Depth: depth, Def11: 7.5, MaxObserved: 2.5, PerKeyword: kw,
			PhiSIDs: []tklus.PostID{1, 2}, PhiVals: []float64{2.5, 0.1}, PhiFloor: 0.1},
	} {
		dir := filepath.Join(t.TempDir(), "saved")
		if err := sys.Save(dir); err != nil {
			t.Fatal(err)
		}
		var img bytes.Buffer
		if err := gob.NewEncoder(&img).Encode(image); err != nil {
			t.Fatal(err)
		}
		replaceSnapshotFile(t, snapDirOf(t, dir), "bounds.gob", img.Bytes())
		if _, err := tklus.Load(dir, tklus.DefaultConfig()); !errors.Is(err, tklus.ErrParamsMismatch) {
			t.Errorf("%s: err = %v, want ErrParamsMismatch", name, err)
		}
	}
}

// replaceSnapshotFile overwrites one file of a committed snapshot and
// rewrites the manifest's size and CRC for it, so only the file's decoder
// can object to the new content.
func replaceSnapshotFile(t *testing.T, snap, name string, content []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(snap, name), content, 0o644); err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Version int `json:"version"`
		Files   []struct {
			Name string `json:"name"`
			Size int64  `json:"size"`
			CRC  string `json:"crc32c"`
		} `json:"files"`
	}
	data, err := os.ReadFile(filepath.Join(snap, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	rewritten := false
	for i := range mf.Files {
		if mf.Files[i].Name == name {
			mf.Files[i].Size = int64(len(content))
			mf.Files[i].CRC = fmt.Sprintf("%08x", crc32.Checksum(content, crc32.MakeTable(crc32.Castagnoli)))
			rewritten = true
		}
	}
	if !rewritten {
		t.Fatalf("manifest lists no %s", name)
	}
	if data, err = json.Marshal(&mf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snap, "MANIFEST"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRefusesSnapshotOfAnotherFormat: a version-1 snapshot (paged DFS
// postings, forward.bin, every row in rows.bin) and a version-2 one (a
// TKSEG1 index image, whose postings held tweet IDs) are refused as a
// version mismatch before anything decodes, and an index image the segment
// parser rejects — another segment format version, a TKSEG1 magic, or bytes
// whose own CRC fails — is corruption, with the manifest rewritten to match
// so only the image can object.
func TestLoadRefusesSnapshotOfAnotherFormat(t *testing.T) {
	sys, _ := buildSystem(t, 500)
	save := func() string {
		dir := filepath.Join(t.TempDir(), "saved")
		if err := sys.Save(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	for _, old := range []string{`"version": 1`, `"version": 2`} {
		dir := save()
		mfPath := filepath.Join(snapDirOf(t, dir), "MANIFEST")
		mf, err := os.ReadFile(mfPath)
		if err != nil {
			t.Fatal(err)
		}
		downgraded := strings.Replace(string(mf), `"version": 3`, old, 1)
		if downgraded == string(mf) {
			t.Fatal("manifest version field not found")
		}
		if err := os.WriteFile(mfPath, []byte(downgraded), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := tklus.Load(dir, tklus.DefaultConfig()); !errors.Is(err, tklus.ErrVersionMismatch) {
			t.Errorf("snapshot with %s: err = %v, want ErrVersionMismatch", old, err)
		}
	}

	for _, c := range []struct {
		name   string
		mutate func(b []byte)
	}{
		{"segment format version 9", func(b []byte) { b[8] = 9 }},
		{"TKSEG1 magic and version", func(b []byte) { b[5], b[8] = '1', 1 }},
		{"row byte under the image's CRC", func(b []byte) { b[64+8] ^= 0xff }},
	} {
		dir := save()
		snap := snapDirOf(t, dir)
		img, err := os.ReadFile(filepath.Join(snap, "index.tkseg"))
		if err != nil {
			t.Fatal(err)
		}
		c.mutate(img)
		replaceSnapshotFile(t, snap, "index.tkseg", img)
		if _, err := tklus.Load(dir, tklus.DefaultConfig()); !errors.Is(err, tklus.ErrCorruptImage) {
			t.Errorf("%s: err = %v, want ErrCorruptImage", c.name, err)
		}
	}
}

// TestSnapshotStoresEachRowOnce: the index image holds the rows it indexes,
// so rows.bin carries only the rows ingested beyond the image, and Load
// rebuilds the whole metadata database from the two.
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
	rows, err := os.ReadFile(filepath.Join(snapDirOf(t, dir), "rows.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if want := len("TKROW1") + 8 + 2*48; len(rows) != want {
		t.Errorf("rows.bin is %d bytes, want %d: the two ingested rows alone", len(rows), want)
	}
	loaded, err := tklus.Load(dir, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DB.Len() != sys.DB.Len() || loaded.Index.NumRows() != len(corpus.Posts) {
		t.Fatalf("loaded %d rows (%d in the image), want %d (%d)", loaded.DB.Len(), loaded.Index.NumRows(), sys.DB.Len(), len(corpus.Posts))
	}
	sys.DB.Scan(func(want metadb.Row) bool {
		if got, ok := loaded.DB.GetBySID(want.SID); !ok || got != want {
			t.Fatalf("row %d: loaded %+v (%v), want %+v", want.SID, got, ok, want)
		}
		return true
	})
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

func TestSaveLoadDifferentEngineOptions(t *testing.T) {
	// The saved image carries data; engine options come from the Load
	// config. Loading with the recency extension on must answer exactly as a
	// fresh build with the same options does, and as the scan oracle.
	sys, corpus := buildSystem(t, 3000)
	dir := t.TempDir()
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	cfg := tklus.DefaultConfig()
	cfg.Engine.RecencyHalfLife = 0.3
	loaded, err := tklus.Load(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := tklus.Build(corpus.Posts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scan := baseline.NewScanRanker(corpus.Posts, cfg.Engine.Params)
	scan.RecencyHalfLife = cfg.Engine.RecencyHalfLife
	for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
		q := tklus.Query{
			Loc: corpus.Config.Cities[0].Center, RadiusKm: 15,
			Keywords: []string{"hotel"}, K: 5, Ranking: ranking,
		}
		a, _, err := fresh.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := loaded.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := scan.Search(q)
		if len(a) != len(b) || len(b) != len(want) || len(b) == 0 {
			t.Fatalf("%v: loaded %v, fresh build %v, scan oracle %v", ranking, b, a, want)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v result %d: loaded %+v, fresh build %+v", ranking, i, b[i], a[i])
			}
			if b[i].UID != want[i].UID || math.Abs(b[i].Score-want[i].Score) > 1e-12 {
				t.Fatalf("%v result %d: loaded %+v, scan oracle %+v", ranking, i, b[i], want[i])
			}
		}
	}
}
