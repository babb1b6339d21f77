package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/social"
	"repro/internal/telemetry"
)

// testPosts builds a small multi-bucket corpus: n posts stepping `step`
// apart starting at `start`, cycling through a handful of word sets and
// two nearby locations.
func testPosts(n int, start time.Time, step time.Duration) []*social.Post {
	wordSets := [][]string{
		{"hotel", "great"},
		{"hotel", "view", "view"},
		{"pizza", "downtown"},
		{"museum"},
		nil, // posts with no indexable words still carry rows
	}
	locs := []geo.Point{{Lat: 43.70, Lon: -79.40}, {Lat: 43.71, Lon: -79.42}}
	posts := make([]*social.Post, n)
	for i := range posts {
		posts[i] = &social.Post{
			SID:   social.PostID(start.Add(time.Duration(i) * step).UnixNano()),
			UID:   social.UserID(100 + i%7),
			Loc:   locs[i%len(locs)],
			Words: wordSets[i%len(wordSets)],
			Text:  strings.Join(wordSets[i%len(wordSets)], " "),
		}
	}
	return posts
}

// testCorpus is the corpus table of posts, whose ordinals a build image's
// rows carry.
func testCorpus(t testing.TB, posts []*social.Post) *social.Corpus {
	t.Helper()
	c, err := social.NewCorpus(posts, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// postOrdinals concatenates the post ordinals of the store's views in time
// order.
func postOrdinals(st *Store) []uint32 {
	var out []uint32
	for _, v := range st.Views() {
		out = append(out, v.Source.PostOrdinals()...)
	}
	return out
}

// TestPostOrdinalsFollowRows: each row keeps the post ordinal it was added
// with through the memtable, a seal, a compaction and a bulk load's split
// at bucket boundaries, and a store reopened from its directory numbers
// its rows in time order.
func TestPostOrdinalsFollowRows(t *testing.T) {
	posts := testPosts(40, time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC), 10*time.Minute)
	opts := Options{GeohashLen: 5, BucketWidth: time.Hour, BlockSize: 8, CompactFanIn: 2}
	want := make([]uint32, len(posts))
	for i := range want {
		want[i] = uint32(1000 + 3*i) // a table holding other posts between these
	}
	dir := t.TempDir()
	st, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range posts {
		if _, err := st.Add(p, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := postOrdinals(st); !slices.Equal(got, want) || st.SegmentCount() < 4 {
		t.Fatalf("after adds (%d segments): ordinals %v, want %v", st.SegmentCount(), got, want)
	}
	if err := st.SealNow(); err != nil {
		t.Fatal(err)
	}
	if n, err := st.Compact(); err != nil || n == 0 {
		t.Fatalf("compaction merged %d segments: %v", n, err)
	}
	if got := postOrdinals(st); !slices.Equal(got, want) {
		t.Fatalf("after seal and compaction: ordinals %v, want %v", got, want)
	}
	defer st.Close()
	splitDir := t.TempDir()
	split, err := CreateStore(splitDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := split.BulkLoad(st.Segments()...); err != nil {
		t.Fatal(err)
	}
	if got := postOrdinals(split); !slices.Equal(got, want) || split.SegmentCount() <= st.SegmentCount() {
		t.Fatalf("after a bulk load into %d segments: ordinals %v, want %v", split.SegmentCount(), got, want)
	}
	split.Close()
	reopened, err := OpenStore(splitDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got := postOrdinals(reopened)
	if len(got) != len(posts) || reopened.SegmentCount() < 2 {
		t.Fatalf("reopened store: %d rows in %d segments", len(got), reopened.SegmentCount())
	}
	for i, o := range got {
		if o != uint32(i) {
			t.Fatalf("reopened store: row %d names post %d", i, o)
		}
	}
}

// oraclePostings replicates the batch build's map/reduce over posts: term
// frequency per post, keys at the given precision, postings ascending by
// TID.
func oraclePostings(posts []*social.Post, geohashLen int) map[invindex.Key][]invindex.Posting {
	out := make(map[invindex.Key][]invindex.Posting)
	for _, p := range posts {
		if len(p.Words) == 0 {
			continue
		}
		tf := make(map[string]uint32)
		for _, w := range p.Words {
			tf[w]++
		}
		cell := geo.Encode(p.Loc, geohashLen)
		for term, f := range tf {
			k := invindex.Key{Geohash: cell, Term: term}
			out[k] = append(out[k], invindex.Posting{TID: p.SID, TF: f})
		}
	}
	return out
}

// sealedPostings gathers every sealed segment's postings per key, in
// segment order.
func sealedPostings(t *testing.T, st *Store) map[invindex.Key][]invindex.Posting {
	t.Helper()
	out := make(map[invindex.Key][]invindex.Posting)
	st.mu.RLock()
	segs := append([]*Segment{}, st.segs...)
	st.mu.RUnlock()
	for _, seg := range segs {
		for _, k := range seg.Keys() {
			ps, err := seg.FetchPostings(k.Geohash, k.Term)
			if err != nil {
				t.Fatalf("FetchPostings(%v): %v", k, err)
			}
			out[k] = append(out[k], ps...)
		}
	}
	return out
}

func TestSegmentRoundtrip(t *testing.T) {
	const geohashLen = 5
	posts := testPosts(200, time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC), time.Second)
	mt := NewMemtable(geohashLen)
	for i, p := range posts {
		if err := mt.Add(p, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	rows, texts, keys, _, err := mt.snapshot(16)
	if err != nil {
		t.Fatal(err)
	}
	data, err := buildSegment(geohashLen, rows, texts, keys)
	if err != nil {
		t.Fatal(err)
	}

	check := func(seg *Segment) {
		t.Helper()
		if seg.GeohashLen() != geohashLen {
			t.Fatalf("GeohashLen = %d", seg.GeohashLen())
		}
		if seg.NumRows() != len(posts) {
			t.Fatalf("NumRows = %d, want %d", seg.NumRows(), len(posts))
		}
		if seg.MinSID() != posts[0].SID || seg.MaxSID() != posts[len(posts)-1].SID {
			t.Fatalf("SID range [%d,%d]", seg.MinSID(), seg.MaxSID())
		}
		want := oraclePostings(posts, geohashLen)
		if seg.NumKeys() != len(want) {
			t.Fatalf("NumKeys = %d, want %d", seg.NumKeys(), len(want))
		}
		for k, ps := range want {
			got, err := seg.FetchPostings(k.Geohash, k.Term)
			if err != nil {
				t.Fatalf("FetchPostings(%v): %v", k, err)
			}
			if !reflect.DeepEqual(got, ps) {
				t.Fatalf("postings for %v: got %v, want %v", k, got, ps)
			}
			it, err := seg.OpenPostings(k.Geohash, k.Term)
			if err != nil {
				t.Fatalf("OpenPostings(%v): %v", k, err)
			}
			// The iterator yields row ordinals; each names the record of
			// the posting's tweet.
			var lazy []invindex.Posting
			for it.Valid() {
				p, ok := it.Cur()
				if !ok {
					break
				}
				lazy = append(lazy, invindex.Posting{TID: seg.Records()[p.TID].SID, TF: p.TF})
				it.Next()
			}
			if it.Err() != nil {
				t.Fatalf("iterator error for %v: %v", k, it.Err())
			}
			if !reflect.DeepEqual(lazy, ps) {
				t.Fatalf("lazy postings for %v: got %v, want %v", k, lazy, ps)
			}
		}
		if ps, err := seg.FetchPostings("zzzzz", "absent"); err != nil || ps != nil {
			t.Fatalf("absent key: %v, %v", ps, err)
		}
		sids := make([]social.PostID, len(posts))
		for i, p := range posts {
			sids[i] = p.SID
		}
		metas := make([]social.RowMeta, len(sids))
		if miss := seg.ResolveRows(sids, metas); miss >= 0 {
			t.Fatalf("ResolveRows misses SID %d", sids[miss])
		}
		for i, p := range posts {
			if m := metas[i]; m.UID != p.UID || m.Lat != p.Loc.Lat || m.Lon != p.Loc.Lon {
				t.Fatalf("ResolveRows: SID %d = %+v", p.SID, m)
			}
		}
		if miss := seg.ResolveRows([]social.PostID{posts[0].SID + 1}, metas); miss != 0 {
			t.Fatalf("ResolveRows found a SID between rows (miss = %d)", miss)
		}
	}

	seg, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	check(seg)

	// Through a file: mmap'd open must serve identical bytes.
	path := filepath.Join(t.TempDir(), "seg-00000001.tkseg")
	if err := writeTestFile(path, data); err != nil {
		t.Fatal(err)
	}
	mseg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mseg.Close()
	check(mseg)
	if mseg.MappedBytes() != len(data) && mseg.MappedBytes() != 0 {
		t.Fatalf("MappedBytes = %d", mseg.MappedBytes())
	}
}

func TestStoreSealCompactReopen(t *testing.T) {
	const geohashLen = 5
	dir := t.TempDir()
	// One-hour buckets, posts stepping 10 minutes: ~6 posts per bucket.
	opts := Options{GeohashLen: geohashLen, BucketWidth: time.Hour, BlockSize: 8, CompactFanIn: 2}
	st, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	posts := testPosts(60, time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC), 10*time.Minute)
	for i, p := range posts {
		if _, err := st.Add(p, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	checkTexts(t, st, posts) // sealed buckets and the memtable
	if err := st.SealNow(); err != nil {
		t.Fatal(err)
	}
	want := oraclePostings(posts, geohashLen)
	if got := sealedPostings(t, st); !reflect.DeepEqual(got, want) {
		t.Fatalf("sealed postings diverge from oracle")
	}
	nBefore := st.SegmentCount()
	if nBefore < 5 {
		t.Fatalf("expected several bucket segments, got %d", nBefore)
	}

	merged, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if merged == 0 || st.SegmentCount() >= nBefore {
		t.Fatalf("compaction merged %d, count %d -> %d", merged, nBefore, st.SegmentCount())
	}
	if got := sealedPostings(t, st); !reflect.DeepEqual(got, want) {
		t.Fatalf("postings changed across compaction")
	}
	checkTexts(t, st, posts)
	for _, p := range posts {
		if m, ok := st.LookupRowMeta(p.SID); !ok || m.UID != p.UID {
			t.Fatalf("LookupRowMeta(%d) after compaction = %+v, %v", p.SID, m, ok)
		}
	}
	if st.Seals() == 0 || st.Compactions() == 0 {
		t.Fatalf("counters: seals=%d compactions=%d", st.Seals(), st.Compactions())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: same contents, same watermark.
	st2, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := sealedPostings(t, st2); !reflect.DeepEqual(got, want) {
		t.Fatalf("postings diverge after reopen")
	}
	if segs := st2.Segments(); segs[len(segs)-1].MaxSID() != posts[len(posts)-1].SID {
		t.Fatalf("last sealed SID = %d", segs[len(segs)-1].MaxSID())
	}
	checkTexts(t, st2, posts)
	if st2.MappedBytes() == 0 {
		t.Fatal("expected reopened segments to be mmap'd")
	}
}

func TestStoreBulkLoadMatchesIncremental(t *testing.T) {
	const geohashLen = 5
	posts := testPosts(80, time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC), 7*time.Minute)
	opts := Options{GeohashLen: geohashLen, BucketWidth: time.Hour, BlockSize: 8}

	bulk, err := OpenStore(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer bulk.Close()
	all := oraclePostings(posts, geohashLen)
	img, err := FromPosts(posts, testCorpus(t, posts), geohashLen, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(img); err != nil {
		t.Fatal(err)
	}

	incr, err := OpenStore(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer incr.Close()
	for i, p := range posts {
		if _, err := incr.Add(p, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := incr.SealNow(); err != nil {
		t.Fatal(err)
	}

	if bulk.SegmentCount() != incr.SegmentCount() {
		t.Fatalf("bulk %d segments, incremental %d", bulk.SegmentCount(), incr.SegmentCount())
	}
	if !reflect.DeepEqual(sealedPostings(t, bulk), sealedPostings(t, incr)) {
		t.Fatal("bulk-loaded store diverges from incrementally sealed store")
	}
	if !reflect.DeepEqual(sealedPostings(t, bulk), all) {
		t.Fatal("bulk-loaded store diverges from oracle")
	}
	checkTexts(t, bulk, posts)
	checkTexts(t, incr, posts)
}

// checkTexts requires st to hold every post's raw text, and none for a SID
// between or beyond them.
func checkTexts(t *testing.T, st *Store, posts []*social.Post) {
	t.Helper()
	for _, p := range posts {
		if got, ok := st.Text(p.SID); !ok || got != p.Text {
			t.Fatalf("Text(%d) = %q, %v; want %q", p.SID, got, ok, p.Text)
		}
	}
	for _, sid := range []social.PostID{posts[0].SID - 1, posts[0].SID + 1, posts[len(posts)-1].SID + 1} {
		if got, ok := st.Text(sid); ok {
			t.Fatalf("Text(%d) of no post = %q", sid, got)
		}
	}
}

// TestCreateStoreReplacesCommittedSet: a store created over a directory
// another store committed reads nothing of it, and its first commit makes
// its own segments the whole committed set — the old files are gone, and a
// reopen serves only the new rows.
func TestCreateStoreReplacesCommittedSet(t *testing.T) {
	dir := t.TempDir()
	opts := Options{GeohashLen: 5, BucketWidth: time.Hour, BlockSize: 8}
	old, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	oldPosts := testPosts(30, time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC), 10*time.Minute)
	for i, p := range oldPosts {
		if _, err := old.Add(p, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.SealNow(); err != nil {
		t.Fatal(err)
	}
	old.Close()
	before, err := filepath.Glob(filepath.Join(dir, "seg-*"))
	if err != nil || len(before) < 2 {
		t.Fatalf("old store left %v (%v)", before, err)
	}

	posts := testPosts(20, time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC), 10*time.Minute)
	img, err := FromPosts(posts, testCorpus(t, posts), 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := CreateStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Empty() {
		t.Fatal("a created store serves what the directory held")
	}
	if err := st.BulkLoad(img); err != nil {
		t.Fatal(err)
	}
	st.Close()
	for _, f := range before {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("old segment %s survived the commit (%v)", filepath.Base(f), err)
		}
	}
	reopened, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.GeohashLen() != 5 {
		t.Errorf("reopened at geohash length %d, want the segments' 5", reopened.GeohashLen())
	}
	if !reflect.DeepEqual(sealedPostings(t, reopened), oraclePostings(posts, 5)) {
		t.Fatal("reopened store does not serve exactly the new rows")
	}
	checkTexts(t, reopened, posts)
	if _, ok := reopened.Text(oldPosts[0].SID); ok {
		t.Fatal("an old row survived the replacement")
	}
}

func TestStoreRejectsWrongGeohashLen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, Options{GeohashLen: 5, BucketWidth: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	posts := testPosts(5, time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC), time.Second)
	for i, p := range posts {
		if _, err := st.Add(p, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SealNow(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := OpenStore(dir, Options{GeohashLen: 4, BucketWidth: time.Hour}); err == nil {
		t.Fatal("expected geohash-length mismatch to fail open")
	}
}

// writeTestFile writes bytes without the fsx hooks (test fixture setup,
// not a store operation).
func writeTestFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestCompactReleasesRetiredColumns pins what a compacted-away segment
// leaves behind: its mapping, kept until Close because a query may still
// read its postings, and nothing else. tklus_segment_column_bytes counts the
// row columns of the live segments and the memtable only, and the replaced
// segments themselves become garbage once nothing holds them.
func TestCompactReleasesRetiredColumns(t *testing.T) {
	st, err := OpenStore(t.TempDir(), Options{GeohashLen: 5, BucketWidth: time.Hour, BlockSize: 8, CompactFanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := telemetry.NewRegistry()
	st.RegisterMetrics(reg)
	gauge := func() string {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "tklus_segment_column_bytes "); ok {
				return v
			}
		}
		t.Fatal("no tklus_segment_column_bytes series")
		return ""
	}
	// liveRows is what the gauge must count: rows of live segments and the
	// memtable, 32 B each.
	liveRows := func() int {
		n := st.Memtable().Len()
		for _, v := range st.Views() {
			if seg, ok := v.Source.(*Segment); ok {
				n += seg.NumRows()
			}
		}
		return n
	}

	// 10-minute steps over one-hour buckets: 9 sealed segments of 6 rows and
	// a memtable of 2.
	posts := testPosts(56, time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC), 10*time.Minute)
	for i, p := range posts {
		if _, err := st.Add(p, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := gauge(), strconv.Itoa(len(posts)*recordBytes); got != want {
		t.Fatalf("before compaction: column gauge %s, want %s (%d rows × %d B)", got, want, len(posts), recordBytes)
	}

	// Count the collected segments of the original set; they are told
	// apart from compaction's output by their SID range.
	var collected atomic.Int32
	before := st.SegmentCount()
	ranges := make(map[[2]social.PostID]bool)
	for _, v := range st.Views() {
		if seg, ok := v.Source.(*Segment); ok {
			ranges[[2]social.PostID{seg.MinSID(), seg.MaxSID()}] = true
			runtime.SetFinalizer(seg, func(*Segment) { collected.Add(1) })
		}
	}
	mapped := st.MappedBytes()
	merged, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if merged == 0 || st.SegmentCount() >= before {
		t.Fatalf("compaction merged %d segments, %d -> %d live", merged, before, st.SegmentCount())
	}
	if got, want := gauge(), strconv.Itoa(liveRows()*recordBytes); got != want || liveRows() != len(posts) {
		t.Fatalf("after compaction: column gauge %s, want %s over %d live rows of %d posts", got, want, liveRows(), len(posts))
	}
	if st.MappedBytes() <= mapped {
		t.Fatalf("mapped bytes %d -> %d: the retired mappings must stay counted until Close", mapped, st.MappedBytes())
	}
	for _, v := range st.Views() {
		if seg, ok := v.Source.(*Segment); ok {
			delete(ranges, [2]social.PostID{seg.MinSID(), seg.MaxSID()})
		}
	}
	replaced := len(ranges) // original segments no longer live
	if replaced == 0 {
		t.Fatal("compaction replaced none of the original segments")
	}
	for i := 0; i < 100 && int(collected.Load()) < replaced; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if int(collected.Load()) != replaced {
		t.Fatalf("%d of the %d replaced segments were collected: the store still holds them", collected.Load(), replaced)
	}
}
