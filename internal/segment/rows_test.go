package segment

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/social"
)

// checkBatch resolves sids (ascending) against one view in a single batch
// and requires the outcome to agree, SID by SID, with the point lookup
// Store.LookupRowMeta and with the posts the rows were built from: every
// SID ahead of the reported miss resolves to its own post's location and
// author, and the reported miss — if any — is the first SID neither knows.
func checkBatch(t *testing.T, name string, src PostingsSource, st *Store, byID map[social.PostID]*social.Post, sids []social.PostID) {
	t.Helper()
	out := make([]metadb.RowMeta, len(sids))
	miss := src.ResolveRows(sids, out)
	for i, sid := range sids {
		point, ok := st.LookupRowMeta(sid)
		if i == miss {
			if ok || byID[sid] != nil {
				t.Fatalf("%s: batch reports SID %d (index %d) absent, but it is stored", name, sid, i)
			}
			return
		}
		p := byID[sid]
		if !ok || p == nil {
			t.Fatalf("%s: batch resolved SID %d (index %d) that the point lookup misses", name, sid, i)
		}
		want := metadb.RowMeta{SID: sid, Lat: p.Loc.Lat, Lon: p.Loc.Lon, UID: p.UID}
		if out[i] != want || point != want {
			t.Fatalf("%s: SID %d: batch %+v, point %+v, post %+v", name, sid, out[i], point, want)
		}
	}
	if miss != -1 {
		t.Fatalf("%s: miss index %d outside a batch of %d", name, miss, len(sids))
	}
}

// TestResolveRowsMatchesPointLookups drives the ascending-batch row contract
// over sealed segments, the live memtable, and the store across both (the
// batch split by view, as the engine splits its candidates by partition):
// all rows, every other row, the first and last row, random subsets, SIDs
// between rows and SIDs outside a view's range.
func TestResolveRowsMatchesPointLookups(t *testing.T) {
	st, err := OpenStore(t.TempDir(), Options{GeohashLen: 5, BucketWidth: time.Hour, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// 10-minute steps over one-hour buckets: 13 sealed segments of 6 rows
	// and a memtable holding the last 2.
	posts := testPosts(80, time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC), 10*time.Minute)
	byID := make(map[social.PostID]*social.Post, len(posts))
	for _, p := range posts {
		if _, err := st.Add(p); err != nil {
			t.Fatal(err)
		}
		byID[p.SID] = p
	}
	if st.SegmentCount() < 5 || st.Memtable().Len() == 0 {
		t.Fatalf("want several sealed segments and a live memtable, got %d and %d rows",
			st.SegmentCount(), st.Memtable().Len())
	}

	rng := rand.New(rand.NewSource(19))
	views := st.Views()
	var spanning []social.PostID // one subset across every view, in order
	for vi, v := range views {
		var own []social.PostID
		for _, p := range posts {
			if p.SID >= v.MinSID && (v.MaxSID == 0 || p.SID <= v.MaxSID) {
				own = append(own, p.SID)
			}
		}
		if len(own) == 0 {
			t.Fatalf("view %d holds no rows", vi)
		}
		name := "memtable"
		if _, sealed := v.Source.(*Segment); sealed {
			name = "segment"
		}
		var everyOther, random []social.PostID
		for i, sid := range own {
			if i%2 == 0 {
				everyOther = append(everyOther, sid)
			}
			if rng.Intn(3) == 0 {
				random = append(random, sid)
			}
		}
		first, last := own[0], own[len(own)-1]
		checkBatch(t, name+"/all", v.Source, st, byID, own)
		checkBatch(t, name+"/every-other", v.Source, st, byID, everyOther)
		checkBatch(t, name+"/first-last", v.Source, st, byID, []social.PostID{first, last})
		checkBatch(t, name+"/random", v.Source, st, byID, random)
		checkBatch(t, name+"/empty", v.Source, st, byID, nil)
		// Absent SIDs: between two rows (the walk must name that one, after
		// resolving what precedes it), below the first row, beyond the last.
		checkBatch(t, name+"/between", v.Source, st, byID, []social.PostID{first, first + 1, last})
		checkBatch(t, name+"/below", v.Source, st, byID, []social.PostID{first - 1, first})
		checkBatch(t, name+"/beyond", v.Source, st, byID, []social.PostID{last, last + 1})
		spanning = append(spanning, random...)
	}

	// The store across segments and memtable: split the ascending subset at
	// view boundaries and resolve each run against its own view.
	resolved := 0
	for _, v := range views {
		var run []social.PostID
		for _, sid := range spanning {
			if sid >= v.MinSID && (v.MaxSID == 0 || sid <= v.MaxSID) {
				run = append(run, sid)
			}
		}
		checkBatch(t, "store", v.Source, st, byID, run)
		resolved += len(run)
	}
	if resolved != len(spanning) || resolved == 0 {
		t.Fatalf("views cover %d of %d sampled SIDs", resolved, len(spanning))
	}
}

// TestRowsOnlySegment covers the image FromPosts builds over posts with no
// indexable words: zero keys, the rows round-tripped through OpenBytes
// record for record, every postings lookup a miss, and a row batch that
// resolves what it holds and names the first SID it does not.
func TestRowsOnlySegment(t *testing.T) {
	rows, _, keys := validSegmentParts(t)
	posts := make([]*social.Post, len(rows))
	for i, r := range rows {
		posts[i] = &social.Post{SID: r.SID, UID: r.UID, Loc: r.Loc(), RUID: r.RUID, RSID: r.RSID}
	}
	seg, err := FromPosts(posts, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumKeys() != 0 || seg.NumRows() != len(rows) || seg.MappedBytes() != 0 ||
		seg.MinSID() != rows[0].SID || seg.MaxSID() != rows[len(rows)-1].SID {
		t.Fatalf("rows-only segment: %d keys, %d rows, %d mapped bytes, SIDs [%d, %d]",
			seg.NumKeys(), seg.NumRows(), seg.MappedBytes(), seg.MinSID(), seg.MaxSID())
	}
	if want := headerSize + len(rows)*rowSize + (len(rows)+1)*textOffSize + footerSize; seg.SizeBytes() != want {
		t.Errorf("image is %d bytes, want %d (48 B and an empty text per row plus header and footer)", seg.SizeBytes(), want)
	}
	reopened, err := OpenBytes(seg.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if seg.RowAt(i) != r || reopened.RowAt(i) != r {
			t.Fatalf("row %d: built %+v, reopened %+v, want %+v", i, seg.RowAt(i), reopened.RowAt(i), r)
		}
	}

	// Every key the same posts index under misses, and so do keys no post has.
	if len(keys) == 0 {
		t.Fatal("fixture indexes no keys")
	}
	probes := append(keys, keyPostings{key: invindex.Key{Geohash: "", Term: ""}}, keyPostings{key: invindex.Key{Geohash: "zzzzz", Term: "hotel"}})
	for _, kp := range probes {
		ps, err := seg.FetchPostings(kp.key.Geohash, kp.key.Term)
		if ps != nil || err != nil {
			t.Errorf("FetchPostings(%v) = %v, %v; want nil, nil", kp.key, ps, err)
		}
		it, err := seg.OpenPostings(kp.key.Geohash, kp.key.Term)
		if it != nil || err != nil {
			t.Errorf("OpenPostings(%v) = %v, %v; want nil, nil", kp.key, it, err)
		}
	}

	first, last := rows[0].SID, rows[len(rows)-1].SID
	for _, c := range []struct {
		name string
		sids []social.PostID
		miss int
	}{
		{"every row", func() []social.PostID {
			all := make([]social.PostID, len(rows))
			for i, r := range rows {
				all[i] = r.SID
			}
			return all
		}(), -1},
		{"between rows", []social.PostID{first, rows[5].SID, rows[5].SID + 1, last}, 2},
		{"below the first", []social.PostID{first - 1, first}, 0},
		{"beyond the last", []social.PostID{first, rows[9].SID, last, last + 1}, 3},
	} {
		out := make([]metadb.RowMeta, len(c.sids))
		if miss := seg.ResolveRows(c.sids, out); miss != c.miss {
			t.Errorf("%s: ResolveRows reports miss %d, want %d", c.name, miss, c.miss)
			continue
		}
		resolved := len(c.sids)
		if c.miss >= 0 {
			resolved = c.miss
		}
		for i, sid := range c.sids[:resolved] {
			j := sort.Search(len(rows), func(j int) bool { return rows[j].SID >= sid })
			want := metadb.RowMeta{SID: rows[j].SID, UID: rows[j].UID, Lat: rows[j].Lat, Lon: rows[j].Lon}
			if out[i] != want {
				t.Errorf("%s: SID %d resolved to %+v, want %+v", c.name, sid, out[i], want)
			}
		}
	}

	if _, err := FromPosts(nil, 5, 0); err == nil {
		t.Error("FromPosts accepted no posts")
	}
}

// TestFromPostsMatchesSeal: a build image is the segment a memtable seals
// over the same posts, byte for byte, whatever order the posts come in; a
// repeated SID is the caller's data at fault (metadb.ErrRejected), and a
// geohash length out of range is refused.
func TestFromPostsMatchesSeal(t *testing.T) {
	posts := testPosts(60, time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC), time.Second)
	mt := NewMemtable(5)
	for _, p := range posts {
		if err := mt.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	rows, texts, keys, err := mt.snapshot(8)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := buildSegment(5, rows, texts, keys)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]*social.Post(nil), posts...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	img, err := FromPosts(shuffled, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.Bytes(), sealed) {
		t.Fatal("build image differs from the sealed memtable of the same posts")
	}
	dup := append(append([]*social.Post(nil), posts...), &social.Post{SID: posts[7].SID, UID: 1, Loc: posts[0].Loc})
	if _, err := FromPosts(dup, 5, 8); !errors.Is(err, metadb.ErrRejected) {
		t.Errorf("repeated SID: err = %v, want metadb.ErrRejected", err)
	}
	for _, n := range []int{0, geo.MaxPrecision + 1} {
		if _, err := FromPosts(posts, n, 8); err == nil {
			t.Errorf("geohash length %d accepted", n)
		}
	}
}

// TestFindKeyMatchesStringOrder checks the in-place directory comparison
// against the key strings it no longer builds: over a directory whose
// geohashes prefix and neighbour one another and whose terms do too, every
// stored key is found at its own entry, and every probe that is not a stored
// key — shorter and longer geohashes and terms, empty halves — misses.
func TestFindKeyMatchesStringOrder(t *testing.T) {
	parts := []string{"", "6", "6g", "6gx", "6gxp", "6gy", "7", "a", "ab", "abc", "b"}
	var keys []keyPostings
	stored := make(map[invindex.Key]int)
	for _, g := range parts[1:6] {
		for _, term := range parts[6:] {
			payload, err := invindex.EncodeBlockedPostingsList([]invindex.Posting{{TID: social.PostID(len(keys) + 1), TF: 1}}, 0)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, keyPostings{key: invindex.Key{Geohash: g, Term: term}, payload: payload})
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].key.String() < keys[j].key.String() })
	for i, kp := range keys {
		stored[kp.key] = i
	}
	data, err := buildSegment(4, []metadb.Row{{SID: 1}}, nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range parts {
		for _, term := range parts {
			e, found := seg.findKey(g, term)
			i, want := stored[invindex.Key{Geohash: g, Term: term}]
			if found != want || (found && e != seg.keys[i]) {
				t.Errorf("findKey(%q, %q) = %+v, %v; stored at %d: %v", g, term, e, found, i, want)
			}
		}
	}
}

// segmentBatch builds one sealed segment of nRows rows, SIDs 10 apart, and
// picks the ordinals of nPicks of them evenly spread — the shape of one
// partition's share of a query's merged postings.
func segmentBatch(b *testing.B, nRows, nPicks int) (*Segment, []social.PostID) {
	b.Helper()
	rows := make([]metadb.Row, nRows)
	for i := range rows {
		rows[i] = metadb.Row{SID: social.PostID(10 * (i + 1)), UID: social.UserID(i % 977), Lat: 43.7, Lon: -79.4}
	}
	data, err := buildSegment(4, rows, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	seg, err := OpenBytes(data)
	if err != nil {
		b.Fatal(err)
	}
	picks := make([]social.PostID, nPicks)
	for i := range picks {
		picks[i] = social.PostID(i * nRows / nPicks)
	}
	return seg, picks
}

// scatteredSegments builds nSegs sealed segments of nRows rows each, with
// seeded random SID gaps, authors and locations around Toronto, and picks a
// seeded random ascending subset of nPicks row ordinals per segment — the
// shape of a query's merged postings spread over a store's partitions.
// Together the segments' records outgrow a core's L2, and the picks are not
// evenly spaced, so the reads pay the cache misses a query pays.
func scatteredSegments(b *testing.B, nSegs, nRows, nPicks int) ([]*Segment, [][]social.PostID) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	segs := make([]*Segment, nSegs)
	batches := make([][]social.PostID, nSegs)
	sid := social.PostID(0)
	for s := range segs {
		rows := make([]metadb.Row, nRows)
		for i := range rows {
			sid += social.PostID(1 + rng.Intn(20))
			rows[i] = metadb.Row{
				SID: sid, UID: social.UserID(rng.Intn(50000)),
				Lat: 43.3 + 0.8*rng.Float64(), Lon: -79.9 + rng.Float64(),
			}
		}
		data, err := buildSegment(4, rows, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if segs[s], err = OpenBytes(data); err != nil {
			b.Fatal(err)
		}
		picks := rng.Perm(nRows)[:nPicks]
		sort.Ints(picks)
		batches[s] = make([]social.PostID, nPicks)
		for i, j := range picks {
			batches[s][i] = social.PostID(j)
		}
	}
	return segs, batches
}

// readByOrdinal is the engine filter's row read over one partition's merged
// postings: bounds-check each ordinal and copy the record it names.
func readByOrdinal(b *testing.B, recs []metadb.RowMeta, ords []social.PostID, out []metadb.RowMeta) {
	for i, ord := range ords {
		if uint64(ord) >= uint64(len(recs)) {
			b.Fatalf("ordinal %d of %d rows", ord, len(recs))
		}
		out[i] = recs[ord]
	}
}

// BenchmarkSegmentRowBatch reads one partition's merged postings' rows by
// ordinal, as the engine's filter does, from 36k rows — a sealed segment's
// and a memtable's: 350 picks (the city-sum shape) and 1.2k (the wide-max
// shape). Those records fit in L2 and the picks are evenly spaced, so
// city-sum-7seg adds the cost a query meets: one op reads a random ~500-row
// batch in each of 7 such segments (about 8 MB of records).
func BenchmarkSegmentRowBatch(b *testing.B) {
	b.Run("segment/city-sum-7seg", func(b *testing.B) {
		segs, batches := scatteredSegments(b, 7, 36000, 500)
		out := make([]metadb.RowMeta, 500)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for s, seg := range segs {
				readByOrdinal(b, seg.Records(), batches[s], out)
			}
		}
	})
	for _, shape := range []struct {
		name  string
		picks int
	}{{"city-sum-350", 350}, {"wide-max-1200", 1200}} {
		seg, ords := segmentBatch(b, 36000, shape.picks)
		mem := NewMemtable(4)
		for i := 0; i < seg.NumRows(); i++ {
			r := seg.RowAt(i)
			if err := mem.Add(&social.Post{SID: r.SID, UID: r.UID, Loc: geo.Point{Lat: r.Lat, Lon: r.Lon}}); err != nil {
				b.Fatal(err)
			}
		}
		for _, src := range []struct {
			name string
			rows PostingsSource
		}{{"segment", seg}, {"memtable", mem}} {
			b.Run(src.name+"/"+shape.name, func(b *testing.B) {
				out := make([]metadb.RowMeta, len(ords))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					readByOrdinal(b, src.rows.Records(), ords, out)
				}
			})
		}
	}
}
