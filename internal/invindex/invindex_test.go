package invindex

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/social"
)

// TestPostingsCodecRoundTrip pins the postings codec's edge inputs — the
// empty list, one posting, wide TID gaps, TIDs beyond 2^40 — at block sizes
// that put them in one block and in one block each.
func TestPostingsCodecRoundTrip(t *testing.T) {
	lists := [][]Posting{
		nil,
		{{TID: 1, TF: 1}},
		{{TID: 1, TF: 3}, {TID: 2, TF: 1}, {TID: 1000000, TF: 7}},
		{{TID: 1 << 40, TF: 1}, {TID: 1<<40 + 1, TF: 2}},
	}
	for _, blockSize := range []int{0, 1} {
		for _, ps := range lists {
			enc, err := EncodeBlockedPostingsList(ps, blockSize)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeBlockedPostingsList(enc)
			if err != nil {
				t.Fatal(err)
			}
			if len(dec) != len(ps) {
				t.Fatalf("round trip length %d != %d", len(dec), len(ps))
			}
			for i := range ps {
				if dec[i] != ps[i] {
					t.Fatalf("round trip mismatch at %d: %v != %v", i, dec[i], ps[i])
				}
			}
		}
	}
}

func TestEncodeRejectsUnsorted(t *testing.T) {
	for _, blockSize := range []int{0, 1} { // within one block, and across a block boundary
		if _, err := EncodeBlockedPostingsList([]Posting{{TID: 2, TF: 1}, {TID: 1, TF: 1}}, blockSize); err == nil {
			t.Errorf("block size %d: unsorted postings accepted", blockSize)
		}
		if _, err := EncodeBlockedPostingsList([]Posting{{TID: 2, TF: 1}, {TID: 2, TF: 1}}, blockSize); err == nil {
			t.Errorf("block size %d: duplicate TIDs accepted", blockSize)
		}
	}
}

func TestDecodeCorruptData(t *testing.T) {
	valid, _ := EncodeBlockedPostingsList([]Posting{{TID: 5, TF: 2}, {TID: 9, TF: 1}, {TID: 11, TF: 4}}, 2)
	for cut := 1; cut < len(valid); cut++ {
		if _, err := DecodeBlockedPostingsList(valid[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	if _, err := DecodeBlockedPostingsList(nil); err == nil {
		t.Error("empty buffer accepted")
	}
}

func TestPostingsCodecQuick(t *testing.T) {
	f := func(tids []uint32, tfs []uint8, blockSize uint8) bool {
		// Build a strictly increasing TID list.
		var ps []Posting
		var prev social.PostID
		for i, d := range tids {
			prev += social.PostID(d%1000) + 1
			tf := uint32(1)
			if i < len(tfs) {
				tf = uint32(tfs[i]) + 1
			}
			ps = append(ps, Posting{TID: prev, TF: tf})
		}
		enc, err := EncodeBlockedPostingsList(ps, int(blockSize))
		if err != nil {
			return false
		}
		dec, err := DecodeBlockedPostingsList(enc)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(dec, append([]Posting{}, ps...)) ||
			(len(dec) == 0 && len(ps) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyStringParse(t *testing.T) {
	k := Key{Geohash: "6gxp", Term: "restaur"}
	parsed, err := ParseKey(k.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != k {
		t.Errorf("ParseKey = %+v, want %+v", parsed, k)
	}
	if _, err := ParseKey("no-separator"); err == nil {
		t.Error("malformed key accepted")
	}
	// Key order is geohash-major: same geohash, different terms sort
	// together regardless of term bytes.
	a := Key{Geohash: "6gxp", Term: "zzz"}.String()
	b := Key{Geohash: "6gxq", Term: "aaa"}.String()
	if !(a < b) {
		t.Error("geohash-major ordering broken")
	}
}

// corpus builds a small deterministic post set around two cities.
func corpus() []*social.Post {
	mk := func(sid social.PostID, uid social.UserID, lat, lon float64, words ...string) *social.Post {
		return &social.Post{
			SID: sid, UID: uid, Time: time.Unix(int64(sid), 0),
			Loc: geo.Point{Lat: lat, Lon: lon}, Words: words,
		}
	}
	return []*social.Post{
		mk(1, 1, 43.68, -79.37, "hotel", "toronto"),
		mk(2, 2, 43.69, -79.38, "hotel", "hotel", "marriott"), // tf(hotel)=2
		mk(3, 3, 43.70, -79.39, "restaur", "toronto"),
		mk(4, 4, 40.71, -74.00, "hotel", "newyork"), // far away cell
		mk(5, 5, 43.681, -79.371, "pizza"),
	}
}

func build(t *testing.T, posts []*social.Post, geohashLen int) (*Index, *BuildStats, *dfs.FS) {
	t.Helper()
	fsys := dfs.New(dfs.DefaultOptions())
	opts := DefaultBuildOptions()
	opts.GeohashLen = geohashLen
	idx, stats, err := Build(fsys, posts, opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx, stats, fsys
}

func TestBuildAndFetch(t *testing.T) {
	idx, stats, _ := build(t, corpus(), 4)
	if stats.Keys != idx.NumKeys() || stats.Keys == 0 {
		t.Fatalf("stats.Keys = %d, NumKeys = %d", stats.Keys, idx.NumKeys())
	}

	torontoCell := geo.Encode(geo.Point{Lat: 43.68, Lon: -79.37}, 4)
	ps, err := idx.FetchPostings(torontoCell, "hotel")
	if err != nil {
		t.Fatal(err)
	}
	// Tweets 1 and 2 share the Toronto 4-cell (dpz8); tweet 2 has tf 2.
	if len(ps) != 2 {
		t.Fatalf("postings = %v, want tweets 1 and 2", ps)
	}
	if ps[0].TID != 1 || ps[0].TF != 1 || ps[1].TID != 2 || ps[1].TF != 2 {
		t.Errorf("postings = %v", ps)
	}

	// Sorted by TID (the reduce guarantee behind fast intersection).
	for i := 1; i < len(ps); i++ {
		if ps[i].TID <= ps[i-1].TID {
			t.Error("postings not sorted by TID")
		}
	}

	// Missing keys are not errors.
	none, err := idx.FetchPostings(torontoCell, "nosuchterm")
	if err != nil || none != nil {
		t.Errorf("missing key: %v, %v", none, err)
	}
	none, err = idx.FetchPostings("zzzz", "hotel")
	if err != nil || none != nil {
		t.Errorf("missing cell: %v, %v", none, err)
	}

	// PostingsCount agrees without fetching.
	if got := idx.PostingsCount(torontoCell, "hotel"); got != 2 {
		t.Errorf("PostingsCount = %d, want 2", got)
	}
}

func TestBuildSeparatesCells(t *testing.T) {
	idx, _, _ := build(t, corpus(), 4)
	nyCell := geo.Encode(geo.Point{Lat: 40.71, Lon: -74.00}, 4)
	ps, err := idx.FetchPostings(nyCell, "hotel")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].TID != 4 {
		t.Errorf("NY cell postings = %v, want just tweet 4", ps)
	}
}

func TestBuildCoarseGeohashMergesCells(t *testing.T) {
	// At length 1 all Toronto tweets and the pizza tweet share cell "d",
	// as does New York.
	idx, _, _ := build(t, corpus(), 1)
	ps, err := idx.FetchPostings("d", "hotel")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 {
		t.Errorf("length-1 cell 'd' hotel postings = %v, want 3 tweets", ps)
	}
}

func TestBuildStatsAndSize(t *testing.T) {
	_, stats, fsys := build(t, corpus(), 4)
	if stats.InvertedJob.MapInputRecords != 5 {
		t.Errorf("map inputs = %d, want 5", stats.InvertedJob.MapInputRecords)
	}
	// Tweet 2 emits 2 keys (hotel dedup to one posting, marriott), others
	// emit one key per distinct term.
	if stats.InvertedJob.MapOutputRecords != 9 {
		t.Errorf("map outputs = %d, want 9", stats.InvertedJob.MapOutputRecords)
	}
	if stats.PostingsBytes != fsys.TotalSize() {
		t.Errorf("PostingsBytes %d != DFS size %d", stats.PostingsBytes, fsys.TotalSize())
	}
	if stats.ForwardBytes == 0 {
		t.Error("forward index size not measured")
	}
}

func TestBuildRejectsBadGeohashLen(t *testing.T) {
	fsys := dfs.New(dfs.DefaultOptions())
	for _, n := range []int{0, -1, geo.MaxPrecision + 1} {
		opts := DefaultBuildOptions()
		opts.GeohashLen = n
		if _, _, err := Build(fsys, nil, opts); err == nil {
			t.Errorf("geohash length %d accepted", n)
		}
	}
}

func TestFetchCountsAccesses(t *testing.T) {
	idx, _, fsys := build(t, corpus(), 4)
	fsys.ResetStats()
	idx.ResetStats()
	cell := geo.Encode(geo.Point{Lat: 43.68, Lon: -79.37}, 4)
	idx.FetchPostings(cell, "hotel")
	idx.FetchPostings(cell, "hotel")
	if idx.Fetches() != 2 {
		t.Errorf("Fetches = %d, want 2", idx.Fetches())
	}
	if fsys.Stats().BlocksRead == 0 {
		t.Error("DFS reads not counted")
	}
}

func TestLargeBuildConsistency(t *testing.T) {
	// Build from 2000 random posts and verify every term of every post is
	// findable through its cell, with the right TF.
	rng := rand.New(rand.NewSource(21))
	vocab := []string{"hotel", "restaur", "pizza", "game", "cafe", "club", "shop"}
	var posts []*social.Post
	for i := 1; i <= 2000; i++ {
		nWords := rng.Intn(4) + 1
		words := make([]string, nWords)
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		posts = append(posts, &social.Post{
			SID: social.PostID(i), UID: social.UserID(rng.Intn(100) + 1),
			Time: time.Unix(int64(i), 0),
			Loc: geo.Point{
				Lat: 43.0 + rng.Float64(),
				Lon: -80.0 + rng.Float64(),
			},
			Words: words,
		})
	}
	idx, _, _ := build(t, posts, 3)
	for _, p := range posts[:200] { // spot-check a sample
		cell := geo.Encode(p.Loc, 3)
		tf := map[string]uint32{}
		for _, w := range p.Words {
			tf[w]++
		}
		for w, want := range tf {
			ps, err := idx.FetchPostings(cell, w)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, posting := range ps {
				if posting.TID == p.SID {
					found = true
					if posting.TF != want {
						t.Fatalf("tweet %d term %q tf = %d, want %d", p.SID, w, posting.TF, want)
					}
				}
			}
			if !found {
				t.Fatalf("tweet %d term %q missing from cell %q", p.SID, w, cell)
			}
		}
	}
}

func TestConcurrentFetches(t *testing.T) {
	idx, _, _ := build(t, corpus(), 4)
	cell := geo.Encode(geo.Point{Lat: 43.68, Lon: -79.37}, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ps, err := idx.FetchPostings(cell, "hotel")
				if err != nil || len(ps) != 2 {
					t.Errorf("concurrent fetch: %v, %v", ps, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := idx.Fetches(); got != 400 {
		t.Errorf("Fetches = %d, want 400", got)
	}
}
