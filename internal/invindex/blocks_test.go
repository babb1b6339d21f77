package invindex

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/social"
)

// testCorpus generates n deterministic posts scattered over a small area
// with a skewed vocabulary, so some ⟨cell, term⟩ keys gather postings lists
// long enough to span several blocks.
func testCorpus(t *testing.T, n int) []*social.Post {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	words := []string{"hotel", "pizza", "beach", "music", "rain"}
	posts := make([]*social.Post, 0, n)
	for i := 0; i < n; i++ {
		w := []string{words[rng.Intn(2)]} // skew: most posts share two terms
		if rng.Intn(3) == 0 {
			w = append(w, words[2+rng.Intn(3)])
		}
		posts = append(posts, &social.Post{
			SID: social.PostID(i + 1), UID: social.UserID(1 + rng.Intn(20)),
			Time: time.Unix(int64(i+1), 0),
			Loc: geo.Point{
				Lat: 43.68 + rng.Float64()*0.02,
				Lon: -79.38 + rng.Float64()*0.02,
			},
			Words: w,
		})
	}
	return posts
}

func randomPostings(rng *rand.Rand, n int) []Posting {
	ps := make([]Posting, 0, n)
	tid := social.PostID(0)
	for i := 0; i < n; i++ {
		tid += social.PostID(1 + rng.Intn(1000))
		ps = append(ps, Posting{TID: tid, TF: uint32(1 + rng.Intn(9))})
	}
	return ps
}

func TestBlockedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 127, 128, 129, 1000} {
		for _, bs := range []int{0, 1, 8, 128} {
			ps := randomPostings(rng, n)
			enc, err := EncodeBlockedPostingsList(ps, bs)
			if err != nil {
				t.Fatalf("n=%d bs=%d: encode: %v", n, bs, err)
			}
			count, err := PostingsListCount(enc)
			if err != nil || count != n {
				t.Fatalf("n=%d bs=%d: header count %d err %v", n, bs, count, err)
			}
			dec, err := DecodeBlockedPostingsList(enc)
			if err != nil {
				t.Fatalf("n=%d bs=%d: decode: %v", n, bs, err)
			}
			if len(dec) != len(ps) {
				t.Fatalf("n=%d bs=%d: got %d postings", n, bs, len(dec))
			}
			for i := range dec {
				if dec[i] != ps[i] {
					t.Fatalf("n=%d bs=%d: posting %d = %v, want %v", n, bs, i, dec[i], ps[i])
				}
			}
		}
	}
}

func TestBlockedRejectsUnsorted(t *testing.T) {
	ps := []Posting{{TID: 5, TF: 1}, {TID: 5, TF: 2}}
	if _, err := EncodeBlockedPostingsList(ps, 0); err == nil {
		t.Fatal("duplicate TIDs encoded without error")
	}
	ps[1].TID = 4
	if _, err := EncodeBlockedPostingsList(ps, 0); err == nil {
		t.Fatal("descending TIDs encoded without error")
	}
}

// TestBlockMetadataExact checks every directory entry against the true
// per-block extrema: the metadata traversal trusts for skipping must be
// exact, not merely an upper bound, at encode time.
func TestBlockMetadataExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ps := randomPostings(rng, 500)
	const bs = 64
	enc, err := EncodeBlockedPostingsList(ps, bs)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewBlockedIterator(enc)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(ps); start += bs {
		end := start + bs
		if end > len(ps) {
			end = len(ps)
		}
		blk := ps[start:end]
		info, ok := it.BlockMax()
		if !ok {
			t.Fatalf("iterator exhausted at block starting %d", start)
		}
		var maxTF uint32
		for _, p := range blk {
			if p.TF > maxTF {
				maxTF = p.TF
			}
		}
		if info.Count != len(blk) || info.MinSID != blk[0].TID ||
			info.MaxSID != blk[len(blk)-1].TID || info.MaxTF != maxTF {
			t.Fatalf("block %d metadata %+v, want count=%d min=%d max=%d maxTF=%d",
				info.Index, info, len(blk), blk[0].TID, blk[len(blk)-1].TID, maxTF)
		}
		if !it.SkipBlock() && end != len(ps) {
			t.Fatalf("iterator ended early at %d", end)
		}
	}
}

// TestIteratorNextEquivalence walks the iterator posting by posting and
// compares against the eager decode.
func TestIteratorNextEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, bs := range []int{1, 3, 8, 128} {
		ps := randomPostings(rng, 300)
		enc, err := EncodeBlockedPostingsList(ps, bs)
		if err != nil {
			t.Fatal(err)
		}
		it, err := NewBlockedIterator(enc)
		if err != nil {
			t.Fatal(err)
		}
		if it.Len() != len(ps) {
			t.Fatalf("bs=%d: Len=%d, want %d", bs, it.Len(), len(ps))
		}
		for i := 0; ; i++ {
			p, ok := it.Cur()
			if !ok {
				if i != len(ps) {
					t.Fatalf("bs=%d: iterator ended at %d of %d", bs, i, len(ps))
				}
				break
			}
			if p != ps[i] {
				t.Fatalf("bs=%d: posting %d = %v, want %v", bs, i, p, ps[i])
			}
			it.Next()
		}
		if err := it.Err(); err != nil {
			t.Fatalf("bs=%d: iterator error: %v", bs, err)
		}
	}
}

// TestIteratorSkipToEquivalence drives SkipTo with random targets and
// checks each landing position against a linear scan of the decoded list,
// for both blocked and flat (slice) iterators.
func TestIteratorSkipToEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		ps := randomPostings(rng, 1+rng.Intn(400))
		bs := 1 + rng.Intn(64)
		enc, err := EncodeBlockedPostingsList(ps, bs)
		if err != nil {
			t.Fatal(err)
		}
		blocked, err := NewBlockedIterator(enc)
		if err != nil {
			t.Fatal(err)
		}
		flat := NewSliceIterator(ps)
		maxTID := ps[len(ps)-1].TID
		target := social.PostID(0)
		for _, it := range []*PostingsIterator{blocked, flat} {
			target = 0
			linear := 0
			for {
				target += social.PostID(1 + rng.Intn(int(maxTID)/8+1))
				ok := it.SkipTo(target)
				for linear < len(ps) && ps[linear].TID < target {
					linear++
				}
				if linear >= len(ps) {
					if ok {
						p, _ := it.Cur()
						t.Fatalf("trial %d: SkipTo(%d) found %v past end", trial, target, p)
					}
					break
				}
				if !ok {
					t.Fatalf("trial %d: SkipTo(%d) exhausted, want %v", trial, target, ps[linear])
				}
				p, _ := it.Cur()
				if p != ps[linear] {
					t.Fatalf("trial %d: SkipTo(%d) = %v, want %v", trial, target, p, ps[linear])
				}
				// Occasionally interleave Next to move the cursor mid-block;
				// it consumes the current posting even when it exhausts.
				if rng.Intn(3) == 0 {
					it.Next()
					linear++
				}
				if err := it.Err(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestIteratorSkipAccounting exercises the decode-avoidance counters: a
// skip over the whole list must credit every untouched block.
func TestIteratorSkipAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ps := randomPostings(rng, 256)
	enc, err := EncodeBlockedPostingsList(ps, 32)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewBlockedIterator(enc)
	if err != nil {
		t.Fatal(err)
	}
	it.SkipTo(math.MaxInt64)
	st := it.Stats()
	if st.BlocksSkipped != 8 || st.PostingsSkipped != 256 || st.BlocksDecoded != 0 {
		t.Fatalf("full skip stats %+v, want 8 blocks / 256 postings skipped, 0 decoded", st)
	}

	// Touch the first block, then skip: the touched block must not be
	// counted as skipped.
	it2, err := NewBlockedIterator(enc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it2.Cur(); !ok {
		t.Fatal("Cur on fresh iterator failed")
	}
	it2.SkipTo(math.MaxInt64)
	st = it2.Stats()
	if st.BlocksSkipped != 7 || st.PostingsSkipped != 224 || st.BlocksDecoded != 1 {
		t.Fatalf("partial skip stats %+v, want 7/224 skipped, 1 decoded", st)
	}
}

// TestFlatIteratorCompat checks the single-block slice iterator that adapts
// already-decoded lists (the memtable's, a fetch-only source's) to the lazy
// merges.
func TestFlatIteratorCompat(t *testing.T) {
	if it := NewSliceIterator(nil); it.Valid() || it.Len() != 0 {
		t.Fatal("empty slice iterator should start exhausted")
	}
	ps := []Posting{{TID: 3, TF: 2}, {TID: 9, TF: 5}, {TID: 12, TF: 1}}
	it := NewSliceIterator(ps)
	info, ok := it.BlockMax()
	if !ok || info.Count != 3 || info.MinSID != 3 || info.MaxSID != 12 || info.MaxTF != 5 {
		t.Fatalf("flat BlockMax = %+v ok=%v", info, ok)
	}
	if !it.SkipTo(9) {
		t.Fatal("SkipTo(9) failed")
	}
	if p, _ := it.Cur(); p.TID != 9 {
		t.Fatalf("SkipTo(9) landed on %v", p)
	}
}

// TestFetchDispatch builds a multi-block index and checks its two read
// paths agree on every key: FetchPostings' eager decode, the sequence
// OpenPostings' lazy iterator yields, and the forward index's count.
func TestFetchDispatch(t *testing.T) {
	posts := testCorpus(t, 300)
	opts := DefaultBuildOptions()
	opts.BlockSize = 16 // small blocks so multi-block lists exist
	idx, _, err := Build(dfs.New(dfs.DefaultOptions()), posts, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := idx.Keys()
	if len(keys) == 0 {
		t.Fatal("no keys built")
	}
	for _, k := range keys {
		ps, err := idx.FetchPostings(k.Geohash, k.Term)
		if err != nil {
			t.Fatalf("%v: fetch: %v", k, err)
		}
		if got := idx.PostingsCount(k.Geohash, k.Term); got != len(ps) {
			t.Fatalf("%v: PostingsCount %d, want %d", k, got, len(ps))
		}
		it, err := idx.OpenPostings(k.Geohash, k.Term)
		if err != nil {
			t.Fatalf("%v: open: %v", k, err)
		}
		for i := 0; ; i++ {
			p, ok := it.Cur()
			if !ok {
				if i != len(ps) {
					t.Fatalf("%v: iterator ended at %d of %d", k, i, len(ps))
				}
				break
			}
			if p != ps[i] {
				t.Fatalf("%v: iterator posting %d = %v, want %v", k, i, p, ps[i])
			}
			it.Next()
		}
	}
}

// TestDecodeBlockedCorruption checks the decoder rejects mangled payloads
// instead of panicking or fabricating postings.
func TestDecodeBlockedCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ps := randomPostings(rng, 200)
	enc, err := EncodeBlockedPostingsList(ps, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		for delta := byte(1); delta < 255; delta += 97 {
			mut := bytes.Clone(enc)
			mut[i] += delta
			dec, err := DecodeBlockedPostingsList(mut)
			if err != nil {
				continue
			}
			// A mutation may survive decoding only by landing on another
			// self-consistent list; it must still be strictly sorted.
			for j := 1; j < len(dec); j++ {
				if dec[j].TID <= dec[j-1].TID {
					t.Fatalf("mutation at %d decoded unsorted postings", i)
				}
			}
		}
	}
	for _, trunc := range []int{0, 1, 2, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeBlockedPostingsList(enc[:trunc]); err == nil && trunc < len(enc) {
			t.Fatalf("truncation to %d decoded without error", trunc)
		}
	}
}
