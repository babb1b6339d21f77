package thread

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/social"
)

// Phi is the one-root PhiBatch.
func (b *Bounds) Phi(root social.PostID) float64 {
	var out [1]float64
	b.PhiBatch([]social.PostID{root}, out[:])
	return out[0]
}

// phiOf recomputes a root's popularity from the post set — the oracle the
// φ table must equal.
func phiOf(posts []*social.Post, root social.PostID, depth int, epsilon float64) float64 {
	children := make(map[social.PostID][]social.PostID)
	for _, p := range posts {
		if p.RSID != social.NoPost {
			children[p.RSID] = append(children[p.RSID], p.SID)
		}
	}
	return popularityInMemory(root, children, depth, epsilon)
}

func TestPhiRangeMaxExactOnBatchCorpus(t *testing.T) {
	posts := figure2Posts()
	const depth, eps = 6, 0.1
	b := ComputeBounds(posts, depth, eps, nil)
	// Every root's entry is its exact popularity.
	for _, p := range posts {
		want := phiOf(posts, p.SID, depth, eps)
		if got := b.Phi(p.SID); got != want {
			t.Errorf("Phi(%d) = %v, want %v", p.SID, got, want)
		}
	}
	// A SID the table has never seen is a never-scored thread, whose
	// popularity is exactly the floor ε.
	if got := b.Phi(1000); got != eps {
		t.Errorf("absent-SID Phi = %v, want floor %v", got, eps)
	}
}

// TestPhiRangeMaxExactAfterRandomIngest is the φ table's property test:
// after random Ingest-style histories (each reply appended to the database,
// then its ≤depth ancestors recomputed by Algorithm 1 and recorded through
// RaiseForRoot, exactly as System.ingest does), every root's lookup equals
// Algorithm 1 — Builder.Popularity over the same posts — bit for bit. Mid
// stream the bounds are gob-round-tripped and the reloaded copy receives the
// remaining raises too: it must end with the same lookups and the same
// query-level bounds, so a restart never changes what the engine prunes.
// ε > ½ is in the grid because there a thread's first reply lowers φ below
// the floor (one reply scores ½).
func TestPhiRangeMaxExactAfterRandomIngest(t *testing.T) {
	hot := []string{"hotel", "pizza"}
	for _, eps := range []float64{0.1, 0.75} {
		for _, depth := range []int{1, 2, 4} {
			rng := rand.New(rand.NewSource(29))
			mkPost := func(sid social.PostID) *social.Post {
				return &social.Post{
					SID: sid, UID: social.UserID(sid), Time: time.Unix(int64(sid), 0),
					Loc: geo.Point{Lat: 43.7, Lon: -79.4}, Words: []string{hot[rng.Intn(2)]},
				}
			}
			for trial := 0; trial < 10; trial++ {
				label := fmt.Sprintf("ε=%v depth=%d trial %d", eps, depth, trial)
				// Batch corpus: a random forest over SIDs 1..40.
				posts := make([]*social.Post, 0, 80)
				for sid := social.PostID(1); sid <= 40; sid++ {
					p := mkPost(sid)
					if sid > 1 && rng.Intn(2) == 0 {
						p.RSID = social.PostID(1 + rng.Intn(int(sid-1)))
						p.Kind = social.Reply
					}
					posts = append(posts, p)
				}
				db := loadDB(t, posts)
				builder := Builder{DB: db, Depth: depth}
				b := ComputeBounds(posts, depth, eps, hot)
				var loaded *Bounds

				// Ingest: new ascending SIDs, most replying to an existing
				// post. Mirror System.ingest: append, then walk the ≤depth
				// ancestors and record each one's recomputed popularity.
				for sid := social.PostID(41); sid <= 80; sid++ {
					if sid == 60 {
						var buf bytes.Buffer
						if err := b.EncodeGob(&buf); err != nil {
							t.Fatal(err)
						}
						var err error
						if loaded, err = DecodeBoundsGob(&buf); err != nil {
							t.Fatal(err)
						}
					}
					p := mkPost(sid)
					if rng.Intn(3) > 0 {
						p.RSID = social.PostID(1 + rng.Intn(int(sid-1)))
						p.Kind = social.Reply
					}
					posts = append(posts, p)
					if err := db.Append(p); err != nil {
						t.Fatal(err)
					}
					for a, hops := p.RSID, 0; a != social.NoPost && hops < depth; hops++ {
						pop, _ := builder.Popularity(a, eps, nil)
						b.RaiseForRoot(a, pop)
						if loaded != nil {
							loaded.RaiseForRoot(a, pop)
						}
						row, ok := db.GetBySID(a)
						if !ok {
							break
						}
						a = row.RSID
					}
				}

				for _, p := range posts {
					want, _ := builder.Popularity(p.SID, eps, nil)
					if got := b.Phi(p.SID); got != want {
						t.Fatalf("%s: Phi(%d) = %v, Algorithm 1 says %v", label, p.SID, got, want)
					}
					if got := loaded.Phi(p.SID); got != want {
						t.Fatalf("%s: reloaded Phi(%d) = %v, Algorithm 1 says %v", label, p.SID, got, want)
					}
				}
				for _, terms := range [][]string{{"hotel"}, {"pizza"}, {"hotel", "pizza"}, {"other"}} {
					for _, and := range []bool{true, false} {
						if got, want := loaded.ForQuery(terms, and, true), b.ForQuery(terms, and, true); got != want {
							t.Fatalf("%s: reloaded ForQuery(%v, and=%v) = %v, built %v", label, terms, and, got, want)
						}
					}
				}
			}
		}
	}
}

func TestPhiTableGobRoundTrip(t *testing.T) {
	posts := figure2Posts()
	b := ComputeBounds(posts, 6, 0.1, []string{"hotel"})
	b.RaiseForRoot(999, 2.5) // an ingested root the table never saw

	var buf bytes.Buffer
	if err := b.EncodeGob(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeBoundsGob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// 500 is in no table: the floor shows the table survived.
	for _, sid := range []social.PostID{1, 2, 5, 9, 10, 500, 999} {
		if got, want := loaded.Phi(sid), b.Phi(sid); got != want {
			t.Errorf("after reload Phi(%d) = %v, want %v", sid, got, want)
		}
	}
	if got := loaded.Phi(500); got != 0.1 {
		t.Errorf("φ table lost in gob round trip: Phi(500) = %v, want floor 0.1", got)
	}
	if got := loaded.Phi(999); got != 2.5 {
		t.Errorf("ingested entry lost: Phi(999) = %v, want 2.5", got)
	}
}

// TestCheckParamsRefusesUnscorableBounds: bounds an engine would score from
// must hold a φ table computed for its depth and ε. Bounds decoded from a
// pre-φ-table image (the exported fields alone) and a table of another model
// are refused as ErrParamsMismatch, and an image whose table halves disagree
// does not decode at all.
func TestCheckParamsRefusesUnscorableBounds(t *testing.T) {
	b := ComputeBounds(figure2Posts(), 6, 0.1, []string{"hotel"})
	if err := b.CheckParams(6, 0.1); err != nil {
		t.Fatalf("matching model refused: %v", err)
	}
	tableless := &Bounds{TM: b.TM, Depth: b.Depth, Def11: b.Def11, MaxObserved: b.MaxObserved, PerKeyword: b.PerKeyword}
	for name, err := range map[string]error{
		"no φ table": tableless.CheckParams(6, 0.1),
		"depth 4":    b.CheckParams(4, 0.1),
		"ε 0.3":      b.CheckParams(6, 0.3),
	} {
		if !errors.Is(err, ErrParamsMismatch) {
			t.Errorf("%s: err = %v, want ErrParamsMismatch", name, err)
		}
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&boundsWire{Depth: 6, PhiSIDs: []social.PostID{1, 2}, PhiVals: []float64{0.5}, PhiFloor: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBoundsGob(&buf); err == nil {
		t.Error("a φ table with 2 SIDs and 1 value decoded")
	}
}

// TestPhiBatchMatchesPointLookups drives the batched read against histories
// of random batch corpora and ingest-style raises (appended SIDs and raised
// roots): for ascending batches with gaps, repeats, absent SIDs between
// entries and SIDs past the table's end, every slot must equal both the
// one-root lookup and a linear scan of the table, whatever the searches
// before it left behind.
func TestPhiBatchMatchesPointLookups(t *testing.T) {
	const depth, eps = 4, 0.1
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 30; trial++ {
		// Batch corpus on odd SIDs (so even ones are absent), a random forest.
		n := 1 + rng.Intn(300)
		posts := make([]*social.Post, n)
		for i := range posts {
			posts[i] = &social.Post{SID: social.PostID(2*i + 1), UID: 1, Words: []string{"hotel"}}
			if i > 0 && rng.Intn(2) == 0 {
				posts[i].RSID, posts[i].Kind = posts[rng.Intn(i)].SID, social.Reply
			}
		}
		b := ComputeBounds(posts, depth, eps, nil)
		last := social.PostID(2 * n)
		for r := rng.Intn(40); r > 0; r-- { // ingest: raise old roots, append new ones
			if rng.Intn(2) == 0 {
				b.RaiseForRoot(social.PostID(1+rng.Intn(int(last))), rng.Float64()*5)
			} else {
				last += social.PostID(1 + rng.Intn(3))
				b.RaiseForRoot(last, rng.Float64()*5)
			}
		}
		scan := func(root social.PostID) float64 {
			for i, sid := range b.phiSIDs {
				if sid == root {
					return b.phiVals[i]
				}
			}
			return eps
		}
		for batch := 0; batch < 20; batch++ {
			var roots []social.PostID
			sid, stride := social.PostID(rng.Intn(4)), 1+rng.Intn(1+int(last)/4)
			for sid <= last+10 { // runs past the table's end
				roots = append(roots, sid)
				if rng.Intn(4) > 0 { // else: repeat the SID
					sid += social.PostID(1 + rng.Intn(stride))
				}
			}
			out := make([]float64, len(roots))
			b.PhiBatch(roots, out)
			for i, root := range roots {
				if want := scan(root); out[i] != want || b.Phi(root) != want {
					t.Fatalf("trial %d: batch[%d] φ(%d) = %v, point %v, table scan %v", trial, i, root, out[i], b.Phi(root), want)
				}
			}
		}
	}
}

var phiSink float64

// BenchmarkPhiLookup measures the per-tweet bound the engine evaluates at
// every prune decision, in a 250k-entry table probed at present and absent
// SIDs: one read-locked search per root (point), and one PhiBatch over 1146
// ascending roots — the city-sum candidate count — reported per root.
func BenchmarkPhiLookup(b *testing.B) {
	const n = 250_000
	posts := make([]*social.Post, n)
	for i := range posts {
		posts[i] = &social.Post{SID: social.PostID(2*i + 1), UID: 1, Words: []string{"hotel"}}
		if i%7 == 3 {
			posts[i].RSID, posts[i].Kind = posts[i-1].SID, social.Reply
		}
	}
	bounds := ComputeBounds(posts, 4, 0.1, nil)
	rng := rand.New(rand.NewSource(31))
	probes := make([]social.PostID, 4096)
	for i := range probes {
		probes[i] = social.PostID(1 + rng.Intn(2*n))
	}
	b.Run("point", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			phiSink += bounds.Phi(probes[i%len(probes)])
		}
	})
	b.Run("batch", func(b *testing.B) {
		roots := slices.Clone(probes[:1146])
		slices.Sort(roots)
		out := make([]float64, len(roots))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(roots) {
			bounds.PhiBatch(roots, out)
		}
		phiSink += out[0]
	})
}
