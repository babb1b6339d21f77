package thread

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/score"
	"repro/internal/social"
)

// Phi is the one-root PhiBatch.
func (b *Bounds) Phi(root social.PostID, epsilon float64) float64 {
	var out [1]float64
	b.PhiBatch([]social.PostID{root}, epsilon, out[:])
	return out[0]
}

// TestPhiBatchMatchesPointLookups drives the batched read against histories
// of random batch corpora and ingest-style replies (to old posts and to new
// SIDs past the table's end): for ascending batches with gaps, repeats,
// absent SIDs between entries and SIDs past the table's end, every slot
// must equal both the one-root lookup and Definition 4 over a linear scan
// of the table, whatever the searches before it left behind.
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
		b := ComputeBounds(posts, depth)
		last := social.PostID(2 * n)
		for r := rng.Intn(40); r > 0; r-- { // ingest: reply to old roots and to new ones
			ancestors := make([]social.PostID, 1+rng.Intn(depth))
			for h := range ancestors {
				ancestors[h] = social.PostID(1 + rng.Intn(int(last)))
			}
			if rng.Intn(2) == 0 {
				last += social.PostID(1 + rng.Intn(3))
				ancestors[0] = last
			}
			b.AddReply(ancestors)
		}
		scan := func(root social.PostID) float64 {
			for i, sid := range b.sids {
				if sid == root {
					return score.Popularity(b.counts[i*depth:(i+1)*depth], eps)
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
			b.PhiBatch(roots, eps, out)
			for i, root := range roots {
				if want := scan(root); out[i] != want || b.Phi(root, eps) != want {
					t.Fatalf("trial %d: batch[%d] φ(%d) = %v, point %v, table scan %v", trial, i, root, out[i], b.Phi(root, eps), want)
				}
			}
		}
	}
}

var phiSink float64

// BenchmarkPhiLookup measures the φ read the engine makes for every
// candidate, in the table of a 250k-post corpus (one post in seven a reply)
// probed at present and absent SIDs: one read-locked search per root
// (point), and one PhiBatch over 1146 ascending roots — the city-sum
// candidate count — reported per root.
func BenchmarkPhiLookup(b *testing.B) {
	const n = 250_000
	posts := make([]*social.Post, n)
	for i := range posts {
		posts[i] = &social.Post{SID: social.PostID(2*i + 1), UID: 1, Words: []string{"hotel"}}
		if i%7 == 3 {
			posts[i].RSID, posts[i].Kind = posts[i-1].SID, social.Reply
		}
	}
	bounds := ComputeBounds(posts, 4)
	rng := rand.New(rand.NewSource(31))
	probes := make([]social.PostID, 4096)
	for i := range probes {
		probes[i] = social.PostID(1 + rng.Intn(2*n))
	}
	b.Run("point", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			phiSink += bounds.Phi(probes[i%len(probes)], 0.1)
		}
	})
	b.Run("batch", func(b *testing.B) {
		roots := slices.Clone(probes[:1146])
		slices.Sort(roots)
		out := make([]float64, len(roots))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(roots) {
			bounds.PhiBatch(roots, 0.1, out)
		}
		phiSink += out[0]
	})
}
