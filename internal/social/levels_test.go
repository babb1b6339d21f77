package social

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/score"
)

// recount is the offline scan the table's counts must equal: for every post
// the table holds that something reacts to, the level sizes of its thread
// to depth, walked down a child adjacency of every post (Section V-B's
// pre-computation).
func recount(posts []*Post, depth int) map[PostID][]uint32 {
	held := make(map[PostID]bool, len(posts))
	children := make(map[PostID][]PostID)
	for _, p := range posts {
		held[p.SID] = true
		if p.RSID != NoPost {
			children[p.RSID] = append(children[p.RSID], p.SID)
		}
	}
	out := make(map[PostID][]uint32)
	for root := range children {
		if !held[root] {
			continue
		}
		row := make([]uint32, depth)
		frontier := []PostID{root}
		for h := 0; h < depth && len(frontier) > 0; h++ {
			var next []PostID
			for _, sid := range frontier {
				next = append(next, children[sid]...)
			}
			row[h] = uint32(len(next))
			frontier = next
		}
		out[root] = row
	}
	return out
}

// TestLevelsMatchRecountInAnyOrder: whatever order reactions arrive in —
// before the post they react to, in cycles, to posts never held — the
// table's level sizes equal the offline recount, for a batch build, a
// rebuild from its rows and a stream of appends, and every φ is
// Definition 4 over them.
func TestLevelsMatchRecountInAnyOrder(t *testing.T) {
	for _, depth := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(int64(depth)))
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.Intn(120)
			posts := make([]*Post, n)
			for i := range posts {
				posts[i] = mkPost(PostID(i+1), UserID(1+rng.Intn(9)), NoPost, 0)
				if rng.Intn(3) > 0 {
					// Any post, earlier or later, itself excluded, or one
					// the table never holds.
					rsid := PostID(1 + rng.Intn(n+5))
					if rsid != posts[i].SID {
						posts[i] = mkPost(posts[i].SID, posts[i].UID, rsid, 1)
					}
				}
			}
			want := recount(posts, depth)
			shuffled := slices.Clone(posts)
			rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			built, err := NewCorpus(shuffled, depth)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := NewCorpus(posts[:n/2], depth)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range posts[n/2:] {
				if err := streamed.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			for name, c := range map[string]*Corpus{"built": built, "streamed": streamed} {
				if got := levels(c); !reflect.DeepEqual(got, want) {
					t.Fatalf("depth %d trial %d: %s levels %v, recount %v", depth, trial, name, got, want)
				}
				for _, p := range posts {
					wantPhi := 0.1
					if row, ok := want[p.SID]; ok {
						wantPhi = score.Popularity(row, 0.1)
					}
					if got := c.Phi(p.SID, 0.1); got != wantPhi {
						t.Fatalf("depth %d trial %d: %s φ(%d) = %v, want %v", depth, trial, name, p.SID, got, wantPhi)
					}
				}
			}
		}
	}
}

// TestScoreMatchesPointLookups: the engine's batch read — authors and φ by
// post ordinal, in any order, with repeats — equals the point lookups by
// SID, at an ε above and below ½.
func TestScoreMatchesPointLookups(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	h := &countHistory{want: map[UserID]int{}, nextUID: 1}
	for i := 0; i < 400; i++ {
		h.post(rng, h.author(rng))
	}
	c := newCorpusT(t, h.posts)
	ords := make([]uint32, 900)
	for i := range ords {
		ords[i] = uint32(rng.Intn(len(h.posts)))
	}
	for _, eps := range []float64{0.1, 0.75} {
		users := make([]uint32, len(ords))
		phi := make([]float64, len(ords))
		c.Score(ords, eps, users, phi)
		counts := make([]int, len(users))
		c.UserPosts(users, counts)
		for i, o := range ords {
			p := h.posts[o]
			if want := c.Phi(p.SID, eps); phi[i] != want {
				t.Fatalf("ε=%v: Score φ of post %d = %v, point lookup %v", eps, p.SID, phi[i], want)
			}
			if u, _ := userOrdinal(c, p.UID); users[i] != u || counts[i] != h.want[p.UID] {
				t.Fatalf("ε=%v: post %d author ordinal %d, |P_u| %d; want %d, %d", eps, p.SID, users[i], counts[i], u, h.want[p.UID])
			}
		}
	}
	if got := c.Phi(PostID(1e9), 0.1); got != 0.1 {
		t.Errorf("φ of a post the table lacks = %v, want ε", got)
	}
}

// TestFirstReplyToOldestAppendsOneRow: the first reaction to the oldest
// post — the case the old SID-keyed table met with an insert at its front —
// appends one count row at the end and changes no other post's φ by a bit.
func TestFirstReplyToOldestAppendsOneRow(t *testing.T) {
	posts := []*Post{mkPost(1, 1, NoPost, 0), mkPost(2, 2, NoPost, 0)}
	for sid := PostID(3); sid <= 200; sid++ {
		posts = append(posts, mkPost(sid, UserID(sid%7+1), max(2, sid-1-sid%2), 1)) // a tree below 2
	}
	c := newCorpusT(t, posts)
	before := make(map[PostID]float64)
	for _, p := range posts {
		before[p.SID] = c.Phi(p.SID, 0.1)
	}
	rows := len(c.phi)
	if c.posts[0].level >= 0 {
		t.Fatal("the oldest post has a count row before any reaction")
	}
	if err := c.Append(mkPost(1000, 9, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if len(c.phi) != rows+1 || c.posts[0].level != int32(rows) {
		t.Fatalf("rows %d → %d, oldest post's row %d; want one row appended at %d", rows, len(c.phi), c.posts[0].level, rows)
	}
	for _, p := range posts[1:] {
		if got := c.Phi(p.SID, 0.1); got != before[p.SID] {
			t.Errorf("φ(%d) moved from %v to %v", p.SID, before[p.SID], got)
		}
	}
	if got := c.Phi(1, 0.1); got != 0.5 {
		t.Errorf("φ of the oldest post after one reply = %v, want ½", got)
	}
}

// bigTable is a table of 2M counted posts: every post but the last has a
// reaction — each replies to the post before it, and one in 64 to a random
// earlier post instead — so every count row the old SID-keyed table would
// have held, 2M of them, is here. Built once per benchmark.
func bigTable(b *testing.B) *Corpus {
	const n = 2_000_001
	rng := rand.New(rand.NewSource(31))
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{SID: PostID(2*i + 1), UID: UserID(1 + rng.Intn(200_000))}
		switch {
		case i > 0 && i%64 == 0:
			rows[i].RSID = rows[rng.Intn(i)].SID
		case i > 0:
			rows[i].RSID = rows[i-1].SID
		}
	}
	c, err := CorpusFromRows(rows, 6)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkAddReply times one ingested reply at a table of 2M counted
// posts: the append plus the ≤ depth count increments up its chain,
// replying to a random earlier post (the old SID-keyed table inserted
// mid-slice here and measured 12 ms per call at 2.08M entries).
func BenchmarkAddReply(b *testing.B) {
	c := bigTable(b)
	rng := rand.New(rand.NewSource(5))
	next := PostID(4_000_002) // live posts follow the table's last SID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next++
		parent := PostID(2*rng.Intn(2_000_001) + 1)
		if err := c.Append(&Post{SID: next, UID: 7, Kind: Reply, RSID: parent, RUID: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

var phiSink float64

// BenchmarkScore times the engine's per-candidate read — author and φ by
// post ordinal — in a table of 2M counted posts, over 1146 ascending
// ordinals (the city-sum candidate count), reported per candidate.
func BenchmarkScore(b *testing.B) {
	c := bigTable(b)
	rng := rand.New(rand.NewSource(3))
	ords := make([]uint32, 1146)
	for i := range ords {
		ords[i] = uint32(rng.Intn(c.Len()))
	}
	slices.Sort(ords)
	users := make([]uint32, len(ords))
	phi := make([]float64, len(ords))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(ords) {
		c.Score(ords, 0.1, users, phi)
	}
	phiSink += phi[0]
}
