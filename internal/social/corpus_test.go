package social

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
)

func mkPost(sid PostID, uid UserID, rsid PostID, ruid UserID) *Post {
	kind := None
	if rsid != NoPost {
		kind = Reply
	}
	return &Post{
		SID: sid, UID: uid, Time: time.Unix(int64(sid), 0),
		Loc:  geo.Point{Lat: 43.7 + float64(sid%1000)*1e-4, Lon: -79.4},
		Kind: kind, RUID: ruid, RSID: rsid,
	}
}

// testDepth is the thread depth the tests' tables count to.
const testDepth = 4

// userOrdinal returns the ordinal of user uid; false if the table has no
// post of theirs.
func userOrdinal(c *Corpus, uid UserID) (uint32, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	u, ok := c.users[uid]
	return u, ok
}

func newCorpusT(t testing.TB, posts []*Post) *Corpus {
	t.Helper()
	c, err := NewCorpus(posts, testDepth)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAppendVisibleToReaders(t *testing.T) {
	c := newCorpusT(t, []*Post{
		mkPost(3, 3, NoPost, 0),
		mkPost(1, 1, NoPost, 0),
		mkPost(2, 2, 1, 1),
	})
	if err := c.Append(mkPost(10, 4, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := c.Reactions(nil, 1); !slices.Equal(got, []PostID{2, 10}) {
		t.Fatalf("reactions to 1 after append = %v, want [2 10]", got)
	}
	if uid, ok := c.Author(10); !ok || uid != 4 {
		t.Errorf("Author(10) = %d, %v after append", uid, ok)
	}
	if got := c.PostCountOfUser(4); got != 1 {
		t.Errorf("PostCountOfUser(4) = %d, want 1", got)
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
	if min, max := c.SIDRange(); min != 1 || max != 10 {
		t.Errorf("SID range = [%d, %d], want [1, 10]", min, max)
	}
}

func TestUserPosts(t *testing.T) {
	c := newCorpusT(t, []*Post{mkPost(5, 1, 0, 0), mkPost(1, 1, 0, 0), mkPost(3, 2, 0, 0)})
	if c.PostCountOfUser(1) != 2 || c.PostCountOfUser(2) != 1 || c.PostCountOfUser(42) != 0 {
		t.Error("PostCountOfUser wrong")
	}
	if _, ok := userOrdinal(c, 42); ok {
		t.Error("a user with no post has an ordinal")
	}
	// User ordinals follow the first post in SID order: uid 1 wrote SID 1.
	users := make([]uint32, 3)
	c.Score([]uint32{0, 1, 2}, 0.1, users, make([]float64, 3))
	if !slices.Equal(users, []uint32{0, 1, 0}) {
		t.Errorf("authors by ordinal = %v, want [0 1 0]", users)
	}
	got := make([]int, 3)
	if c.UserPosts([]uint32{1, 0, 1}, got); !slices.Equal(got, []int{1, 2, 1}) {
		t.Errorf("UserPosts = %v, want [1 2 1]", got)
	}
}

// TestAppendOrderRules: the post's own faults — a repeated or out-of-order
// SID, a post failing validation — are ErrRejected and change nothing; a
// batch with one SID twice is ErrRejected too, and an invalid post in a
// batch fails it with the validation error.
func TestAppendOrderRules(t *testing.T) {
	c := newCorpusT(t, []*Post{mkPost(5, 1, NoPost, 0)})
	if err := c.Append(mkPost(5, 2, NoPost, 0)); !errors.Is(err, ErrRejected) {
		t.Errorf("append with duplicate SID: err = %v, want ErrRejected", err)
	}
	if err := c.Append(mkPost(3, 2, NoPost, 0)); !errors.Is(err, ErrRejected) {
		t.Errorf("append with out-of-order SID: err = %v, want ErrRejected", err)
	}
	if err := c.Append(&Post{SID: 9}); !errors.Is(err, ErrRejected) {
		t.Errorf("append of a post without an author: err = %v, want ErrRejected", err)
	}
	if c.Len() != 1 || c.PostCountOfUser(2) != 0 {
		t.Errorf("refused appends changed the table: Len %d, |P_2| %d", c.Len(), c.PostCountOfUser(2))
	}
	if _, err := NewCorpus([]*Post{mkPost(4, 1, NoPost, 0), mkPost(4, 2, NoPost, 0)}, testDepth); !errors.Is(err, ErrRejected) {
		t.Errorf("batch with a repeated SID: err = %v, want ErrRejected", err)
	}
	if _, err := NewCorpus([]*Post{mkPost(4, 1, NoPost, 0), {SID: 6}}, testDepth); err == nil || errors.Is(err, ErrRejected) {
		t.Errorf("batch with an invalid post: err = %v, want its validation error", err)
	}
	if _, err := CorpusFromRows([]Row{{SID: 4, UID: 1}, {SID: 4, UID: 2}}, testDepth); !errors.Is(err, ErrRejected) {
		t.Errorf("rows out of SID order: err = %v, want ErrRejected", err)
	}
}

// levels returns the table's count row of every post something reacts to.
func levels(c *Corpus) map[PostID][]uint32 {
	out := make(map[PostID][]uint32)
	c.Levels(func(root PostID, levels []uint32) { out[root] = slices.Clone(levels) })
	return out
}

// TestReplyGraph: the table holds each post's author and each post's
// reactions in ascending SID order, whatever order the batch came in, and
// knows no author for a post it does not hold, even one something reacts
// to; a reaction counts toward the threads of its ancestors up the chain,
// which stops at an original, a post the table does not hold, or the
// depth.
func TestReplyGraph(t *testing.T) {
	c := newCorpusT(t, []*Post{
		mkPost(9, 19, 2, 12), mkPost(1, 11, NoPost, 0), mkPost(4, 14, 1, 11),
		mkPost(2, 12, 1, 11), mkPost(7, 17, 100, 99), mkPost(11, 21, 9, 19),
		mkPost(12, 22, 11, 21), mkPost(13, 23, 12, 22), mkPost(14, 24, 13, 23),
	})
	if got := c.Reactions(nil, 1); !slices.Equal(got, []PostID{2, 4}) {
		t.Errorf("reactions to 1 = %v, want [2 4]", got)
	}
	for sid, want := range map[PostID]UserID{1: 11, 2: 12, 4: 14, 7: 17, 9: 19} {
		if uid, ok := c.Author(sid); !ok || uid != want {
			t.Errorf("Author(%d) = %d, %v; want %d", sid, uid, ok, want)
		}
	}
	for _, sid := range []PostID{3, 100} {
		if uid, ok := c.Author(sid); ok {
			t.Errorf("Author(%d) = %d of a post the batch does not hold", sid, uid)
		}
	}
	// 1 ← {2, 4}, 2 ← 9 ← 11 ← 12 ← 13 ← 14: the chain below 1 is six
	// deep, and the table counts four levels of it. 7 reacts to a post the
	// table lacks, so it counts toward no thread.
	want := map[PostID][]uint32{
		1:  {2, 1, 1, 1},
		2:  {1, 1, 1, 1},
		9:  {1, 1, 1, 1},
		11: {1, 1, 1, 0},
		12: {1, 1, 0, 0},
		13: {1, 0, 0, 0},
	}
	if got := levels(c); !reflect.DeepEqual(got, want) {
		t.Errorf("level sizes = %v, want %v", got, want)
	}
	if err := c.Append(mkPost(200, 20, 100, 99)); err != nil {
		t.Fatal(err)
	}
	if got := c.Reactions(nil, 100); !slices.Equal(got, []PostID{7, 200}) {
		t.Errorf("reactions to 100 = %v, want [7 200]", got)
	}
	if got := levels(c); !reflect.DeepEqual(got, want) {
		t.Errorf("a reaction to a post the table lacks changed the level sizes to %v", got)
	}
}

// countHistory feeds a table posts and keeps the brute-force |P_u| beside
// it.
type countHistory struct {
	want    map[UserID]int
	nextSID PostID
	nextUID UserID // a user no post has named yet
	posts   []*Post
}

// post makes the next post of uid in SID order, a reply to a random earlier
// post one time in three.
func (h *countHistory) post(rng *rand.Rand, uid UserID) *Post {
	h.nextSID++
	var p *Post
	if len(h.posts) > 0 && rng.Intn(3) == 0 {
		parent := h.posts[rng.Intn(len(h.posts))]
		p = mkPost(h.nextSID, uid, parent.SID, parent.UID)
	} else {
		p = mkPost(h.nextSID, uid, NoPost, 0)
	}
	h.want[uid]++
	h.posts = append(h.posts, p)
	if uid >= h.nextUID {
		h.nextUID = uid + 1
	}
	return p
}

// author picks an existing user, or a new one one time in four.
func (h *countHistory) author(rng *rand.Rand) UserID {
	if len(h.posts) == 0 || rng.Intn(4) == 0 {
		return h.nextUID
	}
	return h.posts[rng.Intn(len(h.posts))].UID
}

// rows returns the rows of every post fed in, in SID order.
func (h *countHistory) rows() []Row {
	rows := make([]Row, len(h.posts))
	for i, p := range h.posts {
		rows[i] = Row{SID: p.SID, UID: p.UID, Lat: p.Loc.Lat, Lon: p.Loc.Lon, RUID: p.RUID, RSID: p.RSID}
	}
	return rows
}

// check compares both read paths with the brute-force counts: by UID every
// known user, the unknown uid 0 and a never-seen uid; by user ordinal a
// batch holding each known user and repeats, and the empty batch.
func (h *countHistory) check(t *testing.T, c *Corpus, at string) {
	t.Helper()
	var uids []UserID
	for uid, n := range h.want {
		if got := c.PostCountOfUser(uid); got != n {
			t.Fatalf("%s: PostCountOfUser(%d) = %d, want %d", at, uid, got, n)
		}
		uids = append(uids, uid)
	}
	slices.Sort(uids)
	for _, uid := range []UserID{0, h.nextUID + 7} {
		if got := c.PostCountOfUser(uid); got != 0 {
			t.Fatalf("%s: PostCountOfUser(%d) of an unknown user = %d, want 0", at, uid, got)
		}
	}
	batch := append(slices.Clone(uids), uids[:len(uids)/2]...) // repeats
	ords := make([]uint32, len(batch))
	for i, uid := range batch {
		u, ok := userOrdinal(c, uid)
		if !ok {
			t.Fatalf("%s: user %d has no ordinal", at, uid)
		}
		ords[i] = u
	}
	got := make([]int, len(batch))
	c.UserPosts(ords, got)
	for i, uid := range batch {
		if got[i] != h.want[uid] {
			t.Fatalf("%s: UserPosts[%d] (uid %d) = %d, want %d", at, i, uid, got[i], h.want[uid])
		}
	}
	c.UserPosts(nil, nil)
	if c.Len() != len(h.posts) {
		t.Fatalf("%s: Len = %d, want %d", at, c.Len(), len(h.posts))
	}
}

// TestPostCountsMatchRows is the |P_u| property test: across a batch
// NewCorpus, live Appends by new and existing users, and a rebuild from the
// rows (CorpusFromRows, as a reload does) in the middle, both read paths
// equal a brute-force count over the posts fed in.
func TestPostCountsMatchRows(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := &countHistory{want: map[UserID]int{}, nextUID: 1}
			for i := 0; i < 200+rng.Intn(300); i++ {
				h.post(rng, UserID(rng.Intn(30)+1))
			}
			for i := 0; i < 5; i++ { // users with exactly one post
				h.post(rng, h.nextUID)
			}
			posts := slices.Clone(h.posts)
			rng.Shuffle(len(posts), func(i, j int) { posts[i], posts[j] = posts[j], posts[i] })
			c := newCorpusT(t, posts)
			h.check(t, c, "after NewCorpus")

			appendSome := func(c *Corpus, n int, phase string) {
				for i := 0; i < n; i++ {
					if err := c.Append(h.post(rng, h.author(rng))); err != nil {
						t.Fatal(err)
					}
					if i%25 == 0 {
						h.check(t, c, fmt.Sprintf("%s, append %d", phase, i))
					}
				}
				h.check(t, c, phase)
			}
			appendSome(c, 100, "first appends")

			loaded, err := CorpusFromRows(h.rows(), testDepth)
			if err != nil {
				t.Fatal(err)
			}
			h.check(t, loaded, "after CorpusFromRows")
			appendSome(loaded, 100, "appends after CorpusFromRows")
		})
	}
}

// TestPostCountsConcurrentAppend runs the table's writer and readers
// together (the -race leg): one goroutine appends posts by existing and new
// users while readers batch-read the counts. No reader may see a count go
// down, and the final counts are exact.
func TestPostCountsConcurrentAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := &countHistory{want: map[UserID]int{}, nextUID: 1}
	for i := 0; i < 64; i++ {
		h.post(rng, UserID(i%8+1))
	}
	c := newCorpusT(t, h.posts)

	const appends = 400
	appended := make([]*Post, appends)
	for i := range appended {
		uid := UserID(i%8 + 1)
		if i%5 == 0 {
			uid = h.nextUID // a user the readers see appear
		}
		appended[i] = h.post(rng, uid)
	}
	uids := make([]UserID, 0, h.nextUID)
	for uid := UserID(0); uid < h.nextUID; uid++ {
		uids = append(uids, uid)
	}
	ords := make([]uint32, 8)
	for i := range ords {
		ords[i], _ = userOrdinal(c, UserID(i+1))
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range appended {
			if err := c.Append(p); err != nil {
				t.Errorf("append %d: %v", p.SID, err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			seen := make([]int, len(uids))
			got := make([]int, len(ords))
			for i := 0; i < appends; i++ {
				for j, uid := range uids {
					n := c.PostCountOfUser(uid)
					if n < seen[j] {
						t.Errorf("reader %d: user %d's count fell from %d to %d", r, uid, seen[j], n)
						return
					}
					seen[j] = n
				}
				c.UserPosts(ords, got) // the engine's read path, by ordinal
				for j, n := range got {
					if n < seen[j+1] {
						t.Errorf("reader %d: user %d's ordinal read %d below its UID read %d", r, j+1, n, seen[j+1])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	h.check(t, c, "after concurrent appends")
}

// TestAppendConcurrentWithReaders exercises the live-ingest path under the
// race detector: one writer appending replies to one root while readers
// walk the root's reactions and read its φ and the post counts.
func TestAppendConcurrentWithReaders(t *testing.T) {
	posts := []*Post{mkPost(1, 1, NoPost, 0)}
	for sid := PostID(2); sid <= 64; sid++ {
		posts = append(posts, mkPost(sid, UserID(sid%8+1), 1, 1))
	}
	c := newCorpusT(t, posts)

	const appends = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			sid := PostID(1000 + i)
			if err := c.Append(mkPost(sid, UserID(i%8+1), 1, 1)); err != nil {
				t.Errorf("append %d: %v", sid, err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []PostID
			last := 0.0
			for i := 0; i < appends; i++ {
				if buf = c.Reactions(buf[:0], 1); len(buf) < 63 {
					t.Errorf("reader %d: thread shrank to %d reactions", r, len(buf))
					return
				}
				if phi := c.Phi(1, 0.1); phi < last {
					t.Errorf("reader %d: φ of the root fell from %v to %v", r, last, phi)
					return
				} else {
					last = phi
				}
				c.Phi(PostID(i%63+2), 0.1)
				c.PostCountOfUser(UserID(i%8 + 1))
			}
		}(r)
	}
	wg.Wait()
	if c.Len() != 64+appends {
		t.Errorf("Len = %d, want %d", c.Len(), 64+appends)
	}
}

// BenchmarkPostCounts times one ranked query's |P_u| batch, by user
// ordinal, against a 25k-user, 250k-post table, at the mean distinct-user
// counts of the end-to-end benchmark's city-sum and wide-max queries (800
// and 2760 at seed 1, bench scale).
func BenchmarkPostCounts(b *testing.B) {
	const users, posts = 25_000, 250_000
	rng := rand.New(rand.NewSource(1))
	batch := make([]*Post, posts)
	for i := range batch {
		batch[i] = mkPost(PostID(i+1), UserID(rng.Intn(users)+1), NoPost, 0)
	}
	c := newCorpusT(b, batch)
	for _, leg := range []struct {
		name  string
		batch int
	}{{"city-sum", 800}, {"wide-max", 2760}} {
		b.Run(leg.name, func(b *testing.B) {
			ords := make([]uint32, leg.batch)
			for i := range ords {
				ords[i], _ = userOrdinal(c, UserID(rng.Intn(users)+1))
			}
			out := make([]int, len(ords))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.UserPosts(ords, out)
			}
		})
	}
}
