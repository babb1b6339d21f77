package metadb

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/social"
)

// countHistory feeds a DB posts and keeps the brute-force |P_u| beside it.
type countHistory struct {
	want    map[social.UserID]int
	nextSID social.PostID
	nextUID social.UserID // a user no post has named yet
	sids    []social.PostID
	owners  []social.UserID
}

// post makes the next post of uid in SID order, a reply to a random earlier
// post one time in three.
func (h *countHistory) post(rng *rand.Rand, uid social.UserID) *social.Post {
	h.nextSID++
	var p *social.Post
	if len(h.sids) > 0 && rng.Intn(3) == 0 {
		parent := rng.Intn(len(h.sids))
		p = mkPost(h.nextSID, uid, h.sids[parent], h.owners[parent])
	} else {
		p = mkPost(h.nextSID, uid, social.NoPost, 0)
	}
	h.want[uid]++
	h.sids = append(h.sids, p.SID)
	h.owners = append(h.owners, uid)
	if uid >= h.nextUID {
		h.nextUID = uid + 1
	}
	return p
}

// author picks an existing user, or a new one one time in four.
func (h *countHistory) author(rng *rand.Rand) social.UserID {
	if len(h.owners) == 0 || rng.Intn(4) == 0 {
		return h.nextUID
	}
	return h.owners[rng.Intn(len(h.owners))]
}

// check compares both read paths with the brute-force counts: every known
// user, the unknown uid 0 and a never-seen uid, a batch holding each of
// them and repeats, and the empty batch.
func (h *countHistory) check(t *testing.T, db *DB, at string) {
	t.Helper()
	var uids []social.UserID
	for uid, n := range h.want {
		if got := db.PostCountOfUser(uid); got != n {
			t.Fatalf("%s: PostCountOfUser(%d) = %d, want %d", at, uid, got, n)
		}
		uids = append(uids, uid)
	}
	slices.Sort(uids)
	for _, uid := range []social.UserID{0, h.nextUID + 7} {
		if got := db.PostCountOfUser(uid); got != 0 {
			t.Fatalf("%s: PostCountOfUser(%d) of an unknown user = %d, want 0", at, uid, got)
		}
	}
	batch := append([]social.UserID{0}, uids...)
	batch = append(batch, h.nextUID+7)
	batch = append(batch, uids[:len(uids)/2]...) // repeats
	got := make([]int, len(batch))
	db.PostCounts(batch, got)
	for i, uid := range batch {
		if got[i] != h.want[uid] {
			t.Fatalf("%s: PostCounts[%d] (uid %d) = %d, want %d", at, i, uid, got[i], h.want[uid])
		}
	}
	db.PostCounts(nil, nil)
}

// TestPostCountsMatchRows is the post-count column's property test: across
// a batch Load, live Appends by new and existing users, and a rebuild from
// the rows (FromRows, as a snapshot's Load does) in the middle, both read
// paths equal a brute-force count over the posts fed in.
func TestPostCountsMatchRows(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := &countHistory{want: map[social.UserID]int{}, nextUID: 1}
			var posts []*social.Post
			for i := 0; i < 200+rng.Intn(300); i++ {
				posts = append(posts, h.post(rng, social.UserID(rng.Intn(30)+1)))
			}
			for i := 0; i < 5; i++ { // users with exactly one post
				posts = append(posts, h.post(rng, h.nextUID))
			}
			rng.Shuffle(len(posts), func(i, j int) { posts[i], posts[j] = posts[j], posts[i] })
			opts := Options{RowsPerPage: rng.Intn(60) + 4, IndexOrder: rng.Intn(12) + 3}
			db := buildDB(t, posts, opts)
			h.check(t, db, "after Load")

			appendSome := func(db *DB, n int, phase string) {
				for i := 0; i < n; i++ {
					if err := db.Append(h.post(rng, h.author(rng))); err != nil {
						t.Fatal(err)
					}
					if i%25 == 0 {
						h.check(t, db, fmt.Sprintf("%s, append %d", phase, i))
					}
				}
				h.check(t, db, phase)
			}
			appendSome(db, 100, "first appends")

			var rows []Row
			db.Scan(func(r Row) bool { rows = append(rows, r); return true })
			loaded, err := FromRows(opts, rows)
			if err != nil {
				t.Fatal(err)
			}
			h.check(t, loaded, "after FromRows")
			appendSome(loaded, 100, "appends after FromRows")
		})
	}
}

// TestPostCountsConcurrentAppend runs the column's writer and readers
// together (the -race leg): one goroutine appends posts by existing and new
// users while readers batch-read the counts. No reader may see a count go
// down, and the final counts are exact.
func TestPostCountsConcurrentAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := &countHistory{want: map[social.UserID]int{}, nextUID: 1}
	var posts []*social.Post
	for i := 0; i < 64; i++ {
		posts = append(posts, h.post(rng, social.UserID(i%8+1)))
	}
	db := buildDB(t, posts, DefaultOptions())

	const appends = 400
	appended := make([]*social.Post, appends)
	for i := range appended {
		uid := social.UserID(i%8 + 1)
		if i%5 == 0 {
			uid = h.nextUID // a user the readers see appear
		}
		appended[i] = h.post(rng, uid)
	}
	uids := make([]social.UserID, 0, h.nextUID)
	for uid := social.UserID(0); uid < h.nextUID; uid++ {
		uids = append(uids, uid)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range appended {
			if err := db.Append(p); err != nil {
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
			got := make([]int, len(uids))
			for i := 0; i < appends; i++ {
				db.PostCounts(uids, got)
				for j, n := range got {
					if n < seen[j] {
						t.Errorf("reader %d: user %d's count fell from %d to %d", r, uids[j], seen[j], n)
						return
					}
					seen[j] = n
				}
			}
		}(r)
	}
	wg.Wait()
	h.check(t, db, "after concurrent appends")
}

// BenchmarkPostCounts times one ranked query's |P_u| batch against a
// 25k-user, 250k-post column, at the mean distinct-user counts of the
// end-to-end benchmark's city-sum and wide-max queries (800 and 2760 at
// seed 1, bench scale).
func BenchmarkPostCounts(b *testing.B) {
	const users, posts = 25_000, 250_000
	rng := rand.New(rand.NewSource(1))
	db := New(DefaultOptions())
	for sid := 1; sid <= posts; sid++ {
		if err := db.Insert(mkPost(social.PostID(sid), social.UserID(rng.Intn(users)+1), social.NoPost, 0)); err != nil {
			b.Fatal(err)
		}
	}
	db.Freeze()
	for _, leg := range []struct {
		name  string
		batch int
	}{{"city-sum", 800}, {"wide-max", 2760}} {
		b.Run(leg.name, func(b *testing.B) {
			uids := make([]social.UserID, leg.batch)
			for i := range uids {
				uids[i] = social.UserID(rng.Intn(users) + 1)
			}
			out := make([]int, len(uids))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.PostCounts(uids, out)
			}
		})
	}
}
