package metadb

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/social"
)

func mkPost(sid social.PostID, uid social.UserID, rsid social.PostID, ruid social.UserID) *social.Post {
	kind := social.None
	if rsid != social.NoPost {
		kind = social.Reply
	}
	return &social.Post{
		SID: sid, UID: uid, Time: time.Unix(int64(sid), 0),
		Loc:  geo.Point{Lat: 43.7 + float64(sid%1000)*1e-4, Lon: -79.4},
		Kind: kind, RUID: ruid, RSID: rsid,
	}
}

func buildDB(t *testing.T, posts []*social.Post, opts Options) *DB {
	t.Helper()
	db, err := Load(opts, posts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestGetBySID(t *testing.T) {
	posts := []*social.Post{
		mkPost(10, 1, 0, 0), mkPost(20, 2, 10, 1), mkPost(30, 1, 0, 0),
	}
	db := buildDB(t, posts, DefaultOptions())
	r, ok := db.GetBySID(20)
	if !ok || r.UID != 2 || r.RSID != 10 || r.RUID != 1 {
		t.Fatalf("GetBySID(20) = %+v ok=%v", r, ok)
	}
	if _, ok := db.GetBySID(999); ok {
		t.Error("absent SID found")
	}
}

func TestSelectByRSID(t *testing.T) {
	// Post 1 receives three reactions, post 2 none.
	posts := []*social.Post{
		mkPost(1, 1, 0, 0), mkPost(2, 2, 0, 0),
		mkPost(3, 3, 1, 1), mkPost(4, 4, 1, 1), mkPost(5, 5, 1, 1),
	}
	db := buildDB(t, posts, DefaultOptions())
	got := db.SelectByRSID(1)
	if len(got) != 3 {
		t.Fatalf("SelectByRSID(1) returned %d rows, want 3", len(got))
	}
	for _, r := range got {
		if r.RSID != 1 {
			t.Errorf("row %+v has wrong RSID", r)
		}
	}
	if rows := db.SelectByRSID(2); rows != nil {
		t.Errorf("SelectByRSID(2) = %v, want nil", rows)
	}
}

func TestUserPosts(t *testing.T) {
	posts := []*social.Post{
		mkPost(5, 1, 0, 0), mkPost(1, 1, 0, 0), mkPost(3, 2, 0, 0),
	}
	db := buildDB(t, posts, DefaultOptions())
	if db.PostCountOfUser(1) != 2 || db.PostCountOfUser(2) != 1 || db.PostCountOfUser(42) != 0 {
		t.Error("PostCountOfUser wrong")
	}
	if got := db.PostCountOfUserBatch([]social.UserID{42, 1, 2, 1}); !slices.Equal(got, []int{0, 2, 1, 2}) {
		t.Errorf("PostCountOfUserBatch = %v, want [0 2 1 2]", got)
	}
}

func TestLoadRejectsInvalidPost(t *testing.T) {
	bad := &social.Post{SID: 0, UID: 1, Loc: geo.Point{}}
	if _, err := Load(DefaultOptions(), []*social.Post{bad}); err == nil {
		t.Error("invalid post accepted")
	}
}

func TestInsertAfterFreezeFails(t *testing.T) {
	db := New(DefaultOptions())
	db.Freeze()
	if err := db.Insert(mkPost(1, 1, 0, 0)); err == nil {
		t.Error("insert after freeze should fail")
	}
}

func TestQueryBeforeFreezePanics(t *testing.T) {
	db := New(DefaultOptions())
	defer func() {
		if recover() == nil {
			t.Error("query before Freeze should panic")
		}
	}()
	db.GetBySID(1)
}

func TestDuplicateSIDPanicsAtFreeze(t *testing.T) {
	db := New(DefaultOptions())
	_ = db.Insert(mkPost(7, 1, 0, 0))
	_ = db.Insert(mkPost(7, 2, 0, 0))
	defer func() {
		if recover() == nil {
			t.Error("duplicate SID should panic at Freeze")
		}
	}()
	db.Freeze()
}

func TestScanVisitsAllRowsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var posts []*social.Post
	for i := 0; i < 1000; i++ {
		posts = append(posts, mkPost(social.PostID(rng.Int63n(1<<40)+1), 1, 0, 0))
	}
	// Deduplicate SIDs the cheap way for the test.
	seen := map[social.PostID]bool{}
	var unique []*social.Post
	for _, p := range posts {
		if !seen[p.SID] {
			seen[p.SID] = true
			unique = append(unique, p)
		}
	}
	db := buildDB(t, unique, Options{RowsPerPage: 16, IndexOrder: 8})
	var prev social.PostID
	count := 0
	db.Scan(func(r Row) bool {
		if r.SID <= prev {
			t.Fatalf("scan out of order: %d after %d", r.SID, prev)
		}
		prev = r.SID
		count++
		return true
	})
	if count != len(unique) {
		t.Errorf("scan visited %d rows, want %d", count, len(unique))
	}
	min, max := db.SIDRange()
	if min <= 0 || max < min {
		t.Errorf("SIDRange = %d..%d", min, max)
	}
}

func TestIOAccountingAndCache(t *testing.T) {
	var posts []*social.Post
	for i := 1; i <= 512; i++ {
		posts = append(posts, mkPost(social.PostID(i), 1, 0, 0))
	}
	// Cache off: repeated reads of the same row cost one page read each.
	db := buildDB(t, posts, Options{RowsPerPage: 64, IndexOrder: 8})
	db.ResetStats()
	for i := 0; i < 10; i++ {
		db.GetBySID(100)
	}
	if s := db.Stats(); s.PageReads != 10 || s.CacheHits != 0 {
		t.Errorf("cache-off stats = %+v, want 10 reads, 0 hits", s)
	}

	// Cache on: the second and later reads hit the cache.
	cached, err := Load(Options{RowsPerPage: 64, IndexOrder: 8, CacheSize: 4}, posts)
	if err != nil {
		t.Fatal(err)
	}
	cached.ResetStats()
	for i := 0; i < 10; i++ {
		cached.GetBySID(100)
	}
	if s := cached.Stats(); s.PageReads != 1 || s.CacheHits != 9 {
		t.Errorf("cache-on stats = %+v, want 1 read, 9 hits", s)
	}
	if s := cached.Stats(); s.IndexReads == 0 {
		t.Error("index reads not counted")
	}
}

func TestPageCacheEviction(t *testing.T) {
	c := newPageCache(2)
	c.put(1, nil)
	c.put(2, nil)
	c.put(3, nil) // evicts 1
	if _, ok := c.get(1); ok {
		t.Error("page 1 should have been evicted")
	}
	if _, ok := c.get(2); !ok {
		t.Error("page 2 should be cached")
	}
	// Touch 2, add 4: 3 is evicted, not 2.
	c.put(4, nil)
	if _, ok := c.get(3); ok {
		t.Error("page 3 should have been evicted after touching 2")
	}
	if c.len() != 2 {
		t.Errorf("cache len = %d, want 2", c.len())
	}
}
