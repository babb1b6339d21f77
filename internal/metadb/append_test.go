package metadb

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/social"
)

func TestAppendVisibleToReaders(t *testing.T) {
	opts := DefaultOptions()
	opts.RowsPerPage = 4
	posts := []*social.Post{
		mkPost(1, 1, social.NoPost, 0),
		mkPost(2, 2, 1, 1),
		mkPost(3, 3, social.NoPost, 0),
	}
	db := buildDB(t, posts, opts)

	if err := db.Append(mkPost(10, 4, 1, 1)); err != nil {
		t.Fatal(err)
	}
	row, ok := db.GetBySID(10)
	if !ok || row.UID != 4 {
		t.Fatalf("GetBySID(10) = %+v, %v after append", row, ok)
	}
	replies := db.SelectByRSID(1)
	if len(replies) != 2 {
		t.Fatalf("SelectByRSID(1) = %d rows after append, want 2", len(replies))
	}
	if got := db.PostCountOfUser(4); got != 1 {
		t.Errorf("PostCountOfUser(4) = %d, want 1", got)
	}
	if db.Len() != 4 {
		t.Errorf("Len = %d, want 4", db.Len())
	}
	if _, max := db.SIDRange(); max != 10 {
		t.Errorf("max SID = %d, want 10", max)
	}
}

func TestAppendOrderAndFreezeRules(t *testing.T) {
	db := buildDB(t, []*social.Post{mkPost(5, 1, social.NoPost, 0)}, DefaultOptions())
	// The post's own fault is typed ErrRejected; the database's is not.
	if err := db.Append(mkPost(5, 2, social.NoPost, 0)); !errors.Is(err, ErrRejected) {
		t.Errorf("append with duplicate SID: err = %v, want ErrRejected", err)
	}
	if err := db.Append(mkPost(3, 2, social.NoPost, 0)); !errors.Is(err, ErrRejected) {
		t.Errorf("append with out-of-order SID: err = %v, want ErrRejected", err)
	}
	if err := db.Append(&social.Post{SID: 9}); !errors.Is(err, ErrRejected) {
		t.Errorf("append of a post without an author: err = %v, want ErrRejected", err)
	}
	unfrozen := New(DefaultOptions())
	if err := unfrozen.Append(mkPost(1, 1, social.NoPost, 0)); err == nil || errors.Is(err, ErrRejected) {
		t.Errorf("append before freeze: err = %v, want an untyped error", err)
	}
}

// TestAppendInvalidatesPageCache guards the copy-on-append path: a cached
// copy of the tail page must not keep serving the page without the new row.
func TestAppendInvalidatesPageCache(t *testing.T) {
	opts := DefaultOptions()
	opts.RowsPerPage = 8
	opts.CacheSize = 4
	db := buildDB(t, []*social.Post{
		mkPost(1, 1, social.NoPost, 0),
		mkPost(2, 2, social.NoPost, 0),
	}, opts)
	// Populate the cache with the tail page, then grow it.
	if _, ok := db.GetBySID(2); !ok {
		t.Fatal("seed row missing")
	}
	if err := db.Append(mkPost(3, 3, social.NoPost, 0)); err != nil {
		t.Fatal(err)
	}
	if row, ok := db.GetBySID(3); !ok || row.UID != 3 {
		t.Fatalf("appended row not visible through cached page: %+v, %v", row, ok)
	}
}

// TestAppendConcurrentWithReaders exercises the live-ingest path under the
// race detector: one writer appending reply rows while readers walk the
// same thread root and user postings.
func TestAppendConcurrentWithReaders(t *testing.T) {
	posts := []*social.Post{mkPost(1, 1, social.NoPost, 0)}
	for sid := social.PostID(2); sid <= 64; sid++ {
		posts = append(posts, mkPost(sid, social.UserID(sid%8+1), 1, 1))
	}
	db := buildDB(t, posts, DefaultOptions())

	const appends = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			sid := social.PostID(1000 + i)
			if err := db.Append(mkPost(sid, social.UserID(i%8+1), 1, 1)); err != nil {
				t.Errorf("append %d: %v", sid, err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				if rows := db.SelectByRSID(1); len(rows) < 63 {
					t.Errorf("reader %d: thread shrank to %d rows", r, len(rows))
					return
				}
				db.GetBySID(social.PostID(i%64 + 1))
				db.PostCountOfUser(social.UserID(i%8 + 1))
			}
		}(r)
	}
	wg.Wait()
	if db.Len() != 64+appends {
		t.Errorf("Len = %d, want %d", db.Len(), 64+appends)
	}
}
