package metadb

import (
	"math/rand"
	"testing"

	"repro/internal/social"
)

// assertSnapshotMatchesIndex checks that for every post, the CSR snapshot
// yields the same children (SID and UID, in the same order) as the rsid
// B⁺-tree path.
func assertSnapshotMatchesIndex(t *testing.T, db *DB, snap *ReplySnapshot, sids []social.PostID) {
	t.Helper()
	for _, sid := range sids {
		want := db.SelectByRSID(sid)
		got := snap.Children(sid)
		if len(got) != len(want) {
			t.Fatalf("parent %d: snapshot has %d children, index has %d", sid, len(got), len(want))
		}
		for i := range want {
			if got[i].SID != want[i].SID || got[i].UID != want[i].UID {
				t.Fatalf("parent %d child %d: snapshot %+v, index %+v", sid, i, got[i], want[i])
			}
		}
	}
}

func TestReplySnapshotMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	posts := replyCorpus(rng, 3000)
	db := buildDB(t, posts, Options{RowsPerPage: 32, IndexOrder: 8})
	snap := db.EnableReplySnapshot()
	if snap == nil || db.ReplySnapshot() != snap {
		t.Fatal("EnableReplySnapshot did not install the snapshot")
	}
	if again := db.EnableReplySnapshot(); again != snap {
		t.Fatal("EnableReplySnapshot is not idempotent")
	}
	sids := make([]social.PostID, len(posts))
	for i, p := range posts {
		sids[i] = p.SID
	}
	assertSnapshotMatchesIndex(t, db, snap, sids)
}

func TestReplySnapshotExtendsOnAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	posts := replyCorpus(rng, 1000)
	db := buildDB(t, posts, Options{RowsPerPage: 32, IndexOrder: 8})
	snap := db.EnableReplySnapshot()

	// Append replies both to posts that already have reactions and to
	// posts with none (overlay-only parents).
	_, maxSID := db.SIDRange()
	next := maxSID
	for i := 0; i < 200; i++ {
		parent := posts[rng.Intn(len(posts))]
		next++
		if err := db.Append(mkPost(next, social.UserID(rng.Intn(50)+1), parent.SID, parent.UID)); err != nil {
			t.Fatal(err)
		}
	}
	sids := make([]social.PostID, len(posts))
	for i, p := range posts {
		sids[i] = p.SID
	}
	assertSnapshotMatchesIndex(t, db, snap, sids)
}

func TestReplySnapshotZeroIO(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	posts := replyCorpus(rng, 1000)
	db := buildDB(t, posts, Options{RowsPerPage: 32, IndexOrder: 8})
	snap := db.EnableReplySnapshot()
	db.ResetStats()
	for _, p := range posts {
		snap.Children(p.SID)
	}
	if s := db.Stats(); s.PageReads != 0 || s.IndexReads != 0 {
		t.Errorf("snapshot reads charged I/O: %+v", s)
	}
}
