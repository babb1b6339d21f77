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

// assertRowMetaMatchesRows checks that the row-meta snapshot yields the
// same location and author as the row store for every SID, and reports
// absence identically.
func assertRowMetaMatchesRows(t *testing.T, db *DB, snap *RowMetaSnapshot, sids []social.PostID) {
	t.Helper()
	for _, sid := range sids {
		row, rowOK := db.GetBySID(sid)
		m, metaOK := snap.Get(sid)
		if rowOK != metaOK {
			t.Fatalf("SID %d: row ok=%v, snapshot ok=%v", sid, rowOK, metaOK)
		}
		if !rowOK {
			continue
		}
		if m.Lat != row.Lat || m.Lon != row.Lon || m.UID != row.UID {
			t.Fatalf("SID %d: snapshot %+v, row %+v", sid, m, row)
		}
	}
}

func TestRowMetaSnapshotMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	posts := replyCorpus(rng, 3000)
	db := buildDB(t, posts, Options{RowsPerPage: 32, IndexOrder: 8})
	snap := db.EnableRowMetaSnapshot()
	if snap == nil || db.RowMetaSnapshot() != snap {
		t.Fatal("EnableRowMetaSnapshot did not install the snapshot")
	}
	if again := db.EnableRowMetaSnapshot(); again != snap {
		t.Fatal("EnableRowMetaSnapshot is not idempotent")
	}
	if snap.Len() != len(posts) {
		t.Fatalf("snapshot Len = %d, want %d", snap.Len(), len(posts))
	}
	sids := make([]social.PostID, 0, len(posts)+10)
	for _, p := range posts {
		sids = append(sids, p.SID)
	}
	sids = append(sids, 900001, 900002) // absent
	assertRowMetaMatchesRows(t, db, snap, sids)
}

// rowMetaByScan is a RowMetaSource that answers from the row store itself,
// standing in for the segment store (which indexes every appended post).
type rowMetaByScan struct{ db *DB }

func (s rowMetaByScan) LookupRowMeta(sid social.PostID) (RowMeta, bool) {
	row, ok := s.db.GetBySID(sid)
	return RowMeta{Lat: row.Lat, Lon: row.Lon, UID: row.UID}, ok
}

// TestRowMetaSnapshotExtendsOnAppend: appended posts resolve through the
// overlay on a heap snapshot, and through the base source — with the
// overlay left empty — once one is attached.
func TestRowMetaSnapshotExtendsOnAppend(t *testing.T) {
	for _, withBase := range []bool{false, true} {
		rng := rand.New(rand.NewSource(22))
		posts := replyCorpus(rng, 1000)
		db := buildDB(t, posts, Options{RowsPerPage: 32, IndexOrder: 8})
		snap := db.EnableRowMetaSnapshot()
		if withBase {
			db.EnableRowMetaSnapshotFrom(rowMetaByScan{db})
		}
		_, maxSID := db.SIDRange()
		next := maxSID
		appended := make([]social.PostID, 0, 150)
		for i := 0; i < 150; i++ {
			parent := posts[rng.Intn(len(posts))]
			next++
			if err := db.Append(mkPost(next, social.UserID(rng.Intn(50)+1), parent.SID, parent.UID)); err != nil {
				t.Fatal(err)
			}
			appended = append(appended, next)
		}
		assertRowMetaMatchesRows(t, db, snap, append(appended, next+1)) // next+1 is absent
		wantOverlay := len(appended)
		if withBase {
			wantOverlay = 0
		}
		if len(snap.overlay) != wantOverlay {
			t.Fatalf("withBase=%v: overlay holds %d entries after %d appends, want %d",
				withBase, len(snap.overlay), len(appended), wantOverlay)
		}
	}
}

func TestRowMetaSnapshotZeroIO(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	posts := replyCorpus(rng, 1000)
	db := buildDB(t, posts, Options{RowsPerPage: 32, IndexOrder: 8})
	snap := db.EnableRowMetaSnapshot()
	db.ResetStats()
	for _, p := range posts {
		snap.Get(p.SID)
	}
	if s := db.Stats(); s.PageReads != 0 || s.IndexReads != 0 {
		t.Errorf("snapshot reads charged I/O: %+v", s)
	}
}
