package metadb

import (
	"bytes"
	"testing"

	"repro/internal/social"
)

func TestSaveLoadRowsRoundTrip(t *testing.T) {
	posts := []*social.Post{
		mkPost(10, 1, 0, 0), mkPost(20, 2, 10, 1), mkPost(30, 1, 0, 0),
		mkPost(40, 3, 10, 1), mkPost(50, 2, 20, 2),
	}
	db := buildDB(t, posts, Options{RowsPerPage: 2, IndexOrder: 4})
	var buf bytes.Buffer
	if err := db.SaveRows(&buf, 0); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRows(DefaultOptions(), nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("Len %d vs %d", loaded.Len(), db.Len())
	}
	for _, p := range posts {
		a, okA := db.GetBySID(p.SID)
		b, okB := loaded.GetBySID(p.SID)
		if okA != okB || a != b {
			t.Fatalf("row %d differs: %+v vs %+v", p.SID, a, b)
		}
	}
	// Secondary index rebuilt identically.
	if len(loaded.SelectByRSID(10)) != len(db.SelectByRSID(10)) {
		t.Error("rsid index differs after load")
	}
	// Post-count column rebuilt.
	if loaded.PostCountOfUser(2) != db.PostCountOfUser(2) {
		t.Error("post counts differ after load")
	}
}

// TestSaveRowsAfterSplitsTheRelation: SaveRows past a SID writes only the
// rows beyond it, and LoadRows over the rows up to it plus that stream
// rebuilds the whole relation; a stream row at or below the base's last SID
// is refused.
func TestSaveRowsAfterSplitsTheRelation(t *testing.T) {
	posts := []*social.Post{mkPost(10, 1, 0, 0), mkPost(20, 2, 10, 1), mkPost(30, 1, 0, 0), mkPost(40, 3, 30, 1)}
	db := buildDB(t, posts, Options{RowsPerPage: 3, IndexOrder: 4})
	var base []Row
	db.Scan(func(r Row) bool {
		if r.SID <= 20 {
			base = append(base, r)
		}
		return true
	})
	var buf bytes.Buffer
	if err := db.SaveRows(&buf, 20); err != nil {
		t.Fatal(err)
	}
	if want := len(rowsMagic) + 8 + 2*48; buf.Len() != want {
		t.Fatalf("stream past SID 20 is %d bytes, want %d (two rows)", buf.Len(), want)
	}
	stream := bytes.Clone(buf.Bytes())
	loaded, err := LoadRows(DefaultOptions(), base, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != len(posts) || loaded.PostCountOfUser(1) != 2 || len(loaded.SelectByRSID(30)) != 1 {
		t.Fatalf("loaded %d rows, user 1 has %d posts, post 30 has %d replies",
			loaded.Len(), loaded.PostCountOfUser(1), len(loaded.SelectByRSID(30)))
	}
	overlap := []Row{{SID: 10, UID: 1}, {SID: 30, UID: 1}}
	if _, err := LoadRows(DefaultOptions(), overlap, bytes.NewReader(stream)); err == nil {
		t.Error("a stream overlapping its base was accepted")
	}
}

func TestLoadRowsRejectsCorruption(t *testing.T) {
	db := buildDB(t, []*social.Post{mkPost(1, 1, 0, 0), mkPost(2, 2, 0, 0)}, DefaultOptions())
	var buf bytes.Buffer
	if err := db.SaveRows(&buf, 0); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := LoadRows(DefaultOptions(), nil, bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage accepted")
	}
	for _, cut := range []int{3, 10, len(full) - 5} {
		if _, err := LoadRows(DefaultOptions(), nil, bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Out-of-order rows (forge: swap the two 48-byte records).
	swapped := append([]byte{}, full...)
	recStart := len(rowsMagic) + 8
	copy(swapped[recStart:recStart+48], full[recStart+48:recStart+96])
	copy(swapped[recStart+48:recStart+96], full[recStart:recStart+48])
	if _, err := LoadRows(DefaultOptions(), nil, bytes.NewReader(swapped)); err == nil {
		t.Error("unsorted rows accepted")
	}
}
