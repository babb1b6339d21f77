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
	if err := db.SaveRows(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRows(DefaultOptions(), &buf)
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
	// User post lists rebuilt.
	if loaded.PostCountOfUser(2) != db.PostCountOfUser(2) {
		t.Error("user post lists differ after load")
	}
}

func TestLoadRowsRejectsCorruption(t *testing.T) {
	db := buildDB(t, []*social.Post{mkPost(1, 1, 0, 0), mkPost(2, 2, 0, 0)}, DefaultOptions())
	var buf bytes.Buffer
	if err := db.SaveRows(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := LoadRows(DefaultOptions(), bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage accepted")
	}
	for _, cut := range []int{3, 10, len(full) - 5} {
		if _, err := LoadRows(DefaultOptions(), bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Out-of-order rows (forge: swap the two 48-byte records).
	swapped := append([]byte{}, full...)
	recStart := len(rowsMagic) + 8
	copy(swapped[recStart:recStart+48], full[recStart+48:recStart+96])
	copy(swapped[recStart+48:recStart+96], full[recStart:recStart+48])
	if _, err := LoadRows(DefaultOptions(), bytes.NewReader(swapped)); err == nil {
		t.Error("unsorted rows accepted")
	}
}
