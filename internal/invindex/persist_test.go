package invindex

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dfs"
	"repro/internal/geo"
)

func TestForwardIndexRoundTrip(t *testing.T) {
	idx, _, fsys := build(t, corpus(), 4)
	var buf bytes.Buffer
	if err := idx.SaveForward(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(fsys, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.GeohashLen() != 4 || loaded.NumKeys() != idx.NumKeys() {
		t.Fatalf("loaded geohashLen=%d keys=%d", loaded.GeohashLen(), loaded.NumKeys())
	}
	// Every key fetches identically through the loaded index.
	for _, k := range idx.Keys() {
		a, err := idx.FetchPostings(k.Geohash, k.Term)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.FetchPostings(k.Geohash, k.Term)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("key %v: %d vs %d postings", k, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("key %v posting %d differs", k, i)
			}
		}
	}
}

func TestLoadIndexRejectsCorruption(t *testing.T) {
	idx, _, fsys := build(t, corpus(), 4)
	var buf bytes.Buffer
	if err := idx.SaveForward(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Bad magic.
	bad := append([]byte("XXXXXX"), full[6:]...)
	if _, err := LoadIndex(fsys, bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Another format version: typed, so a snapshot loader can tell "not
	// ours" from "damaged".
	older := append([]byte("TKFWD1"), full[6:]...)
	if _, err := LoadIndex(fsys, bytes.NewReader(older)); !errors.Is(err, ErrFormatVersion) {
		t.Errorf("version-1 magic: err = %v, want ErrFormatVersion", err)
	}
	// An entry whose blocked bit is clear (the stream's last byte is the
	// last entry's flags): the flat layout is not readable.
	flat := append([]byte(nil), full...)
	flat[len(flat)-1] = 0
	if _, err := LoadIndex(fsys, bytes.NewReader(flat)); err == nil || errors.Is(err, ErrFormatVersion) {
		t.Errorf("entry without the blocked bit: err = %v, want a corruption error", err)
	}
	// Truncations at various points.
	for _, cut := range []int{0, 3, 7, len(full) / 2, len(full) - 1} {
		if _, err := LoadIndex(fsys, bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Forward index referencing files missing from the DFS.
	emptyFS := dfs.New(dfs.DefaultOptions())
	if _, err := LoadIndex(emptyFS, bytes.NewReader(full)); err == nil {
		t.Error("dangling postings file accepted")
	}
}

func TestLoadedIndexServesCover(t *testing.T) {
	// End-to-end check through a realistic access pattern: a circle cover
	// fetch against the loaded index equals the original.
	idx, _, fsys := build(t, corpus(), 4)
	var buf bytes.Buffer
	if err := idx.SaveForward(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(fsys, &buf)
	if err != nil {
		t.Fatal(err)
	}
	center := geo.Point{Lat: 43.68, Lon: -79.37}
	for _, cell := range geo.CircleCover(center, 10, 4) {
		a, _ := idx.FetchPostings(cell, "hotel")
		b, _ := loaded.FetchPostings(cell, "hotel")
		if len(a) != len(b) {
			t.Fatalf("cell %s: %d vs %d", cell, len(a), len(b))
		}
	}
}
