package segment

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/social"
	"repro/internal/thread"
)

// validSegmentBytes builds one well-formed segment image for the
// corruption matrix and the fuzz seeds.
func validSegmentBytes(t testing.TB) []byte {
	t.Helper()
	rows, texts, keys := validSegmentParts(t)
	data, err := buildSegment(5, rows, texts, keys)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// validRowsOnlyBytes is validSegmentBytes' rows with no keys: the image
// FromPosts builds over posts without indexable words.
func validRowsOnlyBytes(t testing.TB) []byte {
	t.Helper()
	rows, texts, _ := validSegmentParts(t)
	data, err := buildSegment(0, rows, texts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// validSegmentParts is the seal input of 40 test posts, a second apart.
func validSegmentParts(t testing.TB) ([]metadb.Row, []string, []keyPostings) {
	t.Helper()
	posts := testPosts(40, time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC), time.Second)
	mt := NewMemtable(5)
	for _, p := range posts {
		if err := mt.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	rows, texts, keys, err := mt.snapshot(8)
	if err != nil {
		t.Fatal(err)
	}
	return rows, texts, keys
}

// corruptionImage is one well-formed image the corruption matrix damages,
// with the prefix of its subtest names.
type corruptionImage struct {
	prefix string
	base   []byte
}

// corruptionImages are a keyed segment as a seal writes it and a rows-only
// one.
func corruptionImages(t *testing.T) []corruptionImage {
	return []corruptionImage{{"", validSegmentBytes(t)}, {"rows-only/", validRowsOnlyBytes(t)}}
}

// TestSegmentCorruptionMatrix damages a valid segment one way per row and
// asserts the typed error class. Every case must fail cleanly — a panic
// on any mutation is the real failure mode this guards against. In the
// rows-only image nothing follows the 40 rows and their texts but the
// footer, so the postings-byte flip lands in the footer's offset table.
func TestSegmentCorruptionMatrix(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"bad magic", func(b []byte) []byte {
			b[0] ^= 0xff
			return b
		}, ErrBadMagic},
		{"wrong version", func(b []byte) []byte {
			// The version check precedes the CRC check, so a flipped
			// version reports ErrVersion, not ErrChecksum.
			binary.LittleEndian.PutUint32(b[8:12], 99)
			return b
		}, ErrVersion},
		{"truncated footer", func(b []byte) []byte {
			return b[:len(b)-7]
		}, ErrTruncated},
		{"truncated to header", func(b []byte) []byte {
			return b[:headerSize]
		}, ErrTruncated},
		{"truncated below magic", func(b []byte) []byte {
			return b[:3]
		}, ErrTruncated},
		{"flipped row byte", func(b []byte) []byte {
			b[headerSize+17] ^= 0x01
			return b
		}, ErrChecksum},
		{"flipped postings byte", func(b []byte) []byte {
			postingsOff := binary.LittleEndian.Uint64(b[len(b)-footerSize+16:])
			b[postingsOff+3] ^= 0x80
			return b
		}, ErrChecksum},
		{"flipped text byte", func(b []byte) []byte {
			textsOff := headerSize + 40*rowSize
			b[textsOff+41*textOffSize+2] ^= 0x80
			return b
		}, ErrChecksum},
		{"flipped footer offset", func(b []byte) []byte {
			off := len(b) - footerSize
			b[off] ^= 0x01
			return b
		}, ErrChecksum},
		{"zeroed tail block", func(b []byte) []byte {
			for i := len(b) - footerSize - 64; i < len(b)-footerSize; i++ {
				b[i] = 0
			}
			return b
		}, ErrChecksum},
	}
	for _, img := range corruptionImages(t) {
		for _, tc := range cases {
			t.Run(img.prefix+tc.name, func(t *testing.T) {
				b := append([]byte(nil), img.base...)
				b = tc.mutate(b)
				seg, err := OpenBytes(b)
				if err == nil {
					t.Fatalf("OpenBytes accepted %s (segment %v)", tc.name, seg)
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("OpenBytes(%s) = %v, want errors.Is %v", tc.name, err, tc.want)
				}
			})
		}
	}
}

// TestSegmentCorruptionConsistentCRC re-checksums structurally broken
// images so the CRC passes and the structural validation must catch the
// damage itself — the ErrCorrupt class.
func TestSegmentCorruptionConsistentCRC(t *testing.T) {
	restamp := func(b []byte) []byte {
		footerOff := len(b) - footerSize
		crc := crc32.Checksum(b[:footerOff+40], castagnoli)
		binary.LittleEndian.PutUint32(b[footerOff+40:], crc)
		return b
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"row count overruns postings", func(b []byte) []byte {
			n := binary.LittleEndian.Uint64(b[32:40])
			binary.LittleEndian.PutUint64(b[32:40], n+1)
			return restamp(b)
		}},
		{"row count wraps to the rows section's size", func(b []byte) []byte {
			// (n + 2⁶⁰) × 48 ≡ n × 48 mod 2⁶⁴, so the section offsets still
			// agree while the count is far beyond the image.
			n := binary.LittleEndian.Uint64(b[32:40])
			binary.LittleEndian.PutUint64(b[32:40], n+1<<60)
			return restamp(b)
		}},
		{"rows out of order", func(b []byte) []byte {
			// Swap the SIDs of the first two row records.
			a := binary.LittleEndian.Uint64(b[headerSize:])
			c := binary.LittleEndian.Uint64(b[headerSize+rowSize:])
			binary.LittleEndian.PutUint64(b[headerSize:], c)
			binary.LittleEndian.PutUint64(b[headerSize+rowSize:], a)
			return restamp(b)
		}},
		{"dir offset beyond footer", func(b []byte) []byte {
			off := len(b) - footerSize
			binary.LittleEndian.PutUint64(b[off+24:off+32], uint64(len(b)))
			return restamp(b)
		}},
		{"text offsets descend", func(b []byte) []byte {
			// Row 1's text ends before row 0's.
			at := headerSize + 40*rowSize + textOffSize
			binary.LittleEndian.PutUint32(b[at:], 1<<20)
			return restamp(b)
		}},
		{"text offsets overrun the texts", func(b []byte) []byte {
			at := headerSize + 40*rowSize + 40*textOffSize
			binary.LittleEndian.PutUint32(b[at:], binary.LittleEndian.Uint32(b[at:])+1)
			return restamp(b)
		}},
	}
	for _, img := range corruptionImages(t) {
		for _, tc := range cases {
			t.Run(img.prefix+tc.name, func(t *testing.T) {
				b := tc.mutate(append([]byte(nil), img.base...))
				if _, err := OpenBytes(b); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("OpenBytes(%s) = %v, want ErrCorrupt", tc.name, err)
				}
			})
		}
	}
}

// hostileOrdinalImage is validSegmentBytes with one payload — the "hotel"
// list of the first test location's cell — extended by a posting naming
// row ordinal len(rows), one past the last row, under a valid CRC: the only
// way such a posting arises. It returns the image, its posts and the key.
func hostileOrdinalImage(t testing.TB) ([]byte, []*social.Post, invindex.Key) {
	t.Helper()
	posts := testPosts(40, time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC), time.Second)
	rows, texts, keys := validSegmentParts(t)
	key := invindex.Key{Geohash: geo.Encode(posts[0].Loc, 5), Term: "hotel"}
	for i, kp := range keys {
		if kp.key != key {
			continue
		}
		ps, err := invindex.DecodeBlockedPostingsList(kp.payload)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, invindex.Posting{TID: social.PostID(len(rows)), TF: 1})
		if keys[i].payload, err = invindex.EncodeBlockedPostingsList(ps, 8); err != nil {
			t.Fatal(err)
		}
		data, err := buildSegment(5, rows, texts, keys)
		if err != nil {
			t.Fatal(err)
		}
		return data, posts, key
	}
	t.Fatalf("fixture has no key %v", key)
	return nil, nil, key
}

// TestSegmentCorruptionHostileOrdinal: a posting naming a row the segment
// does not hold passes the open — nothing is checked per posting there —
// and is ErrCorrupt where it is read: FetchPostings and compaction refuse
// the list, and a search over the segment returns an error instead of
// indexing past the records.
func TestSegmentCorruptionHostileOrdinal(t *testing.T) {
	data, posts, key := hostileOrdinalImage(t)
	seg, err := OpenBytes(data)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	if _, err := seg.FetchPostings(key.Geohash, key.Term); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("FetchPostings over an ordinal past the rows: err = %v, want ErrCorrupt", err)
	}
	if _, _, _, err := mergeSegments([]*Segment{seg}, 8); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("compaction over an ordinal past the rows: err = %v, want ErrCorrupt", err)
	}

	db, err := metadb.Load(metadb.DefaultOptions(), posts)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	eng, err := core.NewPartitionedEngine([]core.Partition{{Source: seg, Rows: seg}}, db,
		thread.ComputeBounds(posts, opts.Params.ThreadDepth), opts)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{Loc: posts[0].Loc, RadiusKm: 5, Keywords: []string{"hotel"}, K: 3}
	if res, _, err := eng.Search(context.Background(), q); err == nil {
		t.Fatalf("search over an ordinal past the rows answered %v", res)
	}
}

// TestOpenRefusesTKSEG1: an image of the first segment format, whose
// postings held tweet IDs, is ErrVersion — not ErrBadMagic, and never read
// as ordinals. testdata/tkseg1.tkseg is validSegmentBytes as the TKSEG1
// writer produced it.
func TestOpenRefusesTKSEG1(t *testing.T) {
	refusesOlderFormat(t, "tkseg1.tkseg", "TKSEG1\x00\x00")
}

// TestOpenRefusesTKSEG2: an image of the second format, which stored no
// texts, is ErrVersion. testdata/tkseg2.tkseg is validSegmentBytes as the
// TKSEG2 writer produced it.
func TestOpenRefusesTKSEG2(t *testing.T) {
	refusesOlderFormat(t, "tkseg2.tkseg", "TKSEG2\x00\x00")
}

// refusesOlderFormat requires the testdata image name, which opens with
// magic, to be ErrVersion from memory and from a file.
func refusesOlderFormat(t *testing.T, name, magic string) {
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:8]) != magic {
		t.Fatalf("fixture opens with %q", b[:8])
	}
	if _, err := OpenBytes(b); !errors.Is(err, ErrVersion) {
		t.Fatalf("OpenBytes(%s) = %v, want ErrVersion", name, err)
	}
	path := filepath.Join(t.TempDir(), segFileName(1))
	if err := writeTestFile(path, b); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("Open(%s) = %v, want ErrVersion", name, err)
	}
}

// FuzzOpenSegmentBytes is the hostile-input harness: whatever the bytes,
// OpenBytes must return a typed error or a segment that serves its
// directory, its rows and their texts without panicking: every key's
// FetchPostings errors or returns tweet IDs that ResolveRows all finds, and
// its records agree with its rows (checkColumnsMatchRecords). The first
// seed is a TKSEG3 image whose rows carry texts.
func FuzzOpenSegmentBytes(f *testing.F) {
	valid := validSegmentBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:headerSize+3])
	f.Add([]byte("TKSEG1\x00\x00"))
	f.Add([]byte("TKSEG2\x00\x00"))
	f.Add([]byte{})
	short := append([]byte(nil), valid[:headerSize+footerSize]...)
	f.Add(short)
	f.Add(validRowsOnlyBytes(f))
	hostile, _, _ := hostileOrdinalImage(f)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, b []byte) {
		seg, err := OpenBytes(b)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// A segment that opened must serve every key and row.
		for _, k := range seg.Keys() {
			ps, err := seg.FetchPostings(k.Geohash, k.Term)
			if err != nil {
				continue
			}
			sids := make([]social.PostID, len(ps))
			for i, p := range ps {
				sids[i] = p.TID
			}
			if miss := seg.ResolveRows(sids, make([]metadb.RowMeta, len(sids))); miss >= 0 {
				t.Fatalf("FetchPostings(%v) returned tweet %d, which ResolveRows does not find", k, sids[miss])
			}
		}
		checkColumnsMatchRecords(t, seg)
		for i := 0; i < seg.NumRows(); i++ {
			_ = seg.Text(i)
		}
	})
}

// checkColumnsMatchRecords requires the row columns an open derived to agree
// with the records RowAt decodes: a batch of every row's SID resolves each to
// its record's (lat, lon, uid), bit for bit, and a SID strictly between two
// rows is reported as the miss at its index, after the row before it
// resolved.
func checkColumnsMatchRecords(t *testing.T, seg *Segment) {
	t.Helper()
	same := func(got metadb.RowMeta, r metadb.Row) bool {
		return got.UID == r.UID &&
			math.Float64bits(got.Lat) == math.Float64bits(r.Lat) &&
			math.Float64bits(got.Lon) == math.Float64bits(r.Lon)
	}
	sids := make([]social.PostID, seg.NumRows())
	for i := range sids {
		sids[i] = seg.RowAt(i).SID
	}
	out := make([]metadb.RowMeta, len(sids))
	if miss := seg.ResolveRows(sids, out); miss != -1 {
		t.Fatalf("ResolveRows over the %d rows' own SIDs reports a miss at %d", len(sids), miss)
	}
	for i, got := range out {
		if r := seg.RowAt(i); !same(got, r) {
			t.Fatalf("row %d: resolved %+v, record %+v", i, got, r)
		}
	}
	var pair [2]metadb.RowMeta
	for i := 0; i+1 < len(sids); i++ {
		if sids[i]+1 == sids[i+1] {
			continue // no SID between these two rows
		}
		between := []social.PostID{sids[i], sids[i] + 1}
		if miss := seg.ResolveRows(between, pair[:]); miss != 1 || !same(pair[0], seg.RowAt(i)) {
			t.Fatalf("SIDs %v (row %d, then a gap): miss %d, resolved %+v; want miss 1 after %+v",
				between, i, miss, pair[0], seg.RowAt(i))
		}
	}
}
