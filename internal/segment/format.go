// Package segment implements the on-disk immutable segment format behind
// the LSM-style storage engine: ingest flows WAL → in-memory memtable →
// sealed time-bucketed segment files, and postings are read zero-copy from
// mmap'd bytes (a store without a directory keeps them on the heap). A
// segment carries 48-byte row records — every metadata row, so the sealed
// segments are the durable copy of the rows — their raw texts, and the
// blocked postings payloads the block-max traversal consumes (invindex's
// blocked layout), so the query engine's PostingsIterator runs directly
// over the mapped file — the per-block {count, minDelta, span, maxTF}
// directory doubles as the on-disk skip index, with no B⁺-tree descents and
// no simulated page IO.
// A payload's IDs are row ordinals, not tweet IDs: posting (i, tf) names
// the segment's row i. Rows are ascending by SID, so ordinal order is SID
// order, and the engine reads a posting's row by index from the packed
// records the open derives from the rows section (see records.go); the
// 48-byte rows themselves are read again only by RowAt.
//
// File layout, TKSEG3 (all integers little-endian):
//
//	header  (64 B)  magic "TKSEG3\0\0", version 3, geohash length,
//	                min/max SID (the time-bucket range), row count, key count
//	rows            rowCount × 48-byte records, ascending SID
//	texts           (rowCount+1) × uint32 offsets into the text bytes, then
//	                the bytes: row i's raw text is bytes[off[i]:off[i+1]]
//	postings        concatenated blocked postings payloads of
//	                (row ordinal, TF) pairs, ordinals ascending
//	key dir         keyCount × {uvarint keyLen, key bytes, uvarint off, uvarint len},
//	                keys ascending in ⟨geohash, NUL, term⟩ order
//	footer  (56 B)  rows/texts/postings/dir/footer offsets, CRC-32C over
//	                everything before the checksum, magic "TKSEGEND"
//
// The texts are the tweet contents Figure 3 keeps beside the index:
// /evidence and /thread read them, the query path never does.
//
// Every parse error is typed and errors.Is-able; hostile bytes never
// panic (see FuzzOpenSegmentBytes).
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/social"
)

const (
	headerSize  = 64
	footerSize  = 56
	rowSize     = 48 // one row: SID, UID, lat, lon, RUID, RSID, 8 bytes each
	textOffSize = 4  // one text offset, uint32

	formatVersion = 3
)

var (
	// magicPrefix opens every segment image, whatever its version; the
	// three bytes after it repeat the version, so an image of another
	// version is ErrVersion rather than ErrBadMagic. TKSEG1 payloads held
	// tweet IDs and TKSEG2 images no texts; no reader for either is kept.
	magicPrefix = []byte("TKSEG")
	headerMagic = []byte("TKSEG3\x00\x00")
	footerMagic = []byte("TKSEGEND")

	// castagnoli is the CRC-32C polynomial, matching the WAL's checksum
	// discipline.
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// Typed corruption errors. Open and OpenBytes never panic on hostile
// input; they return one of these (possibly wrapped with positional
// detail).
var (
	// ErrBadMagic means the file does not start with the segment magic —
	// it is not a segment file at all.
	ErrBadMagic = errors.New("segment: bad magic")
	// ErrVersion means the file is a segment of an unsupported format
	// version.
	ErrVersion = errors.New("segment: unsupported format version")
	// ErrTruncated means the file ends before its footer — a torn or
	// truncated write.
	ErrTruncated = errors.New("segment: truncated file")
	// ErrChecksum means the footer CRC-32C does not cover the bytes on
	// disk — silent corruption between seal and open.
	ErrChecksum = errors.New("segment: checksum mismatch")
	// ErrCorrupt means the checksummed structure is internally
	// inconsistent (out-of-range offsets, unsorted keys, misaligned
	// sections).
	ErrCorrupt = errors.New("segment: corrupt structure")
)

// keyPostings pairs one ⟨geohash, term⟩ key with its already-encoded
// blocked postings payload.
type keyPostings struct {
	key     invindex.Key
	payload []byte
}

// buildSegment serializes rows, their texts and postings into a complete
// TKSEG3 byte image. Rows must be in ascending SID order and non-empty;
// texts holds one entry per row, or is nil when every text is empty; keys
// must be sorted by Key.String(), and every payload's IDs must be ordinals
// of rows. The image is what Open/OpenBytes parse and what the store writes
// (tmp → fsync → rename) when sealing a memtable or merging segments.
func buildSegment(geohashLen int, rows []metadb.Row, texts []string, keys []keyPostings) ([]byte, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("segment: refusing to build an empty segment")
	}
	if texts != nil && len(texts) != len(rows) {
		return nil, fmt.Errorf("segment: %d texts for %d rows", len(texts), len(rows))
	}
	textBytes := 0
	for _, t := range texts {
		textBytes += len(t)
	}
	if textBytes > math.MaxUint32 {
		return nil, fmt.Errorf("segment: %d bytes of text overflow a segment's 32-bit text offsets", textBytes)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].SID <= rows[i-1].SID {
			return nil, fmt.Errorf("segment: rows not in ascending SID order at %d", i)
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i].key.String() <= keys[i-1].key.String() {
			return nil, fmt.Errorf("segment: keys not in ascending order at %d", i)
		}
	}

	dirSize := 0
	postingsSize := 0
	for _, kp := range keys {
		k := kp.key.String()
		dirSize += binary.MaxVarintLen64 + len(k) + 2*binary.MaxVarintLen64
		postingsSize += len(kp.payload)
	}
	buf := make([]byte, 0, headerSize+len(rows)*rowSize+(len(rows)+1)*textOffSize+textBytes+
		postingsSize+dirSize+footerSize)

	// Header.
	var hdr [headerSize]byte
	copy(hdr[0:8], headerMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], formatVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(geohashLen))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(rows[0].SID))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(rows[len(rows)-1].SID))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(len(rows)))
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(len(keys)))
	buf = append(buf, hdr[:]...)

	// Rows section: every metadb.Row field, 8 bytes each; the open derives
	// the segment's packed records from it.
	rowsOff := uint64(len(buf))
	var rec [rowSize]byte
	for _, r := range rows {
		encodeRow(rec[:], r)
		buf = append(buf, rec[:]...)
	}

	// Texts section: the offset table, then the bytes it indexes.
	textsOff := uint64(len(buf))
	off := uint32(0)
	buf = binary.LittleEndian.AppendUint32(buf, off)
	for i := range rows {
		if texts != nil {
			off += uint32(len(texts[i]))
		}
		buf = binary.LittleEndian.AppendUint32(buf, off)
	}
	for _, t := range texts {
		buf = append(buf, t...)
	}

	// Postings section: blocked payloads back to back; the key directory
	// carries the offsets.
	postingsOff := uint64(len(buf))
	offs := make([]uint64, len(keys))
	for i, kp := range keys {
		offs[i] = uint64(len(buf)) - postingsOff
		buf = append(buf, kp.payload...)
	}

	// Key directory.
	dirOff := uint64(len(buf))
	for i, kp := range keys {
		k := kp.key.String()
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, offs[i])
		buf = binary.AppendUvarint(buf, uint64(len(kp.payload)))
	}

	// Footer: offset table, checksum, closing magic.
	footerOff := uint64(len(buf))
	var ftr [footerSize]byte
	binary.LittleEndian.PutUint64(ftr[0:8], rowsOff)
	binary.LittleEndian.PutUint64(ftr[8:16], textsOff)
	binary.LittleEndian.PutUint64(ftr[16:24], postingsOff)
	binary.LittleEndian.PutUint64(ftr[24:32], dirOff)
	binary.LittleEndian.PutUint64(ftr[32:40], footerOff)
	buf = append(buf, ftr[:40]...)
	crc := crc32.Checksum(buf, castagnoli)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	buf = append(buf, 0, 0, 0, 0) // reserved
	buf = append(buf, footerMagic...)
	return buf, nil
}

// encodeRow writes one 48-byte row record, in metadb.Row's field order.
func encodeRow(dst []byte, r metadb.Row) {
	binary.LittleEndian.PutUint64(dst[0:8], uint64(r.SID))
	binary.LittleEndian.PutUint64(dst[8:16], uint64(r.UID))
	binary.LittleEndian.PutUint64(dst[16:24], math.Float64bits(r.Lat))
	binary.LittleEndian.PutUint64(dst[24:32], math.Float64bits(r.Lon))
	binary.LittleEndian.PutUint64(dst[32:40], uint64(r.RUID))
	binary.LittleEndian.PutUint64(dst[40:48], uint64(r.RSID))
}

// decodeRow inverts encodeRow.
func decodeRow(b []byte) metadb.Row {
	return metadb.Row{
		SID:  social.PostID(binary.LittleEndian.Uint64(b[0:8])),
		UID:  social.UserID(binary.LittleEndian.Uint64(b[8:16])),
		Lat:  math.Float64frombits(binary.LittleEndian.Uint64(b[16:24])),
		Lon:  math.Float64frombits(binary.LittleEndian.Uint64(b[24:32])),
		RUID: social.UserID(binary.LittleEndian.Uint64(b[32:40])),
		RSID: social.PostID(binary.LittleEndian.Uint64(b[40:48])),
	}
}

// dirEntry is one parsed key-directory entry: the key in its sortable
// string form and the payload's position inside the postings section.
type dirEntry struct {
	key string
	off uint64
	n   uint64
}

// parseSegment validates the byte image and returns a Segment serving
// reads directly over b. The checks run coarsest-first so each corruption
// class maps to its typed error: magic, version, footer presence, then
// the CRC over everything the footer claims, then structural consistency.
func parseSegment(b []byte) (*Segment, error) {
	if len(b) < len(headerMagic) {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the magic", ErrTruncated, len(b))
	}
	if string(b[:len(magicPrefix)]) != string(magicPrefix) {
		return nil, ErrBadMagic
	}
	if string(b[:len(headerMagic)]) != string(headerMagic) {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrVersion, b[:len(headerMagic)], headerMagic)
	}
	if len(b) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrTruncated, len(b))
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != formatVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, formatVersion)
	}
	if len(b) < headerSize+footerSize {
		return nil, fmt.Errorf("%w: no room for a footer", ErrTruncated)
	}
	if string(b[len(b)-len(footerMagic):]) != string(footerMagic) {
		return nil, fmt.Errorf("%w: footer magic missing", ErrTruncated)
	}
	ftr := b[len(b)-footerSize:]
	footerOff := binary.LittleEndian.Uint64(ftr[32:40])
	if footerOff != uint64(len(b)-footerSize) {
		return nil, fmt.Errorf("%w: footer offset %d does not close a %d-byte file",
			ErrTruncated, footerOff, len(b))
	}
	wantCRC := binary.LittleEndian.Uint32(ftr[40:44])
	if got := crc32.Checksum(b[:footerOff+40], castagnoli); got != wantCRC {
		return nil, fmt.Errorf("%w: crc32c %08x, footer says %08x", ErrChecksum, got, wantCRC)
	}

	// Past the checksum every length field is trusted-but-verified: a
	// consistent CRC over an inconsistent structure is still ErrCorrupt.
	geohashLen := int(binary.LittleEndian.Uint32(b[12:16]))
	minSID := social.PostID(binary.LittleEndian.Uint64(b[16:24]))
	maxSID := social.PostID(binary.LittleEndian.Uint64(b[24:32]))
	nRows := binary.LittleEndian.Uint64(b[32:40])
	nKeys := binary.LittleEndian.Uint64(b[40:48])
	rowsOff := binary.LittleEndian.Uint64(ftr[0:8])
	textsOff := binary.LittleEndian.Uint64(ftr[8:16])
	postingsOff := binary.LittleEndian.Uint64(ftr[16:24])
	dirOff := binary.LittleEndian.Uint64(ftr[24:32])
	if rowsOff != headerSize || nRows > uint64(len(b))/rowSize ||
		textsOff != rowsOff+nRows*rowSize ||
		textsOff+(nRows+1)*textOffSize > postingsOff ||
		postingsOff > dirOff || dirOff > footerOff {
		return nil, fmt.Errorf("%w: section offsets out of order", ErrCorrupt)
	}
	if nRows == 0 || minSID > maxSID {
		return nil, fmt.Errorf("%w: empty segment or inverted SID range", ErrCorrupt)
	}

	seg := &Segment{
		b:          b,
		geohashLen: geohashLen,
		minSID:     minSID,
		maxSID:     maxSID,
		rows:       b[rowsOff:textsOff],
		nRows:      int(nRows),
		textOffs:   b[textsOff : textsOff+(nRows+1)*textOffSize],
		texts:      b[textsOff+(nRows+1)*textOffSize : postingsOff],
		postings:   b[postingsOff:dirOff],
	}
	if err := seg.checkTextOffsets(); err != nil {
		return nil, err
	}
	dir := b[dirOff:footerOff]
	seg.keys = make([]dirEntry, 0, nKeys)
	for i := uint64(0); i < nKeys; i++ {
		keyLen, n := binary.Uvarint(dir)
		if n <= 0 || keyLen > uint64(len(dir)-n) {
			return nil, fmt.Errorf("%w: key directory entry %d overruns", ErrCorrupt, i)
		}
		dir = dir[n:]
		key := string(dir[:keyLen])
		dir = dir[keyLen:]
		off, n := binary.Uvarint(dir)
		if n <= 0 {
			return nil, fmt.Errorf("%w: key directory entry %d overruns", ErrCorrupt, i)
		}
		dir = dir[n:]
		plen, n := binary.Uvarint(dir)
		if n <= 0 {
			return nil, fmt.Errorf("%w: key directory entry %d overruns", ErrCorrupt, i)
		}
		dir = dir[n:]
		if off > uint64(len(seg.postings)) || plen > uint64(len(seg.postings))-off {
			return nil, fmt.Errorf("%w: key %q payload out of range", ErrCorrupt, key)
		}
		if len(seg.keys) > 0 && key <= seg.keys[len(seg.keys)-1].key {
			return nil, fmt.Errorf("%w: key directory not sorted at %q", ErrCorrupt, key)
		}
		seg.keys = append(seg.keys, dirEntry{key: key, off: off, n: plen})
	}
	if len(dir) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after key directory", ErrCorrupt, len(dir))
	}
	// Rows must be ascending, so that ordinal order is SID order. The same
	// pass, over bytes the CRC has covered, derives the packed records
	// queries read by ordinal.
	seg.recs = make([]metadb.RowMeta, seg.nRows)
	prev := social.PostID(-1 << 62)
	for i := range seg.recs {
		r := decodeRow(seg.rows[i*rowSize : (i+1)*rowSize])
		if r.SID <= prev {
			return nil, fmt.Errorf("%w: rows not in ascending SID order at %d", ErrCorrupt, i)
		}
		prev = r.SID
		seg.recs[i] = metadb.RowMeta{SID: r.SID, Lat: r.Lat, Lon: r.Lon, UID: r.UID}
	}
	if seg.recs[0].SID != minSID || seg.recs[seg.nRows-1].SID != maxSID {
		return nil, fmt.Errorf("%w: header SID range disagrees with row records", ErrCorrupt)
	}
	return seg, nil
}

// checkTextOffsets requires the text offset table to start at 0, never
// descend and end at the text bytes' length, so Text slices in range.
func (s *Segment) checkTextOffsets() error {
	prev := uint32(0)
	for i := 0; i <= s.nRows; i++ {
		off := binary.LittleEndian.Uint32(s.textOffs[i*textOffSize:])
		if (i == 0 && off != 0) || off < prev {
			return fmt.Errorf("%w: text offset %d of row %d is out of order", ErrCorrupt, off, i)
		}
		prev = off
	}
	if uint64(prev) != uint64(len(s.texts)) {
		return fmt.Errorf("%w: text offsets end at %d of %d text bytes", ErrCorrupt, prev, len(s.texts))
	}
	return nil
}

// sortKeyPostings orders a key→payload map into the directory's sorted
// form.
func sortKeyPostings(m map[invindex.Key][]byte) []keyPostings {
	out := make([]keyPostings, 0, len(m))
	for k, payload := range m {
		out = append(out, keyPostings{key: k, payload: payload})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key.String() < out[j].key.String() })
	return out
}
