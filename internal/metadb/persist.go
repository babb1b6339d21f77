package metadb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/social"
)

var rowsMagic = []byte("TKROW1")

// SaveRows writes every row whose SID exceeds after, in SID order, as
// fixed-width binary records. A snapshot passes the last SID its index
// image holds, so each row is stored once; LoadRows takes the image's rows
// back as its base.
func (db *DB) SaveRows(w io.Writer, after social.PostID) error {
	db.mustBeFrozen()
	db.structMu.RLock()
	defer db.structMu.RUnlock()
	n := 0
	for i := range db.pages {
		for _, r := range db.pages[i] {
			if r.SID > after {
				n++
			}
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(rowsMagic); err != nil {
		return err
	}
	var count [8]byte
	binary.LittleEndian.PutUint64(count[:], uint64(n))
	if _, err := bw.Write(count[:]); err != nil {
		return err
	}
	var rec [48]byte
	for i := range db.pages {
		for _, r := range db.pages[i] {
			if r.SID <= after {
				continue
			}
			binary.LittleEndian.PutUint64(rec[0:], uint64(r.SID))
			binary.LittleEndian.PutUint64(rec[8:], uint64(r.UID))
			binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(r.Lat))
			binary.LittleEndian.PutUint64(rec[24:], math.Float64bits(r.Lon))
			binary.LittleEndian.PutUint64(rec[32:], uint64(r.RUID))
			binary.LittleEndian.PutUint64(rec[40:], uint64(r.RSID))
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadRows reconstructs a frozen database from base, SID-ascending rows it
// takes ownership of, followed by a SaveRows stream of the rows beyond them.
func LoadRows(opts Options, base []Row, r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(rowsMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("metadb: reading magic: %w", err)
	}
	if string(magic) != string(rowsMagic) {
		return nil, fmt.Errorf("metadb: bad rows magic %q", magic)
	}
	var count [8]byte
	if _, err := io.ReadFull(br, count[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(count[:])
	db := New(opts)
	db.sortedBatch = base
	var rec [48]byte
	var prev social.PostID
	if len(base) > 0 {
		prev = base[len(base)-1].SID
	}
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("metadb: row %d: %w", i, err)
		}
		row := Row{
			SID:  social.PostID(binary.LittleEndian.Uint64(rec[0:])),
			UID:  social.UserID(binary.LittleEndian.Uint64(rec[8:])),
			Lat:  math.Float64frombits(binary.LittleEndian.Uint64(rec[16:])),
			Lon:  math.Float64frombits(binary.LittleEndian.Uint64(rec[24:])),
			RUID: social.UserID(binary.LittleEndian.Uint64(rec[32:])),
			RSID: social.PostID(binary.LittleEndian.Uint64(rec[40:])),
		}
		if row.SID <= prev {
			return nil, fmt.Errorf("metadb: rows not strictly SID-sorted at %d", i)
		}
		prev = row.SID
		db.sortedBatch = append(db.sortedBatch, row)
	}
	if err := db.freeze(); err != nil {
		return nil, err
	}
	return db, nil
}
