package segment

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/social"
)

// recordBytes is the resident cost of one row record: a packed
// metadb.RowMeta of SID, latitude, longitude and author.
const recordBytes = 32

// A row source's records are what a query reads of its rows: one
// metadb.RowMeta per row, in ascending SID order, at the index its postings
// name — the row ordinal. A sealed segment derives them from its 48-byte
// stored rows when it opens, and the memtable appends one on Add, so the
// engine's filter reads records[ordinal] for either with no search, and a
// survivor's SID comes from the same record as its location. The records
// are derived, not stored, so the file format does not change with them.

// recordsBytes is the resident size of a source's records.
func recordsBytes(recs []metadb.RowMeta) int { return len(recs) * recordBytes }

// resolveSIDs answers ResolveRows over records: out[i] receives sids[i]'s
// record, sids ascending, and the return value is the index of the first
// SID the records do not hold, -1 when every one resolved. Each SID bisects
// the records beyond the previous hit. Only the point lookups of
// Store.LookupRowMeta and tests call it; queries read records by ordinal.
func resolveSIDs(recs []metadb.RowMeta, sids []social.PostID, out []metadb.RowMeta) int {
	pos := 0
	for i, sid := range sids {
		j, found := slices.BinarySearchFunc(recs[pos:], sid, func(r metadb.RowMeta, sid social.PostID) int {
			return cmp.Compare(r.SID, sid)
		})
		if !found {
			return i
		}
		pos += j
		out[i] = recs[pos]
	}
	return -1
}

// ordinalOf returns the ordinal of sid's row in recs.
func ordinalOf(recs []metadb.RowMeta, sid social.PostID) (int, bool) {
	return slices.BinarySearchFunc(recs, sid, func(r metadb.RowMeta, sid social.PostID) int {
		return cmp.Compare(r.SID, sid)
	})
}

// checkOrdinals requires every posting of a decoded list to name one of
// nRows rows. Only hostile bytes under a consistent CRC break it, so a
// failure is ErrCorrupt.
func checkOrdinals(ps []invindex.Posting, nRows int) error {
	for _, p := range ps {
		if uint64(p.TID) >= uint64(nRows) {
			return fmt.Errorf("%w: posting names row %d of %d", ErrCorrupt, p.TID, nRows)
		}
	}
	return nil
}

// toTIDs translates a list of row ordinals, each already checked against
// recs, into the tweet IDs FetchPostings promises. Nil stays nil.
func toTIDs(ps []invindex.Posting, recs []metadb.RowMeta) []invindex.Posting {
	if ps == nil {
		return nil
	}
	out := make([]invindex.Posting, len(ps))
	for i, p := range ps {
		out[i] = invindex.Posting{TID: recs[p.TID].SID, TF: p.TF}
	}
	return out
}
