package segment

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/invindex"
	"repro/internal/social"
)

// recordBytes is the resident cost of one row's query columns: a packed
// social.RowMeta of SID, latitude, longitude and author, and the row's
// post ordinal in the corpus table.
const recordBytes = 36

// A row source's records are what a query reads of its rows: one
// social.RowMeta per row, in ascending SID order, at the index its postings
// name — the row ordinal. A sealed segment derives them from its 48-byte
// stored rows when it opens, and the memtable appends one on Add, so the
// engine's filter reads records[ordinal] for either with no search, and a
// survivor's SID comes from the same record as its location. Beside them
// each source keeps its rows' post ordinals in the corpus table, by which
// the engine reads a survivor's φ, author and |P_u|: the memtable takes
// each on Add, a seal, compaction or split carries them, and a store opened
// from a directory numbers them in time order. Records and ordinals are
// derived, not stored, so the file format does not change with them.

// recordsBytes is the resident size of a source's records.
func recordsBytes(recs []social.RowMeta) int { return len(recs) * recordBytes }

// resolveSIDs answers ResolveRows over records: out[i] receives sids[i]'s
// record, sids ascending, and the return value is the index of the first
// SID the records do not hold, -1 when every one resolved. Each SID bisects
// the records beyond the previous hit. Only the point lookups of
// Store.LookupRowMeta and tests call it; queries read records by ordinal.
func resolveSIDs(recs []social.RowMeta, sids []social.PostID, out []social.RowMeta) int {
	pos := 0
	for i, sid := range sids {
		j, found := slices.BinarySearchFunc(recs[pos:], sid, func(r social.RowMeta, sid social.PostID) int {
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
func ordinalOf(recs []social.RowMeta, sid social.PostID) (int, bool) {
	return slices.BinarySearchFunc(recs, sid, func(r social.RowMeta, sid social.PostID) int {
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
func toTIDs(ps []invindex.Posting, recs []social.RowMeta) []invindex.Posting {
	if ps == nil {
		return nil
	}
	out := make([]invindex.Posting, len(ps))
	for i, p := range ps {
		out[i] = invindex.Posting{TID: recs[p.TID].SID, TF: p.TF}
	}
	return out
}
