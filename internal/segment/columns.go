package segment

import (
	"repro/internal/metadb"
	"repro/internal/social"
)

// columnRowBytes is the resident cost of one row in rowColumns: an 8-byte SID
// and a 24-byte RowMeta.
const columnRowBytes = 8 + 24

// rowColumns is what a query reads of a row source's rows, laid out dense:
// the SIDs in ascending order and, at the same index, the (lat, lon, uid)
// the radius test and the user table need. A sealed segment derives them
// from its records when it opens, and the memtable appends to them on Add,
// so one resolve body serves both; the 48-byte records are not read on the
// query path. The columns are derived, not stored, so the file format does
// not change with them.
type rowColumns struct {
	sids []social.PostID
	meta []metadb.RowMeta
}

// add appends one row; its SID must be above every SID already held.
func (c *rowColumns) add(sid social.PostID, m metadb.RowMeta) {
	c.sids = append(c.sids, sid)
	c.meta = append(c.meta, m)
}

// bytes is the columns' resident size.
func (c *rowColumns) bytes() int { return len(c.sids) * columnRowBytes }

// resolve answers the RowSource contract over the columns: out[i] receives
// sids[i]'s row metadata, sids ascending, and the return value is the index
// of the first SID the columns do not hold, -1 when every one resolved. Each
// search gallops from where the previous one ended, so a batch costs one
// forward pass over the stretch of SIDs it spans — no lock, no allocation.
func (c *rowColumns) resolve(sids []social.PostID, out []metadb.RowMeta) int {
	col := c.sids
	pos := 0
	for i, sid := range sids {
		pos = gallopTo(col, pos, sid)
		if pos == len(col) || col[pos] != sid {
			return i
		}
		out[i] = c.meta[pos]
	}
	return -1
}

// gallopTo returns the first index at or after start whose SID is at least
// target, len(col) when there is none; col[:start] must all be below target.
// It probes exponentially from start, then bisects the bracket it found, so
// the lookups of an ascending batch cost O(log gap) each and touch SIDs near
// the previous hit.
func gallopTo(col []social.PostID, start int, target social.PostID) int {
	lo, hi := start, start
	for step := 1; hi < len(col) && col[hi] < target; step *= 2 {
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, len(col))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if col[m] < target {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
