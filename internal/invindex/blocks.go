package invindex

// Block-max postings layout. A blocked postings list carves the TID-sorted
// postings into fixed-size blocks (DefaultBlockSize entries) and prefixes
// them with a directory of per-block metadata — entry count, min/max tweet
// ID and max term frequency — so traversal can reason about a block (and
// skip it wholesale) without decoding it. This is the in-memory/DFS
// precursor of the on-disk immutable-segment block header: the directory is
// exactly what a segment's skip index will persist.
//
// Wire layout — the one postings codec; every entryRef and every segment
// key points at a payload of this shape:
//
//	uvarint total                  // postings in the whole list
//	uvarint nblocks
//	nblocks × directory entry:
//	    uvarint count              // postings in this block (1..blockSize)
//	    uvarint dataLen            // encoded byte length of the block body
//	    uvarint minDelta           // minSID − previous block's maxSID
//	    uvarint span               // maxSID − minSID
//	    uvarint maxTF
//	nblocks × block body:
//	    uvarint tf                 // first posting; its TID is minSID
//	    (count−1) × { uvarint tidDelta (>0), uvarint tf }
//
// The payload leads with the uvarint total, so PostingsListCount reads the
// length of a list without decoding any entries.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/social"
)

// DefaultBlockSize is the postings-per-block target of the blocked layout.
// 128 keeps a block within a few hundred bytes (one cache-friendly decode
// unit) while making the directory ~1% of the list.
const DefaultBlockSize = 128

// BlockInfo is the decoded directory entry of one postings block: the
// metadata traversal may consult without decoding the block body.
type BlockInfo struct {
	Index  int           // block ordinal within the list
	Count  int           // postings in the block
	MinSID social.PostID // first (smallest) TID in the block
	MaxSID social.PostID // last (largest) TID in the block
	MaxTF  uint32        // largest term frequency in the block
}

// blockRef is BlockInfo plus the block body's location inside the payload.
type blockRef struct {
	count          int
	minSID, maxSID social.PostID
	maxTF          uint32
	off, length    int
}

// PostingsListCount reads just the leading total of an encoded postings
// list, without decoding the directory or any entries.
func PostingsListCount(b []byte) (int, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, fmt.Errorf("invindex: bad postings count")
	}
	return int(count), nil
}

// EncodeBlockedPostingsList serializes a TID-sorted postings list in the
// blocked layout with the given block size (non-positive selects
// DefaultBlockSize).
func EncodeBlockedPostingsList(ps []Posting, blockSize int) ([]byte, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].TID <= ps[i-1].TID {
			return nil, fmt.Errorf("invindex: postings not strictly sorted at %d (%d after %d)",
				i, ps[i].TID, ps[i-1].TID)
		}
	}
	nblocks := (len(ps) + blockSize - 1) / blockSize

	// Encode the block bodies first; the directory needs their lengths.
	type blockMeta struct {
		count          int
		minSID, maxSID social.PostID
		maxTF          uint32
		body           []byte
	}
	metas := make([]blockMeta, 0, nblocks)
	for start := 0; start < len(ps); start += blockSize {
		end := start + blockSize
		if end > len(ps) {
			end = len(ps)
		}
		blk := ps[start:end]
		m := blockMeta{count: len(blk), minSID: blk[0].TID, maxSID: blk[len(blk)-1].TID}
		body := make([]byte, 0, len(blk)*3)
		body = binary.AppendUvarint(body, uint64(blk[0].TF))
		m.maxTF = blk[0].TF
		for i := 1; i < len(blk); i++ {
			body = binary.AppendUvarint(body, uint64(blk[i].TID-blk[i-1].TID))
			body = binary.AppendUvarint(body, uint64(blk[i].TF))
			if blk[i].TF > m.maxTF {
				m.maxTF = blk[i].TF
			}
		}
		m.body = body
		metas = append(metas, m)
	}

	buf := make([]byte, 0, 16+len(ps)*3)
	buf = binary.AppendUvarint(buf, uint64(len(ps)))
	buf = binary.AppendUvarint(buf, uint64(len(metas)))
	var prevMax social.PostID
	for _, m := range metas {
		buf = binary.AppendUvarint(buf, uint64(m.count))
		buf = binary.AppendUvarint(buf, uint64(len(m.body)))
		buf = binary.AppendUvarint(buf, uint64(m.minSID-prevMax))
		buf = binary.AppendUvarint(buf, uint64(m.maxSID-m.minSID))
		buf = binary.AppendUvarint(buf, uint64(m.maxTF))
		prevMax = m.maxSID
	}
	for _, m := range metas {
		buf = append(buf, m.body...)
	}
	return buf, nil
}

// parseBlockedDirectory reads the header and directory of a blocked
// payload, returning the total posting count, the block refs (offsets into
// the returned data area) and the data area itself.
func parseBlockedDirectory(b []byte) (int, []blockRef, []byte, error) {
	total, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("invindex: bad blocked postings total")
	}
	b = b[n:]
	nblocks, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("invindex: bad blocked postings block count")
	}
	b = b[n:]
	// Every block costs >= 5 directory bytes plus >= 1 body byte, and every
	// posting >= 1 body byte; reject hostile headers before allocating.
	if nblocks > uint64(len(b))/5 || total > uint64(len(b))+5*nblocks {
		return 0, nil, nil, fmt.Errorf("invindex: blocked header (%d blocks, %d postings) exceeds payload %d",
			nblocks, total, len(b))
	}
	refs := make([]blockRef, 0, nblocks)
	var sum uint64
	var prevMax social.PostID
	dataOff := 0
	for i := uint64(0); i < nblocks; i++ {
		var vals [5]uint64
		for j := range vals {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return 0, nil, nil, fmt.Errorf("invindex: truncated block directory at %d", i)
			}
			vals[j] = v
			b = b[n:]
		}
		count, length := vals[0], vals[1]
		if count == 0 || count > total || length > uint64(len(b)) {
			return 0, nil, nil, fmt.Errorf("invindex: implausible block %d (count %d, len %d)", i, count, length)
		}
		// Strict global sortedness: block i's minSID must exceed block
		// i-1's maxSID, or a hostile payload could smuggle duplicate TIDs
		// across a block boundary.
		if i > 0 && vals[2] == 0 {
			return 0, nil, nil, fmt.Errorf("invindex: block %d overlaps previous block", i)
		}
		minSID := prevMax + social.PostID(vals[2])
		maxSID := minSID + social.PostID(vals[3])
		if vals[4] > math.MaxUint32 {
			return 0, nil, nil, fmt.Errorf("invindex: block %d maxTF %d overflows", i, vals[4])
		}
		refs = append(refs, blockRef{
			count:  int(count),
			minSID: minSID,
			maxSID: maxSID,
			maxTF:  uint32(vals[4]),
			off:    dataOff,
			length: int(length),
		})
		dataOff += int(length)
		sum += count
		prevMax = maxSID
	}
	if sum != total {
		return 0, nil, nil, fmt.Errorf("invindex: block counts sum %d, header says %d", sum, total)
	}
	if dataOff > len(b) {
		return 0, nil, nil, fmt.Errorf("invindex: block data %d exceeds payload %d", dataOff, len(b))
	}
	return int(total), refs, b, nil
}

// decodeBlock decodes one block body into dst (reused across blocks).
func decodeBlock(data []byte, ref blockRef, dst []Posting) ([]Posting, error) {
	if ref.off+ref.length > len(data) {
		return nil, fmt.Errorf("invindex: block body out of bounds")
	}
	b := data[ref.off : ref.off+ref.length]
	if n := min(ref.count, ref.length); cap(dst) < n { // a posting takes a body byte or more
		dst = make([]Posting, 0, n)
	}
	dst = dst[:0]
	tf, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("invindex: truncated block first posting")
	}
	b = b[n:]
	dst = append(dst, Posting{TID: ref.minSID, TF: uint32(tf)})
	prev := ref.minSID
	for i := 1; i < ref.count; i++ {
		delta, n1 := binary.Uvarint(b)
		if n1 <= 0 {
			return nil, fmt.Errorf("invindex: truncated tid at block posting %d", i)
		}
		tf, n2 := binary.Uvarint(b[n1:])
		if n2 <= 0 {
			return nil, fmt.Errorf("invindex: truncated tf at block posting %d", i)
		}
		if delta == 0 {
			return nil, fmt.Errorf("invindex: zero tid delta at block posting %d", i)
		}
		prev += social.PostID(delta)
		dst = append(dst, Posting{TID: prev, TF: uint32(tf)})
		b = b[n1+n2:]
	}
	if prev != ref.maxSID {
		return nil, fmt.Errorf("invindex: block ends at %d, directory says %d", prev, ref.maxSID)
	}
	return dst, nil
}

// DecodeBlockedPostingsList fully decodes a blocked payload. It is the
// eager counterpart of the iterator, used by FetchPostings (sources
// without a lazy iterator, compaction, tooling) and by round-trip tests.
func DecodeBlockedPostingsList(b []byte) ([]Posting, error) {
	total, refs, data, err := parseBlockedDirectory(b)
	if err != nil {
		return nil, err
	}
	out := make([]Posting, 0, total)
	var scratch []Posting
	for _, ref := range refs {
		scratch, err = decodeBlock(data, ref, scratch)
		if err != nil {
			return nil, err
		}
		out = append(out, scratch...)
	}
	return out, nil
}

// IterStats reports the decode work a PostingsIterator avoided: blocks and
// postings that were skipped over without ever being decoded, and the
// blocks that were decoded.
type IterStats struct {
	BlocksSkipped   int64
	PostingsSkipped int64
	BlocksDecoded   int64
}

// PostingsIterator is a cursor over one postings list that decodes one
// block at a time. SkipTo advances past whole blocks using only the
// directory, so traversal that consults BlockMax before descending can
// leave most of a long list undecoded. Not safe for concurrent use.
type PostingsIterator struct {
	data   []byte
	blocks []blockRef
	total  int

	bi      int       // current block
	di      int       // position within the current block
	cur     []Posting // decoded current block (nil until needed)
	scratch []Posting // reusable decode buffer
	err     error
	stats   IterStats
}

// NewBlockedIterator opens an iterator over a blocked payload.
func NewBlockedIterator(b []byte) (*PostingsIterator, error) {
	total, refs, data, err := parseBlockedDirectory(b)
	if err != nil {
		return nil, err
	}
	return &PostingsIterator{data: data, blocks: refs, total: total}, nil
}

// NewSliceIterator wraps an already-decoded postings list as a one-block
// iterator with exact metadata — the adapter for in-memory postings
// sources (the memtable, test sources).
func NewSliceIterator(ps []Posting) *PostingsIterator {
	if len(ps) == 0 {
		return &PostingsIterator{}
	}
	var maxTF uint32
	for _, p := range ps {
		if p.TF > maxTF {
			maxTF = p.TF
		}
	}
	it := &PostingsIterator{
		total: len(ps),
		blocks: []blockRef{{
			count:  len(ps),
			minSID: ps[0].TID,
			maxSID: ps[len(ps)-1].TID,
			maxTF:  maxTF,
		}},
	}
	it.cur = ps
	it.stats.BlocksDecoded = 1
	return it
}

// Len returns the total posting count, known without decoding.
func (it *PostingsIterator) Len() int { return it.total }

// Err reports a decode error encountered while advancing; once set the
// iterator is invalid.
func (it *PostingsIterator) Err() error { return it.err }

// Stats reports the skip/decode counters accumulated so far.
func (it *PostingsIterator) Stats() IterStats { return it.stats }

// Valid reports whether the cursor is positioned on a posting.
func (it *PostingsIterator) Valid() bool {
	return it.err == nil && it.bi < len(it.blocks)
}

// BlockMax returns the directory metadata of the current block — the
// per-block maxima traversal checks before deciding to decode. It costs no
// decoding. The boolean is false when the iterator is exhausted.
func (it *PostingsIterator) BlockMax() (BlockInfo, bool) {
	if !it.Valid() {
		return BlockInfo{}, false
	}
	ref := it.blocks[it.bi]
	return BlockInfo{
		Index: it.bi, Count: ref.count,
		MinSID: ref.minSID, MaxSID: ref.maxSID, MaxTF: ref.maxTF,
	}, true
}

// ensure decodes the current block if it isn't already.
func (it *PostingsIterator) ensure() bool {
	if it.cur != nil {
		return true
	}
	decoded, err := decodeBlock(it.data, it.blocks[it.bi], it.scratch)
	if err != nil {
		it.err = err
		it.bi = len(it.blocks)
		return false
	}
	it.scratch = decoded
	it.cur = decoded
	it.stats.BlocksDecoded++
	return true
}

// Cur returns the posting at the cursor. It decodes the current block on
// first touch. Only legal while Valid.
func (it *PostingsIterator) Cur() (Posting, bool) {
	if !it.Valid() || !it.ensure() {
		return Posting{}, false
	}
	return it.cur[it.di], true
}

// Rest returns the undrained postings of the current block, decoding it on
// first touch — a run a merge consumes without a call per posting. Empty once
// the iterator is exhausted or has failed; valid until the cursor moves.
func (it *PostingsIterator) Rest() []Posting {
	if !it.Valid() || !it.ensure() {
		return nil
	}
	return it.cur[it.di:]
}

// NextRest leaves the current block, whose Rest the caller has consumed, and
// returns the next block's.
func (it *PostingsIterator) NextRest() []Posting {
	if it.Valid() {
		it.bi, it.di, it.cur = it.bi+1, 0, nil
	}
	return it.Rest()
}

// Next advances the cursor one posting and reports whether it still points
// at one.
func (it *PostingsIterator) Next() bool {
	if !it.Valid() {
		return false
	}
	it.di++
	if it.di >= it.blocks[it.bi].count {
		it.bi++
		it.di = 0
		it.cur = nil
	}
	return it.Valid()
}

// SkipBlock jumps past the current block without decoding it, counting the
// skip. Used when block metadata alone proves the block cannot matter.
func (it *PostingsIterator) SkipBlock() bool {
	if !it.Valid() {
		return false
	}
	if it.cur == nil {
		it.stats.BlocksSkipped++
		it.stats.PostingsSkipped += int64(it.blocks[it.bi].count - it.di)
	}
	it.bi++
	it.di = 0
	it.cur = nil
	return it.Valid()
}

// SkipTo advances the cursor to the first posting with TID >= tid. Blocks
// whose directory proves they end before tid are skipped without decoding.
// Skipping to a TID beyond the list exhausts the iterator (and counts every
// untouched block as skipped), so SkipTo(math.MaxInt64) doubles as "close,
// crediting the decode work avoided".
func (it *PostingsIterator) SkipTo(tid social.PostID) bool {
	for it.Valid() && it.blocks[it.bi].maxSID < tid {
		it.SkipBlock()
	}
	if !it.Valid() {
		return false
	}
	if tid <= it.blocks[it.bi].minSID && it.di == 0 {
		return true // already positioned; leave the block undecoded
	}
	if !it.ensure() {
		return false
	}
	// Binary search within the decoded block, never moving backwards.
	lo, hi := it.di, len(it.cur)
	for lo < hi {
		mid := (lo + hi) / 2
		if it.cur[mid].TID < tid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.di = lo
	if it.di >= len(it.cur) {
		// maxSID >= tid guarantees a hit; reaching here means the cursor was
		// already past every qualifying posting in this block.
		it.bi++
		it.di = 0
		it.cur = nil
		return it.SkipTo(tid)
	}
	return true
}
