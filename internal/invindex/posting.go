// Package invindex implements the paper's hybrid spatial-keyword index
// (Section IV-B, Figure 4). The inverted index maps each composite key
// ⟨geohash, term⟩ to a postings list of ⟨TID, TF⟩ pairs sorted by tweet ID
// and stored in the (simulated) distributed file system; the small forward
// index kept in main memory maps each key to the position of its postings
// list. Construction runs as two MapReduce jobs (Algorithms 2 and 3 plus
// the forward-index job of Section IV-B2).
package invindex

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/social"
)

// Posting is one inverted-index entry: a tweet ID (the tweet's timestamp)
// and the term frequency of the key's term in that tweet.
type Posting struct {
	TID social.PostID
	TF  uint32
}

// Key is the composite inverted-index key ⟨geohash, term⟩.
type Key struct {
	Geohash string
	Term    string
}

// String renders the key in its sortable on-disk form: geohash, then a NUL
// separator (below any Base32 or term byte), then the term. Sorting these
// strings sorts by geohash first, which is what keeps postings of nearby
// cells contiguous on disk.
func (k Key) String() string { return k.Geohash + "\x00" + k.Term }

// ParseKey inverts Key.String.
func ParseKey(s string) (Key, error) {
	i := strings.IndexByte(s, 0)
	if i < 0 {
		return Key{}, fmt.Errorf("invindex: malformed key %q", s)
	}
	return Key{Geohash: s[:i], Term: s[i+1:]}, nil
}

// encodePosting serializes one posting as two varints (tid, tf). Used for
// the map-phase intermediate values.
func encodePosting(p Posting) []byte {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64)
	buf = binary.AppendUvarint(buf, uint64(p.TID))
	buf = binary.AppendUvarint(buf, uint64(p.TF))
	return buf
}

// decodePosting inverts encodePosting.
func decodePosting(b []byte) (Posting, error) {
	tid, n := binary.Uvarint(b)
	if n <= 0 {
		return Posting{}, fmt.Errorf("invindex: bad posting tid")
	}
	tf, m := binary.Uvarint(b[n:])
	if m <= 0 {
		return Posting{}, fmt.Errorf("invindex: bad posting tf")
	}
	return Posting{TID: social.PostID(tid), TF: uint32(tf)}, nil
}

// sortPostings orders a list by TID, merging duplicate TIDs by summing
// their term frequencies (a tweet emits one posting per term, so duplicates
// only arise from pathological inputs; summing keeps the bag semantics).
func sortPostings(ps []Posting) []Posting {
	sort.Slice(ps, func(i, j int) bool { return ps[i].TID < ps[j].TID })
	out := ps[:0]
	for _, p := range ps {
		if len(out) > 0 && out[len(out)-1].TID == p.TID {
			out[len(out)-1].TF += p.TF
			continue
		}
		out = append(out, p)
	}
	return out
}
