package core

import "repro/internal/social"

// candidate is one tweet surviving the keyword semantics, carrying the
// bag-model match count |q.W ∩ p.W| of Definition 6 (the sum of term
// frequencies of the matched query terms). doc is the posting's ID: a row
// ordinal of the partition's RowSource, or the tweet ID when the partition
// has none.
type candidate struct {
	doc     social.PostID
	matches int
}
