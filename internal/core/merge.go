package core

import "repro/internal/social"

// candidate is one tweet surviving the keyword semantics, carrying the
// bag-model match count |q.W ∩ p.W| of Definition 6 (the sum of term
// frequencies of the matched query terms).
type candidate struct {
	tid     social.PostID
	matches int
}
