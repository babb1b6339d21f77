package core

import (
	"cmp"
	"slices"

	"repro/internal/social"
)

// topK is the bounded priority structure of Algorithm 5: it keeps the k
// best (user, score) pairs, supports peeking at the weakest member, and
// updates a member's score in place. k is small (5–10 in the experiments),
// so linear scans beat a heap with a position map.
type topK struct {
	k      int
	users  []social.UserID
	scores map[social.UserID]float64

	// peek() runs once per streamed candidate, so the minimum is cached
	// and only recomputed after a mutation that may have changed it.
	minCached bool
	minScore  float64
}

// newTopK sizes the structure for the k it keeps out of users distinct
// users: it never holds more than min(k, users), and k is the client's to
// choose, so k alone must not size an allocation.
func newTopK(k, users int) *topK {
	return &topK{k: k, scores: make(map[social.UserID]float64, min(k, users))}
}

func (t *topK) full() bool { return len(t.users) >= t.k }

func (t *topK) contains(uid social.UserID) bool {
	_, ok := t.scores[uid]
	return ok
}

// peek returns the lowest score currently held (Algorithm 5's
// topKUser.peek()). It must not be called on an empty structure.
func (t *topK) peek() float64 {
	if t.minCached {
		return t.minScore
	}
	min := t.scores[t.users[0]]
	for _, uid := range t.users[1:] {
		if s := t.scores[uid]; s < min {
			min = s
		}
	}
	t.minScore = min
	t.minCached = true
	return min
}

// add inserts a new user. The caller must ensure capacity and absence.
func (t *topK) add(uid social.UserID, score float64) {
	t.users = append(t.users, uid)
	t.scores[uid] = score
	if t.minCached && score < t.minScore {
		t.minScore = score
	}
}

// removeWeakest evicts the lowest-scored user (ties: larger UID goes, so
// results are deterministic).
func (t *topK) removeWeakest() {
	weakest := 0
	for i := 1; i < len(t.users); i++ {
		si, sw := t.scores[t.users[i]], t.scores[t.users[weakest]]
		if si < sw || (si == sw && t.users[i] > t.users[weakest]) {
			weakest = i
		}
	}
	delete(t.scores, t.users[weakest])
	t.users = append(t.users[:weakest], t.users[weakest+1:]...)
	t.minCached = false
}

// weakest returns the member sortResults would rank last — lowest score,
// largest UID on ties — so callers can admit new users under exactly the
// sort-then-truncate order. Must not be called on an empty structure.
func (t *topK) weakest() (social.UserID, float64) {
	w := t.users[0]
	ws := t.scores[w]
	for _, uid := range t.users[1:] {
		if s := t.scores[uid]; s < ws || (s == ws && uid > w) {
			w, ws = uid, s
		}
	}
	return w, ws
}

// raise updates uid's score if the new value is higher (max semantics).
func (t *topK) raise(uid social.UserID, score float64) {
	if score > t.scores[uid] {
		t.scores[uid] = score
		t.minCached = false // uid may have been the minimum
	}
}

// offer is Algorithm 5's admission step (lines 24–31) for a user score
// under max semantics: a member keeps the higher of its scores, a newcomer
// takes a free slot or displaces a strictly weaker weakest member. A score
// no higher than the weakest member's changes nothing, so once the structure
// is full most offers cost one compare.
func (t *topK) offer(uid social.UserID, score float64) {
	switch {
	case t.full() && score <= t.peek():
	case t.contains(uid):
		t.raise(uid, score)
	case !t.full():
		t.add(uid, score)
	case t.peek() < score:
		t.removeWeakest()
		t.add(uid, score)
	}
}

// admit enters one user's final score under exactly the sort-then-truncate
// order of the sum ranking: it takes a free slot, or displaces the member
// sortResults would rank last when it scores higher, or equal with a smaller
// UID. Each user is admitted once.
func (t *topK) admit(uid social.UserID, score float64) {
	switch {
	case !t.full():
		t.add(uid, score)
	case score < t.peek():
	default:
		if wuid, ws := t.weakest(); score > ws || uid < wuid {
			t.removeWeakest()
			t.add(uid, score)
		}
	}
}

// results returns the members ordered by descending score (ties by
// ascending UID for determinism).
func (t *topK) results() []UserResult {
	out := make([]UserResult, 0, len(t.users))
	for _, uid := range t.users {
		out = append(out, UserResult{UID: uid, Score: t.scores[uid]})
	}
	sortResults(out)
	return out
}

// sortResults orders by score descending, UID ascending on ties.
func sortResults(rs []UserResult) {
	slices.SortFunc(rs, func(a, b UserResult) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.UID, b.UID)
	})
}
