package thread

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/metadb"
	"repro/internal/score"
	"repro/internal/social"
)

func randomReplyPosts(rng *rand.Rand, n int) []*social.Post {
	posts := make([]*social.Post, 0, n)
	sid := social.PostID(0)
	for len(posts) < n {
		sid++
		p := &social.Post{
			SID: sid, UID: social.UserID(rng.Intn(40) + 1), Time: time.Unix(int64(sid), 0),
			Loc: geo.Point{Lat: 43.7, Lon: -79.4}, Words: []string{"hotel"},
		}
		if len(posts) > 0 && rng.Intn(3) > 0 {
			parent := posts[rng.Intn(len(posts))]
			p.Kind, p.RUID, p.RSID = social.Reply, parent.UID, parent.SID
		}
		posts = append(posts, p)
	}
	return posts
}

// appendReplies grows the database past its build-time state with n
// replies to random existing posts.
func appendReplies(t *testing.T, db *metadb.DB, rng *rand.Rand, posts []*social.Post, n int) {
	t.Helper()
	_, next := db.SIDRange()
	for i := 0; i < n; i++ {
		parent := posts[rng.Intn(len(posts))]
		next++
		reply := &social.Post{
			SID: next, UID: social.UserID(rng.Intn(40) + 1), Time: time.Unix(int64(next), 0),
			Loc: geo.Point{Lat: 43.7, Lon: -79.4}, Words: []string{"hotel"},
			Kind: social.Reply, RUID: parent.UID, RSID: parent.SID,
		}
		if err := db.Append(reply); err != nil {
			t.Fatal(err)
		}
	}
}

// referenceTree is the literal reading of Algorithm 1 — one "select all
// where rsid = Id" descent per frontier node — kept as the oracle the
// Builder's batched expansion is compared against. It touches the
// database only through SelectByRSID, so the root node's UID is left zero.
func referenceTree(db *metadb.DB, root social.PostID, depth int, epsilon float64) ([]Node, []uint32, float64) {
	nodes := []Node{{SID: root, Level: 1}}
	var levels []uint32
	frontier := []social.PostID{root}
	for d := 1; d <= depth && len(frontier) > 0; d++ {
		var next []social.PostID
		for _, tid := range frontier {
			for _, r := range db.SelectByRSID(tid) {
				next = append(next, r.SID)
				nodes = append(nodes, Node{SID: r.SID, UID: r.UID, Parent: tid, Level: d + 1})
			}
		}
		if len(next) == 0 {
			break
		}
		levels = append(levels, uint32(len(next)))
		frontier = next
	}
	return nodes, levels, score.Popularity(levels, epsilon)
}

// expansionStates runs check against a freshly frozen database and the same
// database grown by post-freeze appends.
func expansionStates(t *testing.T, seed int64, n int, check func(label string, db *metadb.DB, posts []*social.Post)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	posts := randomReplyPosts(rng, n)
	db, err := metadb.Load(metadb.Options{RowsPerPage: 32, IndexOrder: 8}, posts)
	if err != nil {
		t.Fatal(err)
	}
	check("frozen", db, posts)
	appendReplies(t, db, rng, posts, n/8)
	check("post-freeze appends", db, posts)
}

// TestExpansionByteIdentical is the expansion-equivalence grid: across
// database states, ε values and depth limits, every thread's popularity
// and level vector must be byte-identical to the per-node reference (exact
// float equality — both paths visit the same nodes in the same order). It
// also pins that the batched path ran: BatchLookups counts its multi-gets.
func TestExpansionByteIdentical(t *testing.T) {
	expansionStates(t, 21, 800, func(label string, db *metadb.DB, posts []*social.Post) {
		var st Stats
		for _, epsilon := range []float64{0.05, 0.1, 0.5} {
			for _, depth := range []int{1, 2, 6} {
				b := &Builder{DB: db, Depth: depth}
				for _, p := range posts {
					_, wantLevels, wantPop := referenceTree(db, p.SID, depth, epsilon)
					pop, levels := b.Popularity(p.SID, epsilon, &st)
					if pop != wantPop || !reflect.DeepEqual(levels, wantLevels) {
						t.Fatalf("%s: ε=%v depth=%d root %d: got %v %v, want %v %v",
							label, epsilon, depth, p.SID, pop, levels, wantPop, wantLevels)
					}
				}
			}
		}
		if st.BatchLookups == 0 {
			t.Errorf("%s: the batched expansion recorded no multi-get", label)
		}
	})
}

// TestTreeModesIdentical checks the materialized BFS trees agree with the
// reference too (node identity, parents, and levels).
func TestTreeModesIdentical(t *testing.T) {
	expansionStates(t, 22, 400, func(label string, db *metadb.DB, posts []*social.Post) {
		for _, depth := range []int{1, 6} {
			b := &Builder{DB: db, Depth: depth}
			for _, p := range posts[:50] {
				wantNodes, _, wantPop := referenceTree(db, p.SID, depth, 0.1)
				wantNodes[0].UID = p.UID
				nodes, pop := b.Tree(p.SID, 0.1, nil)
				if pop != wantPop || !reflect.DeepEqual(nodes, wantNodes) {
					t.Fatalf("%s: depth=%d root %d: tree differs", label, depth, p.SID)
				}
			}
		}
	})
}

// TestBatchedExpansionSavesIO asserts the batched path's raison d'être:
// fewer simulated touches than the per-node reference on the same threads.
func TestBatchedExpansionSavesIO(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	posts := randomReplyPosts(rng, 2000)
	db, err := metadb.Load(metadb.Options{RowsPerPage: 32, IndexOrder: 8}, posts)
	if err != nil {
		t.Fatal(err)
	}

	touches := func(run func(root social.PostID)) int64 {
		db.ResetStats()
		for _, p := range posts[:300] {
			run(p.SID)
		}
		s := db.Stats()
		return s.PageReads + s.IndexReads
	}
	var st Stats
	b := &Builder{DB: db, Depth: 6}
	builder := func(root social.PostID) { b.Popularity(root, 0.1, &st) }

	point := touches(func(root social.PostID) { referenceTree(db, root, 6, 0.1) })
	batched := touches(builder)
	if batched > point {
		t.Errorf("batched expansion cost %d touches, point-lookup %d", batched, point)
	}
	if st.BatchLookups == 0 {
		t.Error("batched expansion recorded no batch lookups")
	}
	if st.BatchPagesSaved < 0 {
		t.Errorf("negative pages saved: %d", st.BatchPagesSaved)
	}
}
