package thread

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/metadb"
	"repro/internal/social"
)

// figure2Posts builds the thread of Figure 2: root p1 with children
// p2, p3, p4; p2 has children p5, p6; p3 has child p7; p4 has child p8;
// p5 has children p9, p10. Level sizes: 1, 3, 4, 2.
func figure2Posts() []*social.Post {
	mk := func(sid, rsid social.PostID, ruid social.UserID) *social.Post {
		kind := social.None
		if rsid != social.NoPost {
			kind = social.Reply
		}
		return &social.Post{
			SID: sid, UID: social.UserID(sid + 100), Time: time.Unix(int64(sid), 0),
			Loc: geo.Point{Lat: 43.7, Lon: -79.4}, Kind: kind, RUID: ruid, RSID: rsid,
			Words: []string{"hotel"},
		}
	}
	return []*social.Post{
		mk(1, 0, 0),
		mk(2, 1, 101), mk(3, 1, 101), mk(4, 1, 101),
		mk(5, 2, 102), mk(6, 2, 102), mk(7, 3, 103), mk(8, 4, 104),
		mk(9, 5, 105), mk(10, 5, 105),
	}
}

func loadDB(t *testing.T, posts []*social.Post) *metadb.DB {
	t.Helper()
	db, err := metadb.Load(metadb.DefaultOptions(), posts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPopularityPaperFigure2(t *testing.T) {
	db := loadDB(t, figure2Posts())
	b := &Builder{DB: db, Depth: 6}
	var stats Stats
	pop, levels := b.Popularity(1, 0.1, &stats)
	if math.Abs(pop-10.0/3.0) > 1e-12 {
		t.Errorf("popularity = %v, want 10/3", pop)
	}
	want := []uint32{3, 4, 2}
	if len(levels) != len(want) {
		t.Fatalf("levels = %v, want %v", levels, want)
	}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("levels = %v, want %v", levels, want)
		}
	}
	if stats.ThreadsBuilt != 1 || stats.TweetsPulled != 9 {
		t.Errorf("stats = %+v, want 1 thread / 9 pulled", stats)
	}
}

func TestPopularitySingleton(t *testing.T) {
	db := loadDB(t, figure2Posts())
	b := &Builder{DB: db, Depth: 6}
	// p9 is a leaf: its thread is itself only.
	pop, levels := b.Popularity(9, 0.1, nil)
	if pop != 0.1 {
		t.Errorf("leaf popularity = %v, want ε", pop)
	}
	if len(levels) != 0 {
		t.Errorf("leaf levels = %v", levels)
	}
}

func TestPopularityDepthLimit(t *testing.T) {
	db := loadDB(t, figure2Posts())
	// Depth 1: only the direct reactions level is expanded.
	b := &Builder{DB: db, Depth: 1}
	pop, levels := b.Popularity(1, 0.1, nil)
	if math.Abs(pop-3.0/2.0) > 1e-12 {
		t.Errorf("depth-1 popularity = %v, want 1.5", pop)
	}
	if len(levels) != 1 {
		t.Errorf("depth-1 levels = %v", levels)
	}
	// Depth 2 adds the third level.
	b.Depth = 2
	pop, _ = b.Popularity(1, 0.1, nil)
	if math.Abs(pop-(3.0/2.0+4.0/3.0)) > 1e-12 {
		t.Errorf("depth-2 popularity = %v", pop)
	}
}

func TestSubThreadPopularity(t *testing.T) {
	db := loadDB(t, figure2Posts())
	b := &Builder{DB: db, Depth: 6}
	// Thread rooted at p2: children p5,p6; grandchildren p9,p10.
	pop, _ := b.Popularity(2, 0.1, nil)
	if math.Abs(pop-(2.0/2.0+2.0/3.0)) > 1e-12 {
		t.Errorf("sub-thread popularity = %v", pop)
	}
}

func TestTreeMaterialization(t *testing.T) {
	db := loadDB(t, figure2Posts())
	b := &Builder{DB: db, Depth: 6}
	var stats Stats
	nodes, pop := b.Tree(1, 0.1, &stats)
	if math.Abs(pop-10.0/3.0) > 1e-12 {
		t.Errorf("tree popularity = %v, want 10/3", pop)
	}
	if len(nodes) != 10 {
		t.Fatalf("tree has %d nodes, want 10", len(nodes))
	}
	if nodes[0].SID != 1 || nodes[0].Level != 1 || nodes[0].Parent != 0 {
		t.Errorf("root node = %+v", nodes[0])
	}
	// BFS order: levels never decrease; every parent appears earlier.
	seen := map[int64]int{1: 1}
	prevLevel := 1
	for _, n := range nodes[1:] {
		if n.Level < prevLevel {
			t.Fatalf("levels not BFS ordered at %+v", n)
		}
		prevLevel = n.Level
		parentLevel, ok := seen[int64(n.Parent)]
		if !ok {
			t.Fatalf("node %d has unseen parent %d", n.SID, n.Parent)
		}
		if parentLevel != n.Level-1 {
			t.Fatalf("node %d level %d but parent at level %d", n.SID, n.Level, parentLevel)
		}
		seen[int64(n.SID)] = n.Level
	}
	if stats.ThreadsBuilt != 1 || stats.TweetsPulled != 9 {
		t.Errorf("stats = %+v", stats)
	}
	// Leaf tweet: singleton tree.
	nodes, pop = b.Tree(9, 0.1, nil)
	if len(nodes) != 1 || pop != 0.1 {
		t.Errorf("leaf tree = %v, %v", nodes, pop)
	}
}

// TestComputeBounds: the offline scan counts, for every tweet with a
// reaction, its thread's level sizes — Figure 2's root holds 3, 4, 2 — and
// a leaf has no entry, so it reads ε.
func TestComputeBounds(t *testing.T) {
	bounds := ComputeBounds(figure2Posts(), 4)
	got := map[social.PostID][]uint32{}
	bounds.Range(func(root social.PostID, levels []uint32) {
		got[root] = slices.Clone(levels)
	})
	want := map[social.PostID][]uint32{
		1: {3, 4, 2, 0},
		2: {2, 2, 0, 0},
		3: {1, 0, 0, 0},
		4: {1, 0, 0, 0},
		5: {2, 0, 0, 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("level counts = %v, want %v", got, want)
	}
	if phi := bounds.Phi(1, 0.1); math.Abs(phi-10.0/3.0) > 1e-12 {
		t.Errorf("φ(1) = %v, want 10/3", phi)
	}
	if phi := bounds.Phi(9, 0.1); phi != 0.1 {
		t.Errorf("leaf φ = %v, want ε", phi)
	}
}
