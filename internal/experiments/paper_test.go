package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	tklus "repro"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/social"
)

// TestPaperArmMatchesEngine pins the paper's regime to the serving engine:
// over both rankings and semantics, radii 5/20/50 km, pruning on and off,
// and hot-keyword and global bounds, the paper arm — Algorithm 1 per
// candidate, Algorithm 5's pruning — returns exactly Engine.Search's users
// and scores, float for float. Algorithm 4 prunes nothing and builds every
// candidate's thread; under max ranking every candidate is built or pruned;
// and pruning is monotone in the bound: specific ≥ global ≥ off = 0.
func TestPaperArmMatchesEngine(t *testing.T) {
	s := setup(t)
	sys, err := s.System(4)
	if err != nil {
		t.Fatal(err)
	}
	var pruned, results int64
	for nk := 1; nk <= 2; nk++ {
		for _, spec := range sample(s.queriesWithKeywordCount(nk), 4, s.Cfg.Seed) {
			for _, ranking := range []core.Ranking{core.SumScore, core.MaxScore} {
				for _, sem := range []core.Semantic{core.Or, core.And} {
					for _, radius := range []float64{5, 20, 50} {
						q := toQuery(spec, radius, s.Cfg.K, sem, ranking)
						want, _, err := sys.Engine.Search(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						results += int64(len(want))
						var prunedBy [3]int64 // off, global, specific
						for i, arm := range []paperArm{{sys: sys}, {sys: sys, bounds: s.bounds[sys], prune: true}, s.paper(sys)} {
							label := fmt.Sprintf("%v %v %v r=%v prune=%v specific=%v", spec.Keywords, ranking, sem, radius, arm.prune, arm.specific)
							got, st, err := arm.Search(q)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: paper arm %v, engine %v", label, got, want)
							}
							if st.ThreadsBuilt+st.ThreadsPruned != int64(st.Candidates) {
								t.Fatalf("%s: built %d + pruned %d != %d candidates", label, st.ThreadsBuilt, st.ThreadsPruned, st.Candidates)
							}
							if ranking == core.SumScore && st.ThreadsPruned != 0 {
								t.Fatalf("%s: Algorithm 4 pruned %d threads", label, st.ThreadsPruned)
							}
							prunedBy[i] = st.ThreadsPruned
						}
						if prunedBy[0] != 0 || prunedBy[1] < prunedBy[0] || prunedBy[2] < prunedBy[1] {
							t.Fatalf("%v %v %v r=%v: pruned off/global/specific = %v, want 0 ≤ global ≤ specific",
								spec.Keywords, ranking, sem, radius, prunedBy)
						}
						pruned += prunedBy[2]
					}
				}
			}
		}
	}
	if pruned == 0 || results < 100 {
		t.Fatalf("%d threads pruned, %d results: the grid exercises too little", pruned, results)
	}
}

// figure2System builds a system over the thread of Figure 2 — root p1 with
// replies p2, p3, p4; p2 has p5, p6; p3 has p7; p4 has p8; p5 has p9, p10 —
// plus a lone tweet p11, every tweet saying "hotel".
func figure2System(t *testing.T) (*tklus.System, []*social.Post) {
	t.Helper()
	parents := []social.PostID{0, 1, 1, 1, 2, 2, 3, 4, 5, 5, 0}
	posts := make([]*social.Post, len(parents))
	for i, rsid := range parents {
		sid := social.PostID(i + 1)
		posts[i] = &social.Post{
			SID: sid, UID: social.UserID(sid + 100), Time: time.Unix(int64(sid), 0),
			Loc: geo.Point{Lat: 43.7, Lon: -79.4}, RSID: rsid, Words: []string{"hotel"},
		}
		if rsid != social.NoPost {
			posts[i].Kind, posts[i].RUID = social.Reply, social.UserID(rsid+100)
		}
	}
	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys, posts
}

// TestPaperBounds: on Figure 2 the root's 3 direct replies are t_m, its
// thread (3/2 + 4/3 + 2/4 = 10/3) is the largest, every tweet contains
// "hotel" so that keyword's bound is the largest too, and a hot keyword no
// tweet contains collapses to ε. t_m is read from the system's table, so a
// saved and reloaded system gives the same bounds.
func TestPaperBounds(t *testing.T) {
	sys, posts := figure2System(t)
	dir := t.TempDir()
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := tklus.Load(dir, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, sys := range map[string]*tklus.System{"built": sys, "loaded": loaded} {
		b := newPaperBounds(sys.Engine, posts, []string{"hotel", "pizza"})
		if b.TM != 3 {
			t.Errorf("%s: TM = %d, want 3 (the root has 3 direct replies)", name, b.TM)
		}
		if math.Abs(b.MaxObserved-10.0/3.0) > 1e-12 {
			t.Errorf("%s: MaxObserved = %v, want 10/3", name, b.MaxObserved)
		}
		if math.Abs(b.PerKeyword["hotel"]-10.0/3.0) > 1e-12 {
			t.Errorf("%s: hotel bound = %v, want 10/3", name, b.PerKeyword["hotel"])
		}
		if b.PerKeyword["pizza"] != 0.1 {
			t.Errorf("%s: pizza bound = %v, want ε", name, b.PerKeyword["pizza"])
		}
		// Def11 with t_m = 3 at the default depth 6: 3 · (1/2 + … + 1/7).
		if want := 3 * (1.0/2 + 1.0/3 + 1.0/4 + 1.0/5 + 1.0/6 + 1.0/7); math.Abs(b.Def11-want) > 1e-12 {
			t.Errorf("%s: Def11 = %v, want %v", name, b.Def11, want)
		}
	}
}

// TestBoundsSoundness: MaxObserved dominates the popularity Algorithm 1
// computes for every thread of the experiment corpus.
func TestBoundsSoundness(t *testing.T) {
	s := setup(t)
	sys, err := s.System(4)
	if err != nil {
		t.Fatal(err)
	}
	b := s.bounds[sys]
	builder := Builder{DB: sys.DB, Depth: sys.Engine.Opts.Params.ThreadDepth}
	for _, p := range s.Corpus.Posts {
		if nodes, pop := builder.Tree(p.SID, sys.Engine.Opts.Params.Epsilon, nil); pop > b.MaxObserved {
			t.Fatalf("thread %d (%d tweets) popularity %v exceeds MaxObserved %v", p.SID, len(nodes), pop, b.MaxObserved)
		}
	}
}

func TestDef11Bound(t *testing.T) {
	// depth 2 => levels 2..3 => t_m*(1/2+1/3).
	if got := def11Bound(6, 2); math.Abs(got-6*(0.5+1.0/3.0)) > 1e-12 {
		t.Errorf("def11Bound = %v", got)
	}
	if got := def11Bound(0, 5); got != 0 {
		t.Errorf("zero t_m bound = %v", got)
	}
}

func TestForQuerySemantics(t *testing.T) {
	b := &paperBounds{
		MaxObserved: 10,
		PerKeyword:  map[string]float64{"restaur": 8, "mexican": 2},
	}
	// Section VI-B5: AND uses the smallest keyword bound, OR the largest.
	if got := b.ForQuery([]string{"restaur", "mexican"}, true, true); got != 2 {
		t.Errorf("AND bound = %v, want 2", got)
	}
	if got := b.ForQuery([]string{"restaur", "mexican"}, false, true); got != 8 {
		t.Errorf("OR bound = %v, want 8", got)
	}
	// Unknown keywords fall back to the global bound.
	if got := b.ForQuery([]string{"unknown"}, true, true); got != 10 {
		t.Errorf("unknown keyword bound = %v, want global", got)
	}
	if got := b.ForQuery([]string{"restaur", "unknown"}, false, true); got != 10 {
		t.Errorf("OR with unknown = %v, want global 10", got)
	}
	// Specific bounds disabled (Figure 12 baseline).
	if got := b.ForQuery([]string{"restaur"}, true, false); got != 10 {
		t.Errorf("disabled specific bound = %v, want global", got)
	}
	// No keywords: global.
	if got := b.ForQuery(nil, true, true); got != 10 {
		t.Errorf("no-keyword bound = %v, want global", got)
	}
}
