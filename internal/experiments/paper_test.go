package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
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
						for i, arm := range []paperArm{{sys: sys}, {sys: sys, prune: true}, {sys: sys, prune: true, specific: true}} {
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
