package tklus_test

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	tklus "repro"
	"repro/internal/baseline"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/metadb"
)

// ingestCorpus builds a tiny hand-rolled corpus: one "hotel" root per user
// near the query point, each with a few replies, so thread popularity is
// the deciding score component.
func ingestCorpus() (posts []*tklus.Post, loc tklus.Point, roots []*tklus.Post) {
	loc = tklus.Point{Lat: 43.7, Lon: -79.4}
	at := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	next := func() time.Time { at = at.Add(time.Second); return at }
	for u := tklus.UserID(1); u <= 3; u++ {
		root := tklus.NewPost(u, next(), loc, "great hotel downtown")
		posts = append(posts, root)
		roots = append(roots, root)
		for i := 0; i < int(u); i++ { // u1: 1 reply, u2: 2, u3: 3
			posts = append(posts, tklus.NewReply(100+u, next(), loc, "nice view", root))
		}
	}
	return posts, loc, roots
}

// algorithm1 is the paper's Algorithm 1 over a metadata database loaded
// with the acknowledged posts — the rsid B⁺-tree walk the figures time,
// which shares nothing with the corpus table System.Thread reads.
func algorithm1(t testing.TB, acked []*tklus.Post) *experiments.Builder {
	t.Helper()
	db, err := metadb.Load(metadb.DefaultOptions(), acked)
	if err != nil {
		t.Fatal(err)
	}
	return &experiments.Builder{DB: db, Depth: tklus.DefaultConfig().Engine.Params.ThreadDepth}
}

// ackedOracle is the exhaustive scan ranker over the acknowledged prefix:
// the built posts plus every post an ingest acknowledged, each of them a
// candidate.
func ackedOracle(built []*tklus.Post, acked ...*tklus.Post) *baseline.ScanRanker {
	return baseline.NewScanRanker(slices.Concat(built, acked), tklus.DefaultConfig().Engine.Params)
}

// TestIngestRecomputesThreadPopularity is the end-to-end coherence test:
// an ingested reply extends a thread an earlier search already scored, and
// the next search must score with the recomputed φ — matching the scan
// oracle over the acknowledged posts.
func TestIngestRecomputesThreadPopularity(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	q := tklus.Query{
		Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"},
		K: 3, Ranking: tklus.SumScore,
	}
	before, _, err := sys.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	// Grow u1's thread past everyone else's.
	reply := tklus.NewReply(999, time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC),
		loc, "still a nice view", roots[0])
	if err := sys.Ingest(reply); err != nil {
		t.Fatal(err)
	}

	after, _, err := sys.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	scoreOf := func(rs []tklus.UserResult, uid tklus.UserID) float64 {
		for _, r := range rs {
			if r.UID == uid {
				return r.Score
			}
		}
		t.Fatalf("user %d missing from %v", uid, rs)
		return 0
	}
	if !(scoreOf(after, 1) > scoreOf(before, 1)) {
		t.Errorf("u1 score did not grow after ingesting a reply: before %v, after %v",
			scoreOf(before, 1), scoreOf(after, 1))
	}

	// The post-ingest ranking must match the scan oracle over the
	// acknowledged posts.
	if want := ackedOracle(posts, reply).Search(q); !equalResults(after, want) {
		t.Errorf("post-ingest results %v, scan oracle %v", after, want)
	}

	t.Run("after Save and Load", func(t *testing.T) { ingestBelowDepthLimit(t, posts, loc) })
}

// ingestBelowDepthLimit is TestIngestRecomputesThreadPopularity's restart
// leg: a system saved and loaded back takes a reply Depth+1 hops below a
// batch root. The reply's Depth nearer ancestors each gain one tweet, the
// root's depth limit does not reach it, and every φ must then equal both
// Algorithm 1 over the acknowledged posts and a fresh build with the reply;
// the loaded system's Thread must materialize Algorithm 1's tree, and the
// rankings must equal the scan oracle over the acknowledged posts.
func ingestBelowDepthLimit(t *testing.T, posts []*tklus.Post, loc tklus.Point) {
	cfg := tklus.DefaultConfig()
	depth := cfg.Engine.Params.ThreadDepth
	at := time.Date(2013, 1, 5, 0, 0, 0, 0, time.UTC)
	chain := []*tklus.Post{tklus.NewPost(50, at, loc, "hotel by the lake")}
	for i := 0; i < depth; i++ {
		at = at.Add(time.Second)
		chain = append(chain, tklus.NewReply(tklus.UserID(51+i), at, loc, "hotel thread", chain[i]))
	}
	batch := append(slices.Clone(posts), chain...)
	sys, err := tklus.Build(batch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := tklus.Load(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	phi := func(s *tklus.System, sid tklus.PostID) float64 {
		return s.DB.Phi(sid, cfg.Engine.Params.Epsilon)
	}
	before := make([]float64, len(chain))
	for i, p := range chain {
		before[i] = phi(loaded, p.SID)
	}

	reply := tklus.NewReply(99, at.Add(time.Hour), loc, "deep in the hotel thread", chain[depth])
	if err := loaded.Ingest(reply); err != nil {
		t.Fatal(err)
	}
	fresh, err := tklus.Build(append(batch, reply), cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := algorithm1(t, append(batch, reply))
	for i, p := range chain {
		got := phi(loaded, p.SID)
		wantNodes, alg1 := oracle.Tree(p.SID, cfg.Engine.Params.Epsilon, nil)
		if got != alg1 {
			t.Errorf("chain[%d]: φ = %v, Algorithm 1 says %v", i, got, alg1)
		}
		if nodes, phi := loaded.Thread(p.SID); phi != alg1 || !reflect.DeepEqual(nodes, wantNodes) {
			t.Errorf("chain[%d]: Thread = %v (φ %v), Algorithm 1 says %v (φ %v)", i, nodes, phi, wantNodes, alg1)
		}
		if want := phi(fresh, p.SID); got != want {
			t.Errorf("chain[%d]: φ = %v, fresh build %v", i, got, want)
		}
		if moved := got != before[i]; moved != (i > 0) {
			t.Errorf("chain[%d] (%d hops above the reply): φ %v → %v", i, depth+1-i, before[i], got)
		}
	}
	for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
		q := tklus.Query{Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"}, K: 10, Ranking: ranking}
		got, _, err := loaded.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if want := ackedOracle(batch, reply).Search(q); !equalResults(got, want) {
			t.Errorf("%v: loaded and ingested %v, scan oracle %v", ranking, got, want)
		}
	}
}

// TestIngestRaisesMaxRankingBounds is the regression test for the old
// known limitation "max-ranking pruning bounds are batch-computed and not
// raised by live ingest". Two threads grow past the largest popularity of
// the batch build: the first fills the top-k with a score above it, the
// second (now best) overtakes it. With Ingest counting every reply into the
// level-count table, max-ranking results must stay exact — identical to the
// scan oracle over the grown corpus.
func TestIngestRaisesMaxRankingBounds(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	at := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	next := func() time.Time { at = at.Add(time.Second); return at }
	var replies []*tklus.Post
	for i := 0; i < 10; i++ { // u1's root is the first candidate in SID order
		replies = append(replies, tklus.NewReply(600+tklus.UserID(i), next(), loc, "still growing", roots[0]))
	}
	for i := 0; i < 25; i++ { // u3's root, a later candidate, grows even larger
		replies = append(replies, tklus.NewReply(700+tklus.UserID(i), next(), loc, "even busier", roots[2]))
	}
	if err := sys.Ingest(replies...); err != nil {
		t.Fatal(err)
	}

	oracle := ackedOracle(posts, replies...)

	for _, k := range []int{1, 3} {
		q := tklus.Query{
			Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"},
			K: k, Ranking: tklus.MaxScore,
		}
		got, _, err := sys.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.Search(q)
		if len(got) != len(want) {
			t.Fatalf("k=%d: post-ingest results %v, scan oracle %v", k, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("k=%d rank %d: post-ingest %+v, scan oracle %+v", k, i, got[i], want[i])
			}
		}
	}
}

// TestIngestRules covers the Ingest error paths: out-of-order timestamps
// are rejected and leave the system queryable.
func TestIngestRules(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stale := tklus.NewReply(999, time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC), loc, "late", roots[0])
	if err := sys.Ingest(stale); err == nil {
		t.Error("out-of-order ingest accepted")
	}
	if _, _, err := sys.Search(context.Background(), tklus.Query{
		Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"}, K: 3,
	}); err != nil {
		t.Errorf("system unqueryable after rejected ingest: %v", err)
	}
}

// TestConcurrentSearchAndIngest drives parallel searches against live
// ingests — the serving scenario the RWMutex layering exists for — on the
// end-to-end benchmark's serving composition (hence the no-op WithPopCache
// and WithReplySnapshot), and pins what a search after an acknowledged
// ingest owes: once the writer and the searchers have drained, both
// rankings answer as the scan oracle over all acknowledged posts. A memo of φ filled by a search racing the ingest
// that extends the thread breaks this in roughly one system in nine, so 200
// fresh systems catch it with near certainty. Run under -race it is also
// the safety net for the read paths ingest mutates under.
func TestConcurrentSearchAndIngest(t *testing.T) {
	posts, loc, roots := ingestCorpus()
	replies := make([]*tklus.Post, 50)
	at := time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := range replies {
		at = at.Add(time.Second)
		replies[i] = tklus.NewReply(500+tklus.UserID(i%3), at, loc, "busy thread", roots[i%3])
	}
	queries := make([]tklus.Query, 0, 2)
	for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
		queries = append(queries, tklus.Query{
			Loc: loc, RadiusKm: 5, Keywords: []string{"hotel"}, K: 3, Ranking: ranking,
		})
	}
	oracle := ackedOracle(posts, replies...)
	want := make([][]tklus.UserResult, len(queries))
	for i, q := range queries {
		want[i] = oracle.Search(q)
	}

	for round := 0; round < 200; round++ {
		sys, err := tklus.Build(posts, tklus.DefaultConfig(tklus.WithPopCache(4096), tklus.WithReplySnapshot()))
		if err != nil {
			t.Fatal(err)
		}
		written := make(chan struct{})
		var wg sync.WaitGroup
		for _, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-written:
						return
					default:
					}
					if _, _, err := sys.Search(context.Background(), q); err != nil {
						t.Errorf("search: %v", err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() { // the corpus table's readers, racing its appends
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-written:
					return
				default:
				}
				root := roots[i%len(roots)]
				if nodes, _ := sys.Thread(root.SID); len(nodes) < 2 || nodes[0].UID != root.UID {
					t.Errorf("thread of %d: %v", root.SID, nodes)
					return
				}
				if n := sys.DB.PostCountOfUser(root.UID); n < 1 {
					t.Errorf("|P_%d| = %d", root.UID, n)
					return
				}
			}
		}()
		for i, r := range replies {
			if err := sys.Ingest(r); err != nil {
				t.Errorf("ingest %d: %v", i, err)
				break
			}
		}
		close(written)
		wg.Wait()
		if t.Failed() {
			return
		}
		for i, q := range queries {
			got, _, err := sys.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !equalResults(got, want[i]) {
				t.Fatalf("system %d, %v after 50 acknowledged replies: %v, scan oracle over all posts: %v",
					round, q.Ranking, got, want[i])
			}
		}
	}
}

// TestThreadMatchesAlgorithm1 checks System.Thread, which reads the corpus
// table ingest keeps, against the paper's Algorithm 1 over a metadata
// database loaded with the acknowledged posts: every post's tree (BFS
// order, authors, parents, levels) and φ — the tree's and the one the
// table's level counts give a search — on a build, on a build that
// ingested replies deepening a chain past the thread depth, on that system
// saved and loaded back, and on a follower replica of a shard once it has
// applied the shipped stream.
func TestThreadMatchesAlgorithm1(t *testing.T) {
	dcfg := datagen.DefaultConfig()
	dcfg.NumUsers, dcfg.NumPosts = 300, 1500
	corpus, err := datagen.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	posts := corpus.Posts
	cfg := tklus.DefaultConfig()
	depth := cfg.Engine.Params.ThreadDepth

	// The live stream: a chain depth+2 replies deep under a batch post, then
	// a reply to every tenth batch post, dated after the whole corpus.
	last := posts[0].Time
	for _, p := range posts {
		if p.Time.After(last) {
			last = p.Time
		}
	}
	loc := corpus.Config.Cities[0].Center
	next := func() time.Time { last = last.Add(time.Second); return last }
	acked := slices.Clone(posts)
	chain := []*tklus.Post{posts[len(posts)/2]}
	for i := 0; i <= depth+1; i++ {
		chain = append(chain, tklus.NewReply(tklus.UserID(9000+i), next(), loc, "hotel thread", chain[i]))
	}
	live := slices.Clone(chain[1:])
	for i := 0; i < len(posts); i += 10 {
		live = append(live, tklus.NewReply(posts[i].UID, next(), loc, "same here", posts[i]))
	}
	acked = append(acked, live...)

	built, err := tklus.Build(posts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingested, err := tklus.Build(posts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ingested.Ingest(live...); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ingested.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := tklus.Load(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc := tklus.DefaultReplicationConfig()
	rc.Dir = t.TempDir()
	rs, err := tklus.BuildReplicatedSharded(posts, cfg, tklus.DefaultShardingConfig(), rc)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if err := rs.Ingest(live...); err != nil {
		t.Fatal(err)
	}
	if err := rs.WaitCaughtUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	g := rs.Groups()[0]
	var follower *tklus.System
	for _, rep := range g.Replicas() {
		if rep.Name() != g.Leader() {
			follower = rep.System()
		}
	}
	if follower == nil {
		t.Fatal("the replica group has no follower")
	}

	for _, c := range []struct {
		name  string
		sys   *tklus.System
		acked []*tklus.Post
	}{
		{"build", built, posts},
		{"build, ingested", ingested, acked},
		{"saved and loaded", loaded, acked},
		{"follower replica", follower, acked},
	} {
		t.Run(c.name, func(t *testing.T) {
			oracle := algorithm1(t, c.acked)
			deepest := 0
			for _, p := range c.acked {
				want, wantPhi := oracle.Tree(p.SID, cfg.Engine.Params.Epsilon, nil)
				got, gotPhi := c.sys.Thread(p.SID)
				if gotPhi != wantPhi || !reflect.DeepEqual(got, want) {
					t.Fatalf("thread of %d: %v (φ %v), Algorithm 1 says %v (φ %v)", p.SID, got, gotPhi, want, wantPhi)
				}
				if phi := c.sys.DB.Phi(p.SID, cfg.Engine.Params.Epsilon); phi != wantPhi {
					t.Fatalf("the table's φ(%d) = %v, Algorithm 1 says %v", p.SID, phi, wantPhi)
				}
				deepest = max(deepest, got[len(got)-1].Level)
			}
			if len(c.acked) > len(posts) && deepest != depth+1 {
				t.Errorf("the deepest tree reaches level %d, want the depth limit's %d", deepest, depth+1)
			}
		})
	}
}
