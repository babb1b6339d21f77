package core_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/invindex"
	"repro/internal/metadb"
	"repro/internal/social"
)

// TestPartialsSingleShardIdentity checks the degenerate scatter-gather:
// one shard's SearchPartials merged alone must reproduce SearchContext
// byte-for-byte (same floats, same order), for every ranking/semantic
// combination.
func TestPartialsSingleShardIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	posts, center := randomCorpus(rng, 800)

	opts := core.DefaultOptions()
	eng := buildEngine(t, posts, opts, 5)
	for _, sem := range []core.Semantic{core.Or, core.And} {
		for _, rank := range []core.Ranking{core.SumScore, core.MaxScore} {
			q := core.Query{
				Loc: center, RadiusKm: 25,
				Keywords: []string{"hotel", "pizza"},
				K:        10, Semantic: sem, Ranking: rank,
			}
			want, wantStats, err := eng.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			parts, err := eng.SearchPartials(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := core.MergePartials(q, opts.Params.Alpha, []*core.Partials{parts})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v/%v: merged %v != monolithic %v", sem, rank, got, want)
			}
			if stats.Candidates != wantStats.Candidates {
				t.Errorf("%v/%v: candidates %d != %d", sem, rank, stats.Candidates, wantStats.Candidates)
			}
		}
	}
}

// splitEngines partitions posts by geohash prefix into nShards engines
// that mirror BuildSharded's wiring at the core level: every shard shares
// the full corpus table, the paged metadata DB and thread bounds (the
// paper's centralized metadata database, replicated), while indexing only
// its own region.
func splitEngines(t *testing.T, posts []*social.Post, opts core.Options, nShards int) []*core.Engine {
	t.Helper()
	db, err := metadb.Load(metadb.DefaultOptions(), posts)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := social.NewCorpus(posts, opts.Params.ThreadDepth)
	if err != nil {
		t.Fatal(err)
	}

	groups := make([][]*social.Post, nShards)
	prefixShard := make(map[string]int)
	for _, p := range posts {
		pre := geo.Encode(p.Loc, 3)
		sh, ok := prefixShard[pre]
		if !ok {
			sh = len(prefixShard) % nShards
			prefixShard[pre] = sh
		}
		groups[sh] = append(groups[sh], p)
	}

	engines := make([]*core.Engine, 0, nShards)
	for _, group := range groups {
		fsys := dfs.New(dfs.DefaultOptions())
		bopts := invindex.DefaultBuildOptions()
		bopts.GeohashLen = 5
		idx, _, err := invindex.Build(fsys, group, bopts)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewPartitionedEngine([]core.Partition{{Source: idx, Lookup: db}}, corpus, opts)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, eng)
	}
	return engines
}

// TestPartialsSplitCorpusMerge is the core-level equivalence proof behind
// the sharded tier: a corpus split across several region-local indexes
// sharing one metadata DB, queried shard by shard through SearchPartials
// and merged, must equal a monolithic engine over the union corpus
// exactly — including when threads and users straddle shard boundaries
// (randomCorpus makes ~35% of posts replies/forwards to arbitrary
// earlier posts, so cross-shard threads are guaranteed at this size).
func TestPartialsSplitCorpusMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	posts, center := randomCorpus(rng, 1500)
	opts := core.DefaultOptions()
	mono := buildEngine(t, posts, opts, 5)

	for _, nShards := range []int{2, 3, 5} {
		engines := splitEngines(t, posts, opts, nShards)
		for _, sem := range []core.Semantic{core.Or, core.And} {
			for _, rank := range []core.Ranking{core.SumScore, core.MaxScore} {
				for _, radius := range []float64{12, 45} {
					q := core.Query{
						Loc: center, RadiusKm: radius,
						Keywords: []string{"cafe", "club"},
						K:        10, Semantic: sem, Ranking: rank,
					}
					want, _, err := mono.Search(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					parts := make([]*core.Partials, len(engines))
					for i, eng := range engines {
						if parts[i], err = eng.SearchPartials(context.Background(), q); err != nil {
							t.Fatal(err)
						}
					}
					got, _, err := core.MergePartials(q, opts.Params.Alpha, parts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("shards=%d %v/%v r=%v: merged %v != monolithic %v",
							nShards, sem, rank, radius, got, want)
					}
				}
			}
		}
	}
}

func TestMergePartialsErrors(t *testing.T) {
	cand := func(tid social.PostID, uid social.UserID) core.CandidateScore {
		return core.CandidateScore{TID: tid, UID: uid, Delta: 0.5, Rho: 0.3}
	}
	user := func(uid social.UserID) core.UserPartial {
		return core.UserPartial{UID: uid, Posts: 3}
	}
	q := core.Query{K: 5, Ranking: core.SumScore}

	t.Run("nil partial", func(t *testing.T) {
		_, _, err := core.MergePartials(q, 0.5, []*core.Partials{nil})
		if err == nil {
			t.Fatal("nil partial accepted")
		}
	})

	t.Run("duplicate tweet across shards", func(t *testing.T) {
		a := &core.Partials{Cands: []core.CandidateScore{cand(7, 1)}, Users: []core.UserPartial{user(1)}}
		b := &core.Partials{Cands: []core.CandidateScore{cand(7, 1)}, Users: []core.UserPartial{user(1)}}
		_, _, err := core.MergePartials(q, 0.5, []*core.Partials{a, b})
		if err == nil || !strings.Contains(err.Error(), "overlapping") {
			t.Fatalf("err = %v, want overlapping-shards error", err)
		}
	})

	t.Run("duplicate tweet across three shards", func(t *testing.T) {
		a := &core.Partials{Cands: []core.CandidateScore{cand(2, 1), cand(9, 1)}, Users: []core.UserPartial{user(1)}}
		b := &core.Partials{Cands: []core.CandidateScore{cand(5, 2)}, Users: []core.UserPartial{user(2)}}
		c := &core.Partials{Cands: []core.CandidateScore{cand(3, 3), cand(9, 3)}, Users: []core.UserPartial{user(3)}}
		_, _, err := core.MergePartials(q, 0.5, []*core.Partials{a, b, c})
		if err == nil || !strings.Contains(err.Error(), "tweet 9 reported by two shards") {
			t.Fatalf("err = %v, want tweet 9 named as reported by two shards", err)
		}
	})

	t.Run("candidate user missing from user partials", func(t *testing.T) {
		p := &core.Partials{Cands: []core.CandidateScore{cand(3, 8)}}
		_, _, err := core.MergePartials(q, 0.5, []*core.Partials{p})
		if err == nil || !strings.Contains(err.Error(), "missing") {
			t.Fatalf("err = %v, want missing-user error", err)
		}
		qMax := q
		qMax.Ranking = core.MaxScore
		_, _, err = core.MergePartials(qMax, 0.5, []*core.Partials{p})
		if err == nil || !strings.Contains(err.Error(), "missing") {
			t.Fatalf("max ranking: err = %v, want missing-user error", err)
		}
	})

	// A user with a candidate has at least that post; a shard reporting
	// fewer would otherwise be scored with δ(u,q) = 0.
	t.Run("user reported with no posts", func(t *testing.T) {
		for _, tc := range []struct {
			name  string
			parts []*core.Partials
			want  string
		}{
			{"fan-out 1", []*core.Partials{
				{Cands: []core.CandidateScore{cand(3, 8)}, Users: []core.UserPartial{{UID: 8, Posts: 0}}},
			}, "shard partials 0 report user 8 with 0 posts"},
			{"fan-out 2", []*core.Partials{
				{Cands: []core.CandidateScore{cand(2, 1)}, Users: []core.UserPartial{user(1)}},
				{Cands: []core.CandidateScore{cand(5, 6)}, Users: []core.UserPartial{{UID: 6, Posts: -2}}},
			}, "shard partials 1 report user 6 with -2 posts"},
		} {
			for _, rank := range []core.Ranking{core.SumScore, core.MaxScore} {
				qr := q
				qr.Ranking = rank
				_, _, err := core.MergePartials(qr, 0.5, tc.parts)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s, %v: err = %v, want %q", tc.name, rank, err, tc.want)
				}
			}
		}
	})

	// Every shard reads |P_u| from the same replicated database, so two
	// counts for one user mean a shard serves a stale or foreign replica;
	// keeping either would rank the user on a guess.
	t.Run("user reported with two post counts", func(t *testing.T) {
		parts := []*core.Partials{
			{Cands: []core.CandidateScore{cand(2, 1)}, Users: []core.UserPartial{user(1)}},
			{Cands: []core.CandidateScore{cand(4, 2)}, Users: []core.UserPartial{user(2)}},
			{Cands: []core.CandidateScore{cand(5, 1)}, Users: []core.UserPartial{{UID: 1, Posts: 4}}},
		}
		for _, rank := range []core.Ranking{core.SumScore, core.MaxScore} {
			qr := q
			qr.Ranking = rank
			_, _, err := core.MergePartials(qr, 0.5, parts)
			want := "shard partials 0 report user 1 with 3 posts, shard partials 2 with 4"
			if !errors.Is(err, core.ErrPartialsDisagree) || !strings.Contains(err.Error(), want) {
				t.Errorf("%v: err = %v, want ErrPartialsDisagree naming %q", rank, err, want)
			}
		}
	})

	// A NaN or infinite partial would reach Combine and order the ranking
	// by garbage; the error names the shard and the tweet.
	t.Run("non-finite score", func(t *testing.T) {
		for _, bad := range []core.CandidateScore{
			{TID: 5, UID: 6, Delta: math.NaN(), Rho: 0.3},
			{TID: 5, UID: 6, Delta: 0.5, Rho: math.Inf(1)},
			{TID: 5, UID: 6, Delta: math.Inf(-1), Rho: 0.3},
			{TID: 5, UID: 6, Delta: 0.5, Rho: math.NaN()},
		} {
			parts := []*core.Partials{
				{Cands: []core.CandidateScore{cand(2, 1)}, Users: []core.UserPartial{user(1)}},
				{Cands: []core.CandidateScore{bad}, Users: []core.UserPartial{user(6)}},
			}
			for _, rank := range []core.Ranking{core.SumScore, core.MaxScore} {
				qr := q
				qr.Ranking = rank
				_, _, err := core.MergePartials(qr, 0.5, parts)
				if want := "shard partials 1 report tweet 5 with"; err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("ρ %v, δ %v, %v: err = %v, want %q", bad.Rho, bad.Delta, rank, err, want)
				}
			}
		}
	})

	t.Run("unknown ranking", func(t *testing.T) {
		bad := q
		bad.Ranking = core.Ranking(99)
		_, _, err := core.MergePartials(bad, 0.5, nil)
		if !errors.Is(err, core.ErrBadQuery) {
			t.Fatalf("err = %v, want ErrBadQuery", err)
		}
	})
}

// TestMergePartialsRejectsUnorderedLegs pins the Partials.Cands contract at
// the router: a shard's list must be strictly TID-ascending, and one that is
// not — out of order, or naming one tweet twice — fails the merge instead of
// being sorted back into shape, at fan-out 1 as at fan-out 2. Ordered legs
// beside it interleave into one ascending stream.
func TestMergePartialsRejectsUnorderedLegs(t *testing.T) {
	cand := func(tid social.PostID, uid social.UserID) core.CandidateScore {
		return core.CandidateScore{TID: tid, UID: uid, Delta: 0.5, Rho: 0.3}
	}
	users := []core.UserPartial{{UID: 1, Posts: 3}, {UID: 2, Posts: 4}}
	q := core.Query{K: 5, Ranking: core.SumScore}
	good := &core.Partials{Cands: []core.CandidateScore{cand(1, 1), cand(6, 2)}, Users: users}
	legs := []struct {
		name  string
		cands []core.CandidateScore
	}{
		{"unsorted leg", []core.CandidateScore{cand(4, 1), cand(8, 2), cand(3, 1)}},
		{"duplicate-TID leg", []core.CandidateScore{cand(4, 1), cand(4, 2)}},
	}
	for _, leg := range legs {
		bad := &core.Partials{Cands: leg.cands, Users: users}
		for _, parts := range [][]*core.Partials{{bad}, {good, bad}} {
			_, _, err := core.MergePartials(q, 0.5, parts)
			if err == nil || !strings.Contains(err.Error(), "not in ascending tweet order") {
				t.Errorf("%s at fan-out %d: err = %v, want an ascending-order error", leg.name, len(parts), err)
			}
		}
	}

	ordered := &core.Partials{Cands: []core.CandidateScore{cand(3, 2), cand(4, 1), cand(8, 2)}, Users: users}
	got, _, err := core.MergePartials(q, 0.5, []*core.Partials{good, ordered})
	if err != nil {
		t.Fatal(err)
	}
	mono := &core.Partials{Cands: []core.CandidateScore{cand(1, 1), cand(3, 2), cand(4, 1), cand(6, 2), cand(8, 2)}, Users: users}
	want, _, err := core.MergePartials(q, 0.5, []*core.Partials{mono})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("two ordered legs merged to %v, one interleaved leg gives %v", got, want)
	}
}

// TestQueryStatsAddSumsEveryCounter guards the one place QueryStats
// counters are summed: every integer field, found by reflection, must come
// out added — so a counter introduced later cannot be forgotten by the
// shard merge, the federation or the experiment runner, which all go through
// Add. The exceptions are named here with the reason Add leaves them alone.
func TestQueryStatsAddSumsEveryCounter(t *testing.T) {
	notSummed := map[string]string{
		"Cells":          "callers choose max (shards of one query) or sum (platforms, batches)",
		"Elapsed":        "wall time is the caller's to measure",
		"ReplicaLagSIDs": "a worst case across replicas, not a total",
	}
	primes := []int64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113}
	var a, b core.QueryStats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	want := map[string]int64{}
	next := 0
	for i := 0; i < av.NumField(); i++ {
		if !av.Field(i).CanInt() {
			continue
		}
		name := av.Type().Field(i).Name
		pa, pb := primes[next], primes[next+1]
		next += 2
		av.Field(i).SetInt(pa)
		bv.Field(i).SetInt(pb)
		if _, skip := notSummed[name]; skip {
			want[name] = pa
		} else {
			want[name] = pa + pb
		}
	}
	if len(want) <= len(notSummed) {
		t.Fatalf("reflection found only %d integer fields", len(want))
	}
	a.Add(&b)
	for name, w := range want {
		if got := av.FieldByName(name).Int(); got != w {
			t.Errorf("after Add, %s = %d, want %d", name, got, w)
		}
	}
}

// TestPartialsChargeSearchUserIO pins that the two exits charge equal row
// I/O. On a paged engine (no caches, no snapshots) Search and SearchPartials
// run the same retrieval, read every φ from the table and every |P_u| from
// the corpus table (which charges nothing on either exit), so both must
// charge the same index-node and page reads, for both rankings.
func TestPartialsChargeSearchUserIO(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	posts, center := randomCorpus(rng, 800)
	eng := buildEngine(t, posts, core.DefaultOptions(), 5)
	db := eng.Partitions()[0].Lookup.(*metadb.DB)
	for _, rank := range []core.Ranking{core.SumScore, core.MaxScore} {
		q := core.Query{Loc: center, RadiusKm: 25, Keywords: []string{"hotel", "pizza"}, K: 10, Ranking: rank}
		db.ResetStats()
		if _, _, err := eng.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		mono := db.Stats()
		db.ResetStats()
		parts, err := eng.SearchPartials(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		shard := db.Stats()
		if len(parts.Users) < 10 {
			t.Fatalf("%v: only %d candidate users, fixture too small", rank, len(parts.Users))
		}
		if shard.IndexReads != mono.IndexReads || shard.PageReads != mono.PageReads {
			t.Errorf("%v: SearchPartials charged %d index / %d page reads, Search %d / %d (%d users)",
				rank, shard.IndexReads, shard.PageReads, mono.IndexReads, mono.PageReads, len(parts.Users))
		}
	}
}

// fuzzFloats are the ρ and δ values FuzzMergePartials draws from: in-range
// ones, out-of-range finite ones, and the non-finite ones MergePartials must
// reject.
var fuzzFloats = []float64{0, 0.25, 0.5, 1, math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 1e308}

// decodePartials turns fuzz bytes into shard partials: a shard count, then
// ops of either a candidate {shard, 0, tid, uid, δ, ρ} or a user
// {shard, 1, uid, posts}, with small TID and UID ranges so that repeats,
// disorder and users missing from their shard's list all occur.
func decodePartials(data []byte) []*core.Partials {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	parts := make([]*core.Partials, 1+int(next()%4))
	for i := range parts {
		parts[i] = &core.Partials{}
	}
	for len(data) > 0 {
		p := parts[int(next())%len(parts)]
		if next()%2 == 0 {
			p.Cands = append(p.Cands, core.CandidateScore{
				TID: social.PostID(next() % 32), UID: social.UserID(next() % 8),
				Delta: fuzzFloats[int(next())%len(fuzzFloats)], Rho: fuzzFloats[int(next())%len(fuzzFloats)],
			})
		} else {
			p.Users = append(p.Users, core.UserPartial{UID: social.UserID(next() % 8), Posts: int(next()%6) - 1})
		}
	}
	return parts
}

// FuzzMergePartials is the router's hostile-shard harness: whatever the
// shards report, MergePartials returns an error or a valid ranking — at most
// k users, each one a candidate's author, none twice, ordered by score
// descending then UID, and no NaN score — and never panics.
func FuzzMergePartials(f *testing.F) {
	cand := func(shard, tid, uid, delta, rho byte) []byte { return []byte{shard, 0, tid, uid, delta, rho} }
	user := func(shard, uid, posts byte) []byte { return []byte{shard, 1, uid, posts} }
	seed := func(shards byte, ops ...[]byte) []byte {
		out := []byte{shards}
		for _, op := range ops {
			out = append(out, op...)
		}
		return out
	}
	for _, s := range [][]byte{
		// Valid: two shards, interleaved tweets, users with posts.
		seed(1, cand(0, 1, 1, 2, 1), cand(1, 2, 2, 3, 2), cand(0, 5, 1, 1, 3), user(0, 1, 3), user(1, 2, 4)),
		// Wrong order within a shard.
		seed(0, cand(0, 9, 1, 2, 1), cand(0, 4, 1, 2, 1), user(0, 1, 3)),
		// One tweet reported twice, by one shard and by two.
		seed(0, cand(0, 4, 1, 2, 1), cand(0, 4, 1, 2, 1), user(0, 1, 3)),
		seed(1, cand(0, 4, 1, 2, 1), cand(1, 4, 1, 2, 1), user(0, 1, 3), user(1, 1, 3)),
		// NaN and infinite δ and ρ.
		seed(0, cand(0, 3, 1, 4, 1), user(0, 1, 3)),
		seed(0, cand(0, 3, 1, 2, 5), user(0, 1, 3)),
		seed(1, cand(0, 3, 1, 6, 1), cand(1, 7, 2, 2, 4), user(0, 1, 3), user(1, 2, 3)),
		// |P_u| below 1, and a candidate's user missing.
		seed(0, cand(0, 3, 1, 2, 1), user(0, 1, 0)),
		seed(0, cand(0, 3, 2, 2, 1), user(0, 1, 3)),
		// One user's |P_u| differing between two shards.
		seed(1, cand(0, 1, 1, 2, 1), cand(1, 2, 1, 3, 2), user(0, 1, 3), user(1, 1, 4)),
	} {
		f.Add(s, uint8(3), false)
		f.Add(s, uint8(1), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, k uint8, maxRanking bool) {
		parts := decodePartials(data)
		q := core.Query{K: 1 + int(k%8), Ranking: core.SumScore}
		if maxRanking {
			q.Ranking = core.MaxScore
		}
		results, _, err := core.MergePartials(q, 0.5, parts)
		if err != nil {
			return
		}
		counts := make(map[social.UserID]int)
		for _, p := range parts {
			for _, u := range p.Users {
				if n, ok := counts[u.UID]; ok && n != u.Posts {
					t.Fatalf("merged partials that report user %d with %d and %d posts", u.UID, n, u.Posts)
				}
				counts[u.UID] = u.Posts
			}
		}
		authors := make(map[social.UserID]bool)
		for _, p := range parts {
			for _, c := range p.Cands {
				authors[c.UID] = true
			}
		}
		if len(results) > q.K {
			t.Fatalf("%d results for k = %d", len(results), q.K)
		}
		seen := make(map[social.UserID]bool)
		for i, r := range results {
			if !authors[r.UID] || seen[r.UID] || math.IsNaN(r.Score) {
				t.Fatalf("result %d %+v: an author of no candidate, a repeat, or a NaN score (%v)", i, r, results)
			}
			seen[r.UID] = true
			if i > 0 {
				prev := results[i-1]
				if r.Score > prev.Score || (r.Score == prev.Score && r.UID <= prev.UID) {
					t.Fatalf("results out of order at %d: %v", i, results)
				}
			}
		}
	})
}
