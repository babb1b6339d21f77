package tklus_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	tklus "repro"
	"repro/internal/datagen"
	"repro/internal/score"
	"repro/internal/social"
)

// recount is the offline pre-computation of Section V-B over the
// acknowledged posts, run from scratch: per user |P_u|, and per post
// something reacts to, its thread's level sizes to depth, walked down a
// child adjacency — what the corpus table must hold after any history.
type recount struct {
	posts  map[tklus.UserID]int
	levels map[tklus.PostID][]uint32
}

func recountPosts(posts []*tklus.Post, depth int) recount {
	r := recount{posts: map[tklus.UserID]int{}, levels: map[tklus.PostID][]uint32{}}
	children := map[tklus.PostID][]tklus.PostID{}
	for _, p := range posts {
		r.posts[p.UID]++
		if p.RSID != social.NoPost {
			children[p.RSID] = append(children[p.RSID], p.SID)
		}
	}
	for _, p := range posts {
		if len(children[p.SID]) == 0 {
			continue
		}
		row := make([]uint32, depth)
		frontier := []tklus.PostID{p.SID}
		for h := 0; h < depth && len(frontier) > 0; h++ {
			var next []tklus.PostID
			for _, sid := range frontier {
				next = append(next, children[sid]...)
			}
			row[h] = uint32(len(next))
			frontier = next
		}
		r.levels[p.SID] = row
	}
	return r
}

// check requires table to bit-equal the recount: every acknowledged post's
// φ at an ε below and above ½, the level sizes of every counted thread,
// and every user's |P_u|.
func (r recount) check(t *testing.T, table *social.Corpus, posts []*tklus.Post, step string) {
	t.Helper()
	if table.Len() != len(posts) {
		t.Fatalf("%s: the table holds %d posts, %d were acknowledged", step, table.Len(), len(posts))
	}
	for _, eps := range []float64{0.1, 0.75} {
		for _, p := range posts {
			want := eps
			if row, ok := r.levels[p.SID]; ok {
				want = score.Popularity(row, eps)
			}
			if got := table.Phi(p.SID, eps); got != want {
				t.Fatalf("%s: ε=%v: φ(%d) = %v, the recount %v", step, eps, p.SID, got, want)
			}
		}
	}
	counted := 0
	table.Levels(func(root tklus.PostID, levels []uint32) {
		counted++
		if want := r.levels[root]; !slices.Equal(levels, want) {
			t.Fatalf("%s: levels of %d = %v, the recount %v", step, root, levels, want)
		}
	})
	if counted != len(r.levels) {
		t.Fatalf("%s: the table counts %d threads, the recount %d", step, counted, len(r.levels))
	}
	for uid, n := range r.posts {
		if got := table.PostCountOfUser(uid); got != n {
			t.Fatalf("%s: |P_%d| = %d, the recount %d", step, uid, got, n)
		}
	}
}

// TestCorpusTableMatchesRecount: on every arrangement that mounts ingest,
// after a seeded stream of replies — to batch posts and to posts ingested
// moments before, chains among them, spread over enough time buckets to
// seal the memtable several times — every table a system serves from holds
// exactly the recount over the acknowledged posts: the single system's,
// again after Save + Load and after ingest into the loaded system, and
// every replica's on a replicated tier once its followers caught up, also
// after the leaders die and promoted followers take the rest of the
// stream. BuildSharded's one table, which its shards share, is checked as
// built.
func TestCorpusTableMatchesRecount(t *testing.T) {
	dcfg := datagen.DefaultConfig()
	dcfg.NumUsers, dcfg.NumPosts = 200, 1500
	corpus, err := datagen.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	depth := tklus.DefaultConfig().Engine.Params.ThreadDepth

	t.Run("Sharded", func(t *testing.T) {
		ss, err := tklus.BuildSharded(corpus.Posts, tklus.DefaultConfig(), tklus.DefaultShardingConfig())
		if err != nil {
			t.Fatal(err)
		}
		table := ss.Systems[0].DB
		for _, sys := range ss.Systems {
			if sys.DB != table {
				t.Fatal("the shards do not share one corpus table")
			}
		}
		recountPosts(corpus.Posts, depth).check(t, table, corpus.Posts, "built")
	})

	last := corpus.Posts[0].Time
	for _, p := range corpus.Posts {
		if p.Time.After(last) {
			last = p.Time
		}
	}
	// stream returns n live posts after acked, each three days after the
	// one before, two in three a reply to an earlier acknowledged post —
	// often one ingested moments before — at a batch post's location, so a
	// shard owns it.
	stream := func(rng *rand.Rand, acked []*tklus.Post, n int) []*tklus.Post {
		var out []*tklus.Post
		for i := 0; i < n; i++ {
			last = last.Add(72 * time.Hour)
			at := corpus.Posts[rng.Intn(len(corpus.Posts))].Loc
			uid := tklus.UserID(1 + rng.Intn(dcfg.NumUsers+20)) // some users new
			p := tklus.NewPost(uid, last, at, fmt.Sprintf("live post %d hotel", i))
			if rng.Intn(3) > 0 {
				pool := acked
				if len(out) > 0 && rng.Intn(2) == 0 {
					pool = out
				}
				p = tklus.NewReply(uid, last, at, p.Text, pool[rng.Intn(len(pool))])
			}
			out = append(out, p)
			acked = append(acked, p)
		}
		return out
	}

	for i, arr := range arrangements() {
		t.Run(arr.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + i)))
			ctx := context.Background()
			a := arr.open(t, corpus.Posts)
			acked := slices.Clone(corpus.Posts)
			ingest := func(step string, n int) {
				t.Helper()
				for _, p := range stream(rng, acked, n) {
					if err := a.ingest(ctx, p); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					acked = append(acked, p)
				}
				settle(t, a)
			}
			tables := func(step string) {
				t.Helper()
				want := recountPosts(acked, depth)
				if a.sys != nil {
					want.check(t, a.sys.DB, acked, step)
					return
				}
				for _, g := range a.rs.Groups() {
					for _, rep := range g.Replicas() {
						if !rep.Down() {
							want.check(t, rep.System().DB, acked, fmt.Sprintf("%s: %s", step, rep.Name()))
						}
					}
				}
			}

			ingest("first stream", 40)
			tables("after ingest")
			if a.sys != nil && a.sys.Store.Seals() == 0 {
				t.Fatal("the stream sealed no memtable")
			}
			if arr.failover {
				for _, g := range a.rs.Groups() {
					if err := g.KillReplica(g.Leader()); err != nil {
						t.Fatal(err)
					}
				}
				ingest("stream after failover", 30)
				tables("after failover")
			}
			if !arr.durable {
				return
			}
			dir := a.data
			if dir == "" {
				dir = t.TempDir()
			}
			if err := a.sys.Save(dir); err != nil {
				t.Fatal(err)
			}
			if err := a.sys.Close(); err != nil {
				t.Fatal(err)
			}
			loaded, err := tklus.Load(dir, tklus.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			a.sys, a.ingest = loaded, loaded.IngestContext
			tables("after Save + Load")
			ingest("stream into the loaded system", 30)
			tables("after ingest into the loaded system")
		})
	}
}
