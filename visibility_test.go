package tklus_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	tklus "repro"
	"repro/internal/datagen"
	"repro/internal/server"
)

// arrangement is one row of the serving-arrangement table: a name, how to
// build it over a corpus, and what it can do. A new arrangement is one row.
type arrangement struct {
	name string
	open func(t *testing.T, posts []*tklus.Post) *arranged
	// durable rows are single systems: Save + Load must keep what they
	// acknowledged.
	durable bool
	// failover rows kill every shard leader after the first ingest, so
	// the next ingest lands on a promoted follower and followers serve.
	failover bool
}

// arranged is an arrangement built and serving.
type arranged struct {
	searcher tklus.Searcher
	ingest   func(ctx context.Context, posts ...*tklus.Post) error
	// sys is the single system of a durable row, nil on a tier.
	sys *tklus.System
	// data is the data directory a durable row serves <data>/segments of,
	// "" for a heap row.
	data string
	// rs is the replicated tier, nil on a single system.
	rs *tklus.ReplicatedShardedSystem
}

// arrangements lists every arrangement that mounts POST /v1/ingest.
func arrangements() []arrangement {
	single := func(withDir bool) func(*testing.T, []*tklus.Post) *arranged {
		return func(t *testing.T, posts []*tklus.Post) *arranged {
			sys, err := tklus.Build(posts, tklus.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			a := &arranged{searcher: sys, ingest: sys.IngestContext, sys: sys}
			if withDir {
				a.data = t.TempDir()
				if _, err := tklus.EnableSegments(sys, tklus.SegmentOptions{Dir: filepath.Join(a.data, "segments")}); err != nil {
					t.Fatal(err)
				}
			}
			t.Cleanup(func() { sys.Close() })
			return a
		}
	}
	replicated := func(t *testing.T, posts []*tklus.Post) *arranged {
		rs, err := tklus.BuildReplicatedSharded(posts, tklus.DefaultConfig(), replicaSharding(), fastFailoverConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		return &arranged{searcher: rs, ingest: rs.IngestContext, rs: rs}
	}
	return []arrangement{
		{name: "System", open: single(false), durable: true},
		{name: "System+directory", open: single(true), durable: true},
		{name: "ReplicatedSharded", open: replicated},
		{name: "ReplicatedSharded/failover", open: replicated, failover: true},
	}
}

// TestAcknowledgedPostIsCandidate is the one visibility rule: on every
// arrangement that mounts /v1/ingest, a post an ingest acknowledged is a
// candidate for the next search — through the Go API and through the HTTP
// edge — and each answer equals the scan oracle over the acknowledged
// prefix, posts counts included. Each new post carries a keyword nothing
// before it holds, so a post acknowledged but not indexed answers with no
// user. Single-system rows also fetch each post's text through /evidence,
// and run every check again after Save + Load; they check after every step
// that the store's rows are the database's.
func TestAcknowledgedPostIsCandidate(t *testing.T) {
	dcfg := datagen.DefaultConfig()
	dcfg.NumUsers = 300
	dcfg.NumPosts = 2500
	corpus, err := datagen.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	last := corpus.Posts[0].Time
	for _, p := range corpus.Posts {
		if p.Time.After(last) {
			last = p.Time
		}
	}
	loc := corpus.Config.Cities[0].Center
	fresh := func(i int, keyword string) *tklus.Post {
		return tklus.NewPost(tklus.UserID(99001+i), last.Add(time.Duration(i+1)*time.Hour), loc, keyword+" rooftop bar")
	}

	for _, arr := range arrangements() {
		t.Run(arr.name, func(t *testing.T) {
			ctx := context.Background()
			a := arr.open(t, corpus.Posts)
			var acked []*tklus.Post
			storeHoldsEveryRow(t, a.sys, "built")

			// The first post goes through the Go API, the second through
			// the HTTP edge.
			first := fresh(0, "zanzibar")
			if err := a.ingest(ctx, first); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, first)
			storeHoldsEveryRow(t, a.sys, "after ingest")
			settle(t, a)
			checkCandidate(t, a.searcher, corpus.Posts, acked, "after the Go API ingest")

			if arr.failover {
				for _, g := range a.rs.Groups() {
					if err := g.KillReplica(g.Leader()); err != nil {
						t.Fatal(err)
					}
				}
				checkCandidate(t, a.searcher, corpus.Posts, acked, "served by followers")
			}

			second := fresh(1, "kilimanjaro")
			ingestHTTP(t, a.searcher, second)
			acked = append(acked, second)
			storeHoldsEveryRow(t, a.sys, "after HTTP ingest")
			settle(t, a)
			checkCandidate(t, a.searcher, corpus.Posts, acked, "after the HTTP ingest")
			checkEvidence(t, a.sys, acked, "after the HTTP ingest")
			if arr.failover {
				for _, g := range a.rs.Groups() {
					if g.Failovers() != 1 {
						t.Fatalf("shard %s: %d failovers, want 1", g.Shard(), g.Failovers())
					}
				}
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
			storeHoldsEveryRow(t, loaded, "after Save + Load")
			if a.data != "" {
				if _, err := tklus.EnableSegments(loaded, tklus.SegmentOptions{Dir: filepath.Join(a.data, "segments")}); err != nil {
					t.Fatal(err)
				}
				storeHoldsEveryRow(t, loaded, "after reopening the directory")
			}
			checkCandidate(t, loaded, corpus.Posts, acked, "after Save + Load")
			checkEvidence(t, loaded, acked, "after Save + Load")
			third := fresh(2, "timbuktu")
			if err := loaded.Ingest(third); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, third)
			storeHoldsEveryRow(t, loaded, "after ingest into the loaded system")
			checkCandidate(t, loaded, corpus.Posts, acked, "after ingest into the loaded system")
			checkEvidence(t, loaded, acked, "after ingest into the loaded system")
		})
	}
}

// TestIngestSurvivesEnableSegments pins that attaching an empty directory
// keeps what the heap store indexed: a post ingested before EnableSegments
// is still a candidate after it, and at every step the store holds exactly
// the database's rows.
func TestIngestSurvivesEnableSegments(t *testing.T) {
	posts, loc, _ := ingestCorpus()
	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	storeHoldsEveryRow(t, sys, "built")
	p := tklus.NewPost(99001, time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC), loc, "zanzibar spice market")
	if err := sys.Ingest(p); err != nil {
		t.Fatal(err)
	}
	storeHoldsEveryRow(t, sys, "after ingest")
	if _, err := tklus.EnableSegments(sys, tklus.SegmentOptions{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	storeHoldsEveryRow(t, sys, "after EnableSegments")
	checkCandidate(t, sys, posts, []*tklus.Post{p}, "after EnableSegments")
	storeHoldsEveryRow(t, sys, "after search")
}

// storeHoldsEveryRow checks the unsharded invariant: the rows of the
// store's views, sealed segments and memtable, are exactly as many as the
// metadata database's. A nil system (a tier) has nothing to check.
func storeHoldsEveryRow(t *testing.T, sys *tklus.System, step string) {
	t.Helper()
	if sys == nil {
		return
	}
	rows := 0
	for _, v := range sys.Store.Views() {
		rows += len(v.Source.Records())
	}
	if rows != sys.DB.Len() {
		t.Fatalf("%s: the store holds %d rows, the database %d", step, rows, sys.DB.Len())
	}
}

// settle lets a replicated tier's followers apply what the leaders
// acknowledged, so any replica may serve the next search.
func settle(t *testing.T, a *arranged) {
	t.Helper()
	if a.rs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.rs.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
}

// checkCandidate searches for every acknowledged post's keyword at its
// location, through the Go API and through the HTTP edge, under both
// rankings. The post's author must rank, and the answer must equal the scan
// oracle over built + acked, with |P_u| counted over the same posts.
func checkCandidate(t *testing.T, sr tklus.Searcher, built, acked []*tklus.Post, step string) {
	t.Helper()
	all := slices.Concat(built, acked)
	oracle := ackedOracle(built, acked...)
	postsOf := map[tklus.UserID]int{}
	for _, p := range all {
		postsOf[p.UID]++
	}
	edge := server.NewSearcherWith(sr, server.Options{})
	for _, p := range acked {
		for _, ranking := range []tklus.Ranking{tklus.SumScore, tklus.MaxScore} {
			q := tklus.Query{Loc: p.Loc, RadiusKm: 10, Keywords: strings.Fields(p.Text)[:1], K: 10, Ranking: ranking}
			want := oracle.Search(q)
			if !slices.ContainsFunc(want, func(r tklus.UserResult) bool { return r.UID == p.UID }) {
				t.Fatalf("%s: the oracle does not rank post %d's author for %v", step, p.SID, q.Keywords)
			}
			got, _, err := sr.Search(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if !equalResults(got, want) {
				t.Errorf("%s: %v %v: Go API %v, scan oracle over the acknowledged posts %v", step, ranking, q.Keywords, got, want)
			}
			wire := searchHTTP(t, edge, q)
			if len(wire) != len(want) {
				t.Errorf("%s: %v %v: HTTP %v, scan oracle %v", step, ranking, q.Keywords, wire, want)
				continue
			}
			for i, w := range want {
				if r := wire[i]; r.UID != int64(w.UID) || r.Score != w.Score || r.Posts != postsOf[w.UID] {
					t.Errorf("%s: %v %v rank %d: HTTP %+v, scan oracle %+v with %d posts",
						step, ranking, q.Keywords, i, r, w, postsOf[w.UID])
				}
			}
		}
	}
}

// checkEvidence asks sys's /evidence, over HTTP, for each acknowledged
// post's author under the post's own keyword and location: the answer must
// carry the post's text. A nil system (a tier, which mounts no /evidence)
// has nothing to check.
func checkEvidence(t *testing.T, sys *tklus.System, acked []*tklus.Post, step string) {
	t.Helper()
	if sys == nil {
		return
	}
	edge := server.New(sys)
	for _, p := range acked {
		url := fmt.Sprintf("/evidence?lat=%v&lon=%v&radius=10&keywords=%s&uid=%d",
			p.Loc.Lat, p.Loc.Lon, strings.Fields(p.Text)[0], p.UID)
		rec := httptest.NewRecorder()
		edge.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %s: %d %s", step, url, rec.Code, rec.Body)
		}
		var resp struct{ Tweets []string }
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(resp.Tweets, p.Text) {
			t.Errorf("%s: /evidence for post %d's author answers %q, want its text %q", step, p.SID, resp.Tweets, p.Text)
		}
	}
}

// wireUser is one ranked user on the /v1/search wire.
type wireUser struct {
	UID   int64   `json:"uid"`
	Score float64 `json:"score"`
	Posts int     `json:"posts"`
}

func searchHTTP(t *testing.T, edge http.Handler, q tklus.Query) []wireUser {
	t.Helper()
	body, err := json.Marshal(server.SearchRequestV1{
		Lat: q.Loc.Lat, Lon: q.Loc.Lon, RadiusKm: q.RadiusKm, Keywords: q.Keywords, K: q.K,
		Ranking: map[tklus.Ranking]string{tklus.SumScore: "sum", tklus.MaxScore: "max"}[q.Ranking],
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	edge.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/search: %d %s", rec.Code, rec.Body)
	}
	var resp struct{ Results []wireUser }
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Results
}

func ingestHTTP(t *testing.T, sr tklus.Searcher, p *tklus.Post) {
	t.Helper()
	body, err := json.Marshal(server.IngestRequestV1{Posts: []server.IngestPostV1{{
		SID: int64(p.SID), UID: int64(p.UID), Lat: p.Loc.Lat, Lon: p.Loc.Lon, Text: p.Text,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	server.NewSearcherWith(sr, server.Options{}).ServeHTTP(rec, httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/ingest: %d %s", rec.Code, rec.Body)
	}
}
