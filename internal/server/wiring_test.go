package server

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	tklus "repro"
	"repro/internal/datagen"
)

// wiringCorpus is a small corpus every arrangement of the wiring test is
// built over.
func wiringCorpus(t *testing.T) *datagen.Corpus {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.NumUsers = 150
	cfg.NumPosts = 1500
	corpus, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// fastReplication is a replication config over a test directory with a
// short lease.
func fastReplication(t *testing.T) tklus.ReplicationConfig {
	rc := tklus.DefaultReplicationConfig()
	rc.Dir = t.TempDir()
	rc.LeaseTTL = 40 * time.Millisecond
	rc.ShipInterval = time.Millisecond
	return rc
}

// TestServerWiringPerArrangement pins which routes the server mounts, and
// which backend series it registers, for every serving arrangement: the
// introspection routes only over one system, ingest wherever there is a
// write path, the fault-injection doors only over a replicated tier, and
// the deleted shard-protocol route on none; per-shard series on both
// sharded tiers, replication series on the replicated one and segment
// series on a segmented system, each series exactly once.
func TestServerWiringPerArrangement(t *testing.T) {
	corpus := wiringCorpus(t)
	posts := corpus.Posts
	cfg := tklus.DefaultConfig()
	sc := tklus.DefaultShardingConfig()
	sc.NumShards = 2

	routes := []struct{ method, url string }{
		{"POST", "/v1/ingest"},
		{"POST", "/v1/shard/search"},
		{"GET", "/evidence"},
		{"GET", "/thread"},
		{"POST", "/debug/replication/kill"},
	}
	type series struct{ shard, replica, segment bool }
	cases := []struct {
		name    string
		build   func(t *testing.T) tklus.Searcher
		mounted []bool // parallel to routes
		series  series
	}{
		{"build", func(t *testing.T) tklus.Searcher {
			sys, err := tklus.Build(posts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}, []bool{true, false, true, true, false}, series{}},
		{"segments", func(t *testing.T) tklus.Searcher {
			sys, err := tklus.Build(posts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := tklus.EnableSegments(sys, tklus.SegmentOptions{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { seg.Close() })
			return seg
		}, []bool{true, false, true, true, false}, series{segment: true}},
		{"sharded", func(t *testing.T) tklus.Searcher {
			ss, err := tklus.BuildSharded(posts, cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			return ss
		}, []bool{false, false, false, false, false}, series{shard: true}},
		{"replicated", func(t *testing.T) tklus.Searcher {
			rs, err := tklus.BuildReplicatedSharded(posts, cfg, sc, fastReplication(t))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rs.Close() })
			return rs
		}, []bool{true, false, false, false, true}, series{shard: true, replica: true}},
		{"federation", func(t *testing.T) tklus.Searcher {
			sys, err := tklus.Build(posts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return tklus.NewFederation(map[string]*tklus.System{"twitter": sys})
		}, []bool{false, false, false, false, false}, series{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewSearcher(c.build(t))
			for i, r := range routes {
				// A malformed request: a mounted route answers it with 400,
				// an unmounted one with 404, and nothing is mutated.
				req := httptest.NewRequest(r.method, r.url, strings.NewReader("x"))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if mounted := rec.Code != 404; mounted != c.mounted[i] {
					t.Errorf("%s %s: status %d, mounted = %v, want %v", r.method, r.url, rec.Code, mounted, c.mounted[i])
				}
			}

			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			metrics := rec.Body.String()
			for _, f := range []struct {
				family string
				want   bool
			}{
				{"tklus_shard_requests_total", c.series.shard},
				{"tklus_sharded_queries_total", c.series.shard},
				{"tklus_replica_epoch", c.series.replica},
				{"tklus_replica_lag_sids", c.series.replica},
				{"tklus_segment_files", c.series.segment},
			} {
				n := strings.Count(metrics, "# TYPE "+f.family+" ")
				if f.want && n != 1 || !f.want && n != 0 {
					t.Errorf("/metrics declares %s %d times, want it %v", f.family, n, f.want)
				}
			}
			for _, line := range []string{
				`tklus_shard_hedges_total{shard="shard-00"} `,
				`tklus_replica_epoch{shard="shard-00"} `,
				`tklus_segment_files `,
			} {
				if n := strings.Count(metrics, "\n"+line); n > 1 {
					t.Errorf("/metrics carries %q %d times", line, n)
				}
			}
		})
	}
}

// TestReplicatedSearchCarriesPostCounts checks the |P_u| enrichment of the
// sharded and replicated servers' /v1/search results: every shard holds the
// full metadata database, so each tier answers the same users, scores,
// order and posts counts a monolithic server reports for the same query.
func TestReplicatedSearchCarriesPostCounts(t *testing.T) {
	corpus := wiringCorpus(t)
	cfg := tklus.DefaultConfig()
	mono, err := tklus.Build(corpus.Posts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := tklus.DefaultShardingConfig()
	sc.NumShards = 2
	ss, err := tklus.BuildSharded(corpus.Posts, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := tklus.BuildReplicatedSharded(corpus.Posts, cfg, sc, fastReplication(t))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	loc := corpus.Config.Cities[0].Center
	body := fmt.Sprintf(`{"version":1,"lat":%f,"lon":%f,"radius_km":20,"keywords":["pizza","restaurant"],"k":10}`, loc.Lat, loc.Lon)
	code, want := post(t, New(mono), "/v1/search", body)
	if code != 200 {
		t.Fatalf("mono search: %d %v", code, want)
	}
	results := want["results"].([]any)
	if len(results) == 0 || results[0].(map[string]any)["posts"] == nil {
		t.Fatalf("mono results carry no posts: %v", results)
	}
	for name, tier := range map[string]tklus.Searcher{"sharded": ss, "replicated": rs} {
		code, got := post(t, NewSearcher(tier), "/v1/search", body)
		if code != 200 {
			t.Fatalf("%s search: %d %v", name, code, got)
		}
		if !reflect.DeepEqual(got["results"], want["results"]) {
			t.Errorf("%s results differ from mono\n got: %v\nwant: %v", name, got["results"], want["results"])
		}
	}
}
