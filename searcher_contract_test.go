package tklus_test

import (
	"context"
	"errors"
	"testing"

	tklus "repro"
	"repro/internal/datagen"
)

// contractSystem builds a system of its own over posts — EnableSegments moves
// the system it is given onto the store, so configurations do not share
// one — optionally on a segment store in a temp dir, closed when the test
// ends.
func contractSystem(t *testing.T, posts []*tklus.Post, segments bool) *tklus.System {
	t.Helper()
	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if segments {
		seg, err := tklus.EnableSegments(sys, tklus.SegmentOptions{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { seg.Close() })
	}
	return sys
}

// TestSearcherCancellationContract pins the API-surface contract of the
// consolidated Searcher interface: every implementation — a System over
// its batch index and over a segment store (the configuration the
// end-to-end benchmark serves from), sharded router, federation, and the
// admission-control wrapper — observes context cancellation and surfaces
// it as the context's error, never as a result or a mistyped sentinel. A
// System is also a ShardBackend, and SearchPartials must surface the same
// sentinels in both configurations.
func TestSearcherCancellationContract(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NumUsers = 200
	cfg.NumPosts = 3000
	corpus, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys := contractSystem(t, corpus.Posts, false)
	seg := contractSystem(t, corpus.Posts, true)
	sc := tklus.DefaultShardingConfig()
	sc.NumShards = 2
	sharded, err := tklus.BuildSharded(corpus.Posts, tklus.DefaultConfig(), sc)
	if err != nil {
		t.Fatal(err)
	}
	fed := tklus.NewFederation(map[string]*tklus.System{"home": sys})
	admitted := tklus.NewAdmissionControl(sys, tklus.DefaultAdmissionOptions())
	rc := tklus.DefaultReplicationConfig()
	rc.Dir = t.TempDir()
	replicated, err := tklus.BuildReplicatedSharded(corpus.Posts, tklus.DefaultConfig(), sc, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer replicated.Close()

	searchers := map[string]tklus.Searcher{
		"System":            sys,
		"System+segments":   seg,
		"ShardedSystem":     sharded,
		"Federation":        fed,
		"AdmissionControl":  admitted,
		"ReplicatedSharded": replicated,
	}
	q := tklus.Query{
		Loc:      corpus.Config.Cities[0].Center,
		RadiusKm: 15,
		Keywords: []string{"restaurant"},
		K:        5,
		Semantic: tklus.Or,
		Ranking:  tklus.MaxScore,
	}

	for name, sr := range searchers {
		t.Run(name, func(t *testing.T) {
			// Sanity: the searcher answers a live context.
			if _, _, err := sr.Search(context.Background(), q); err != nil {
				t.Fatalf("%s: live-context search failed: %v", name, err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, _, err := sr.Search(ctx, q)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: canceled-context error = %v, want context.Canceled", name, err)
			}
			if errors.Is(err, tklus.ErrOverloaded) {
				t.Errorf("%s: cancellation misreported as overload", name)
			}
			// Typed-sentinel half of the contract: a malformed query is
			// ErrBadQuery from every implementation, never a replication
			// or availability sentinel.
			bad := q
			bad.K = 0
			_, _, err = sr.Search(context.Background(), bad)
			if !errors.Is(err, tklus.ErrBadQuery) {
				t.Errorf("%s: malformed-query error = %v, want ErrBadQuery", name, err)
			}
			if errors.Is(err, tklus.ErrStaleEpoch) || errors.Is(err, tklus.ErrReplicaDown) {
				t.Errorf("%s: bad query misreported as a replication fault: %v", name, err)
			}

			sb, ok := sr.(tklus.ShardBackend)
			if !ok {
				return
			}
			if _, err := sb.SearchPartials(context.Background(), q); err != nil {
				t.Fatalf("%s: live-context SearchPartials failed: %v", name, err)
			}
			if _, err := sb.SearchPartials(ctx, q); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: canceled-context SearchPartials error = %v, want context.Canceled", name, err)
			}
			if _, err := sb.SearchPartials(context.Background(), bad); !errors.Is(err, tklus.ErrBadQuery) {
				t.Errorf("%s: malformed-query SearchPartials error = %v, want ErrBadQuery", name, err)
			}
		})
	}
}
