package core_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestSearchRecordsStageSpans verifies every query carries a complete
// per-stage trace: exactly the four pipeline stages, non-negative durations,
// and a stage sum that does not exceed the measured elapsed time.
func TestSearchRecordsStageSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	posts, center := randomCorpus(rng, 500)
	eng := buildEngine(t, posts, core.DefaultOptions(), 3)

	for _, ranking := range []core.Ranking{core.SumScore, core.MaxScore} {
		q := core.Query{Loc: center, RadiusKm: 40, Keywords: []string{"hotel"}, K: 5, Ranking: ranking}
		_, stats, err := eng.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		var sum time.Duration
		for _, sp := range stats.Spans {
			if seen[sp.Stage] {
				t.Errorf("%v: duplicate span for stage %q", ranking, sp.Stage)
			}
			seen[sp.Stage] = true
			if sp.Duration < 0 {
				t.Errorf("%v: stage %q has negative duration %v", ranking, sp.Stage, sp.Duration)
			}
			sum += sp.Duration
		}
		for _, stage := range telemetry.QueryStages {
			if !seen[stage] {
				t.Errorf("%v: missing span for stage %q (spans: %v)", ranking, stage, stats.Spans)
			}
		}
		if len(seen) != len(telemetry.QueryStages) {
			t.Errorf("%v: spans %v, want exactly the stages %v", ranking, stats.Spans, telemetry.QueryStages)
		}
		if sum > stats.Elapsed+time.Millisecond {
			t.Errorf("%v: stage sum %v exceeds elapsed %v", ranking, sum, stats.Elapsed)
		}
		if got := stats.StageDuration(telemetry.StageCandidateFilter); got <= 0 {
			t.Errorf("%v: StageDuration(candidate_filter) = %v, want > 0", ranking, got)
		}
	}
}

// TestCandidateTweetsRecordsRetrievalSpans checks the retrieval-only path
// traces its three stages but never reports ranking stages.
func TestCandidateTweetsRecordsRetrievalSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	posts, center := randomCorpus(rng, 300)
	eng := buildEngine(t, posts, core.DefaultOptions(), 3)

	_, stats, err := eng.CandidateTweets(core.Query{
		Loc: center, RadiusKm: 40, Keywords: []string{"hotel"}, K: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	stages := make(map[string]bool)
	for _, sp := range stats.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []string{telemetry.StageCellCover, telemetry.StagePostingsFetch, telemetry.StageCandidateFilter} {
		if !stages[want] {
			t.Errorf("missing retrieval span %q: %v", want, stats.Spans)
		}
	}
	if stages[telemetry.StageRank] {
		t.Errorf("retrieval-only query reported ranking spans: %v", stats.Spans)
	}
}
