package tklus

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gazetteer"
)

// This file implements the paper's future-work directions as public API:
// geo-tagging tweets from place names in their text (Section VIII ¶3) and
// federated search across platform boundaries (Section VIII ¶4). The
// temporal extension (Section VIII ¶2) lives on Query.TimeWindow and
// Config.Engine.RecencyHalfLife.

// Gazetteer resolves place names mentioned in post text to coordinates.
type Gazetteer = gazetteer.Gazetteer

// GazetteerEntry is one known place.
type GazetteerEntry = gazetteer.Entry

// DefaultGazetteer returns the built-in place list covering the synthetic
// corpus's metros.
func DefaultGazetteer() *Gazetteer { return gazetteer.Default() }

// NewPostFromText builds a post for a tweet that lacks a geo-tag by
// inferring its location from place names in the text ("exploit the
// implicit spatial information in such tweets"). It fails when the text
// mentions no known place.
func NewPostFromText(uid UserID, at time.Time, text string, g *Gazetteer) (*Post, error) {
	place, ok := g.Resolve(text)
	if !ok {
		return nil, fmt.Errorf("tklus: no known place mentioned in %q", text)
	}
	return NewPost(uid, at, place.Loc, text), nil
}

// FederatedResult is one ranked user from a federated search, tagged with
// the platform that produced it.
type FederatedResult struct {
	Platform string
	UserResult
}

// Federation runs TkLUS queries across platform boundaries ("make the
// search for local users across the platform boundary"): each member is
// any Searcher — a monolithic System, a sharded tier, even another
// federation — and one query fans to all of them. Scores are comparable
// because every platform uses the same scoring model.
type Federation struct {
	// Platforms maps each platform's name to its searcher.
	Platforms map[string]Searcher
}

// NewFederation wraps per-platform systems into a Federation; the common
// case where every platform is served by a monolithic System.
func NewFederation(platforms map[string]*System) *Federation {
	f := &Federation{Platforms: make(map[string]Searcher, len(platforms))}
	for name, sys := range platforms {
		f.Platforms[name] = sys
	}
	return f
}

// SearchPlatforms runs the query on every platform and merges the
// rankings into a single top-k with platform tags. The returned stats sum
// the per-platform work counters; degraded shards reported by a platform
// surface with the platform name prefixed, so a federation over sharded
// tiers keeps its degradation visible. Ties break by platform name then
// user ID for determinism.
func (f *Federation) SearchPlatforms(ctx context.Context, q Query) ([]FederatedResult, *QueryStats, error) {
	if len(f.Platforms) == 0 {
		return nil, nil, fmt.Errorf("tklus: no platforms to search")
	}
	names := make([]string, 0, len(f.Platforms))
	for name := range f.Platforms {
		names = append(names, name)
	}
	sort.Strings(names)

	start := time.Now()
	total := &QueryStats{}
	var merged []FederatedResult
	for _, name := range names {
		results, stats, err := f.Platforms[name].Search(ctx, q)
		if err != nil {
			return nil, nil, fmt.Errorf("tklus: platform %q: %w", name, err)
		}
		for _, r := range results {
			merged = append(merged, FederatedResult{Platform: name, UserResult: r})
		}
		if stats != nil {
			addStats(total, name, stats)
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Platform != b.Platform {
			return a.Platform < b.Platform
		}
		return a.UID < b.UID
	})
	if len(merged) > q.K {
		merged = merged[:q.K]
	}
	total.Elapsed = time.Since(start)
	return merged, total, nil
}

// Search is SearchPlatforms without the platform tags. It implements
// Searcher, so a federation can stand wherever a single system does —
// behind the HTTP server included.
func (f *Federation) Search(ctx context.Context, q Query) ([]UserResult, *QueryStats, error) {
	tagged, stats, err := f.SearchPlatforms(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	out := make([]UserResult, len(tagged))
	for i, r := range tagged {
		out[i] = r.UserResult
	}
	return out, stats, nil
}

// addStats folds one platform's query stats into the federation total.
// (The context-free FederatedSearch helper was removed with the rest of
// the pre-Searcher wrappers; build a Federation and call SearchPlatforms.)
func addStats(total *QueryStats, platform string, s *QueryStats) {
	total.Add(s)
	total.Cells += s.Cells // platforms cover different corpora: the covers add up
	for _, d := range s.DegradedShards {
		total.DegradedShards = append(total.DegradedShards, core.ShardFailure{
			Shard:  platform + "/" + d.Shard,
			Reason: d.Reason,
		})
	}
}
