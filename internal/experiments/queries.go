package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/kendall"
)

// toQuery instantiates one workload spec as a concrete query.
func toQuery(spec datagen.QuerySpec, radiusKm float64, k int, sem core.Semantic, ranking core.Ranking) core.Query {
	return core.Query{
		Loc:      spec.Loc,
		RadiusKm: radiusKm,
		Keywords: spec.Keywords,
		K:        k,
		Semantic: sem,
		Ranking:  ranking,
	}
}

// runBatch executes a batch of queries in the paper's regime and returns the
// average per-query time in seconds plus aggregated stats.
func runBatch(arm paperArm, specs []datagen.QuerySpec, radiusKm float64, k int,
	sem core.Semantic, ranking core.Ranking) (avgSeconds float64, agg core.QueryStats, err error) {
	if len(specs) == 0 {
		return 0, agg, fmt.Errorf("experiments: empty query batch")
	}
	for _, spec := range specs {
		_, stats, serr := arm.Search(toQuery(spec, radiusKm, k, sem, ranking))
		if serr != nil {
			return 0, agg, serr
		}
		agg.Add(stats)
		agg.Cells += stats.Cells
		agg.Elapsed += stats.Elapsed
	}
	return agg.Elapsed.Seconds() / float64(len(specs)), agg, nil
}

// sample returns up to n specs drawn deterministically from specs.
func sample(specs []datagen.QuerySpec, n int, seed int64) []datagen.QuerySpec {
	if len(specs) <= n {
		return specs
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]datagen.QuerySpec, 0, n)
	for _, i := range rng.Perm(len(specs))[:n] {
		out = append(out, specs[i])
	}
	return out
}

// Fig7GeohashLength reproduces Figure 7: average query time across geohash
// encoding lengths 1–4 for radii 5–20 km (10 random queries per radius).
// Expected shape: longer encodings process fewer points per cell and win at
// these local-search radii.
func (s *Setup) Fig7GeohashLength() (*Table, error) {
	t := &Table{
		Title:   "Figure 7 — effect of geohash encoding length",
		Note:    "expected shape: longer geohash => faster queries at 5-20 km radii",
		Headers: []string{"radius (km)", "len 1", "len 2", "len 3", "len 4"},
	}
	specs := sample(s.Queries, 10, s.Cfg.Seed+7)
	for _, radius := range []float64{5, 10, 15, 20} {
		row := []string{fmt.Sprintf("%.0f", radius)}
		for length := 1; length <= 4; length++ {
			sys, err := s.System(length)
			if err != nil {
				return nil, err
			}
			avg, _, err := runBatch(s.paper(sys), specs, radius, s.Cfg.K, core.Or, core.SumScore)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(avg))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig8SingleKeyword reproduces Figure 8: single-keyword query efficiency of
// the two ranking methods over radii 5–100 km. Expected shape: max-score
// ranking at or below sum-score, with the gap growing with the radius
// (more candidates => more pruning opportunity). Algorithm 4 prunes
// nothing, so threads built (sum) = threads built (max) + pruned (max).
func (s *Setup) Fig8SingleKeyword() (*Table, error) {
	t := &Table{
		Title:   "Figure 8 — single keyword efficiency, sum vs max ranking",
		Note:    "expected shape: max <= sum, gap grows with radius",
		Headers: []string{"radius (km)", "sum", "max", "threads built (sum)", "threads built (max)", "pruned (max)"},
	}
	sys, err := s.System(4)
	if err != nil {
		return nil, err
	}
	specs := s.queriesWithKeywordCount(1)
	for _, radius := range []float64{5, 10, 20, 50, 100} {
		sumAvg, sumStats, err := runBatch(s.paper(sys), specs, radius, s.Cfg.K, core.Or, core.SumScore)
		if err != nil {
			return nil, err
		}
		maxAvg, maxStats, err := runBatch(s.paper(sys), specs, radius, s.Cfg.K, core.Or, core.MaxScore)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f", radius), ms(sumAvg), ms(maxAvg),
			fmt.Sprintf("%d", sumStats.ThreadsBuilt),
			fmt.Sprintf("%d", maxStats.ThreadsBuilt),
			fmt.Sprintf("%d", maxStats.ThreadsPruned))
	}
	return t, nil
}

// kendallBatch computes the mean variant Kendall tau between the sum- and
// max-ranked top-k results of each query in specs.
func kendallBatch(eng *core.Engine, specs []datagen.QuerySpec, radiusKm float64, k int, sem core.Semantic) (float64, error) {
	var total float64
	n := 0
	for _, spec := range specs {
		sumRes, _, err := eng.Search(context.Background(), toQuery(spec, radiusKm, k, sem, core.SumScore))
		if err != nil {
			return 0, err
		}
		maxRes, _, err := eng.Search(context.Background(), toQuery(spec, radiusKm, k, sem, core.MaxScore))
		if err != nil {
			return 0, err
		}
		if len(sumRes) == 0 && len(maxRes) == 0 {
			continue // nothing to compare for this query
		}
		total += kendall.TauVariant(uids(sumRes), uids(maxRes))
		n++
	}
	if n == 0 {
		return 1, nil
	}
	return total / float64(n), nil
}

func uids(rs []core.UserResult) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = int64(r.UID)
	}
	return out
}

// Fig9KendallSingle reproduces Figure 9: the variant Kendall tau between
// the two rankings' top-5 and top-10 results on single-keyword queries.
// The paper reports tau above 0.863 in all settings.
func (s *Setup) Fig9KendallSingle() (*Table, error) {
	t := &Table{
		Title:   "Figure 9 — Kendall tau, single keyword (sum vs max ranking)",
		Note:    "expected shape: high agreement (paper: > 0.863 everywhere)",
		Headers: []string{"radius (km)", "top-5", "top-10"},
	}
	sys, err := s.System(4)
	if err != nil {
		return nil, err
	}
	specs := s.queriesWithKeywordCount(1)
	for _, radius := range []float64{5, 10, 20, 50, 100} {
		tau5, err := kendallBatch(sys.Engine, specs, radius, 5, core.Or)
		if err != nil {
			return nil, err
		}
		tau10, err := kendallBatch(sys.Engine, specs, radius, 10, core.Or)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f", radius), f3(tau5), f3(tau10))
	}
	return t, nil
}

// Fig10MultiKeyword reproduces Figure 10: query efficiency across keyword
// counts 1–3 for both semantics and both rankings at radii 5–50 km.
// Expected shape: more keywords cost more under OR and less under AND, and
// max ranking helps OR more than AND.
func (s *Setup) Fig10MultiKeyword() (*Table, error) {
	t := &Table{
		Title:   "Figure 10 — multiple keywords, AND/OR semantics",
		Note:    "expected shape: OR time grows with #keywords, AND time shrinks",
		Headers: []string{"radius (km)", "semantic", "ranking", "1 kw", "2 kw", "3 kw"},
	}
	sys, err := s.System(4)
	if err != nil {
		return nil, err
	}
	for _, radius := range []float64{5, 10, 20, 50} {
		for _, sem := range []core.Semantic{core.And, core.Or} {
			for _, ranking := range []core.Ranking{core.SumScore, core.MaxScore} {
				row := []string{fmt.Sprintf("%.0f", radius), sem.String(), ranking.String()}
				for nk := 1; nk <= 3; nk++ {
					avg, _, err := runBatch(s.paper(sys), s.queriesWithKeywordCount(nk),
						radius, s.Cfg.K, sem, ranking)
					if err != nil {
						return nil, err
					}
					row = append(row, ms(avg))
				}
				t.AddRow(row...)
			}
		}
	}
	return t, nil
}

// Fig11KendallMulti reproduces Figure 11: Kendall tau between the rankings
// under AND and OR semantics for 2- and 3-keyword queries. The paper
// reports tau > 0.95 for AND and roughly > 0.8 for OR.
func (s *Setup) Fig11KendallMulti() (*Table, error) {
	t := &Table{
		Title:   "Figure 11 — Kendall tau, multiple keywords",
		Note:    "expected shape: AND agreement > OR agreement, both high",
		Headers: []string{"radius (km)", "AND 2kw", "AND 3kw", "OR 2kw", "OR 3kw"},
	}
	sys, err := s.System(4)
	if err != nil {
		return nil, err
	}
	for _, radius := range []float64{5, 10, 20, 50} {
		row := []string{fmt.Sprintf("%.0f", radius)}
		for _, sem := range []core.Semantic{core.And, core.Or} {
			for nk := 2; nk <= 3; nk++ {
				tau, err := kendallBatch(sys.Engine, s.queriesWithKeywordCount(nk), radius, s.Cfg.K, sem)
				if err != nil {
					return nil, err
				}
				row = append(row, f3(tau))
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig12SpecificBound reproduces Figure 12: the effect of the hot-keyword
// specific popularity bounds on max-score query processing, for both
// semantics. Expected shape: specific bounds prune more threads and save
// time, more visibly at larger radii. A specific bound never exceeds the
// global one, so it prunes every candidate the global bound prunes.
func (s *Setup) Fig12SpecificBound() (*Table, error) {
	t := &Table{
		Title:   "Figure 12 — specific popularity bound vs global bound (max ranking)",
		Note:    "expected shape: specific bounds faster, gain grows with radius",
		Headers: []string{"radius (km)", "semantic", "global", "specific", "pruned global", "pruned specific"},
	}
	sys, err := s.System(4)
	if err != nil {
		return nil, err
	}
	specific, global := s.paper(sys), s.paper(sys)
	global.specific = false
	hotQueries := s.Corpus.HotQueries(s.Cfg.Seed+12, s.Cfg.QueryPerClass, 2)
	for _, radius := range []float64{5, 10, 20, 50} {
		for _, sem := range []core.Semantic{core.And, core.Or} {
			gAvg, gStats, err := runBatch(global, hotQueries, radius, s.Cfg.K, sem, core.MaxScore)
			if err != nil {
				return nil, err
			}
			sAvg, sStats, err := runBatch(specific, hotQueries, radius, s.Cfg.K, sem, core.MaxScore)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%.0f", radius), sem.String(), ms(gAvg), ms(sAvg),
				fmt.Sprintf("%d", gStats.ThreadsPruned),
				fmt.Sprintf("%d", sStats.ThreadsPruned))
		}
	}
	return t, nil
}
