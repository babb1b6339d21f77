package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/stats"
)

// LatencySummary reports per-query latency distributions (mean, p50, p95,
// p99) for the main query classes in the paper's regime — the tail view
// behind the averages that Figures 7–10 plot.
func (s *Setup) LatencySummary() (*Table, error) {
	t := &Table{
		Title:   "Latency summary — per-query distribution at r = 20 km",
		Note:    "tail percentiles behind the figures' averages",
		Headers: []string{"class", "n", "mean", "p50", "p95", "p99", "max"},
	}
	sys, err := s.System(4)
	if err != nil {
		return nil, err
	}
	classes := []struct {
		name    string
		specs   []datagen.QuerySpec
		sem     core.Semantic
		ranking core.Ranking
	}{
		{"1 kw, sum", s.queriesWithKeywordCount(1), core.Or, core.SumScore},
		{"1 kw, max", s.queriesWithKeywordCount(1), core.Or, core.MaxScore},
		{"2 kw AND, max", s.queriesWithKeywordCount(2), core.And, core.MaxScore},
		{"3 kw OR, max", s.queriesWithKeywordCount(3), core.Or, core.MaxScore},
	}
	for _, c := range classes {
		var durations []time.Duration
		for _, spec := range c.specs {
			_, st, err := paper(sys).Search(toQuery(spec, 20, s.Cfg.K, c.sem, c.ranking))
			if err != nil {
				return nil, err
			}
			durations = append(durations, st.Elapsed)
		}
		sum := stats.DurationSummary(durations)
		t.AddRow(c.name, fmt.Sprintf("%d", sum.N),
			ms(sum.Mean), ms(sum.P50), ms(sum.P95), ms(sum.P99), ms(sum.Max))
	}
	return t, nil
}
