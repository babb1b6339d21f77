package thread

import (
	"testing"

	"repro/internal/metadb"
	"repro/internal/social"
)

var benchPop float64 // keeps the measured call live

// BenchmarkPopularity times one Algorithm 1 run — the per-candidate stage
// the paper's rankers pay — on the two shapes a query meets: a root nothing
// has replied to (most candidates) and Figure 2's 10-post, 3-level thread.
func BenchmarkPopularity(b *testing.B) {
	db, err := metadb.Load(metadb.DefaultOptions(), figure2Posts())
	if err != nil {
		b.Fatal(err)
	}
	builder := &Builder{DB: db, Depth: 3}
	for _, bc := range []struct {
		name string
		root social.PostID
	}{
		{"singleton", 9},
		{"thread", 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var stats Stats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchPop, _ = builder.Popularity(bc.root, 0.1, &stats)
			}
		})
	}
}
