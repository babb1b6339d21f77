package thread

import (
	"testing"

	"repro/internal/metadb"
	"repro/internal/social"
)

var benchPop float64 // keeps the measured call live

// BenchmarkPopularity times one Algorithm 1 run — the per-candidate stage
// every ranker pays — on the two shapes a query meets: a root nothing has
// replied to (most candidates) and Figure 2's 10-post, 3-level thread, the
// latter through both expansion paths. snapshot-singleton must report
// 0 allocs/op.
func BenchmarkPopularity(b *testing.B) {
	load := func(snapshot bool) *Builder {
		db, err := metadb.Load(metadb.DefaultOptions(), figure2Posts())
		if err != nil {
			b.Fatal(err)
		}
		if snapshot {
			db.EnableReplySnapshot()
		}
		return &Builder{DB: db, Depth: 3}
	}
	for _, bc := range []struct {
		name     string
		snapshot bool
		root     social.PostID
	}{
		{"snapshot-singleton", true, 9},
		{"snapshot-thread", true, 1},
		{"paged-thread", false, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			builder := load(bc.snapshot)
			var stats Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPop, _ = builder.Popularity(bc.root, 0.1, &stats)
			}
		})
	}
}
