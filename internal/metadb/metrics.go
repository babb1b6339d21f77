package metadb

import "repro/internal/telemetry"

// RegisterMetrics hooks the database's cumulative I/O counters into a
// telemetry registry as read-at-scrape metrics: simulated page reads,
// cache hits, and the node-access counter of each of the paper's two
// B⁺-tree indexes (keyed by name: sid, rsid). Values are read live at scrape
// time, so ResetStats is reflected in the next scrape.
func (db *DB) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("tklus_db_page_reads_total",
		"Metadata pages fetched from simulated disk.", nil,
		func() float64 { return float64(db.Stats().PageReads) })
	reg.CounterFunc("tklus_db_cache_hits_total",
		"Metadata page requests served by the LRU cache.", nil,
		func() float64 { return float64(db.Stats().CacheHits) })
	trees := []struct {
		name string
		read func() int64
	}{
		{"sid", db.sidIndex.AccessesReader()},
		{"rsid", db.rsidIndex.AccessesReader()},
	}
	for _, t := range trees {
		read := t.read
		reg.CounterFunc("tklus_btree_node_accesses_total",
			"B⁺-tree node visits, a proxy for index page I/O.",
			telemetry.Labels{"index": t.name},
			func() float64 { return float64(read()) })
	}
	reg.CounterFunc("tklus_db_batch_lookups_total",
		"Keys resolved through the multi-get batch APIs.", nil,
		func() float64 { return float64(db.Stats().BatchLookups) })
	reg.CounterFunc("tklus_db_batch_pages_saved_total",
		"Simulated page+node touches avoided by multi-gets vs single-key loops.", nil,
		func() float64 { return float64(db.Stats().BatchPagesSaved) })
	reg.GaugeFunc("tklus_db_cache_hit_ratio",
		"Fraction of page requests served by the LRU cache since the last reset.", nil,
		func() float64 {
			s := db.Stats()
			total := s.PageReads + s.CacheHits
			if total == 0 {
				return 0
			}
			return float64(s.CacheHits) / float64(total)
		})
	reg.GaugeFunc("tklus_db_rows",
		"Rows loaded in the metadata database.", nil,
		func() float64 { return float64(db.Len()) })
}
