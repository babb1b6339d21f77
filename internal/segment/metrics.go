package segment

import "repro/internal/telemetry"

// RegisterMetrics exports the store's lifecycle counters, the mmap
// footprint and the resident row records under the tklus_segment_*
// namespace.
func (st *Store) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("tklus_segment_seals_total",
		"Memtable seals into immutable segment files.", nil,
		func() float64 { return float64(st.Seals()) })
	reg.CounterFunc("tklus_segment_compactions_total",
		"Size-tiered compaction merges committed.", nil,
		func() float64 { return float64(st.Compactions()) })
	reg.GaugeFunc("tklus_segment_files",
		"Live sealed segment files referenced by the current MANIFEST.", nil,
		func() float64 { return float64(st.SegmentCount()) })
	reg.GaugeFunc("tklus_segment_mmap_bytes",
		"Bytes of segment files currently memory-mapped (live + retired).", nil,
		func() float64 { return float64(st.MappedBytes()) })
	reg.GaugeFunc("tklus_segment_column_bytes",
		"Bytes of the resident row records (SID, location, author) and post ordinals of live segments and the memtable.", nil,
		func() float64 { return float64(st.ColumnBytes()) })
	reg.GaugeFunc("tklus_segment_memtable_rows",
		"Rows buffered in the mutable memtable awaiting seal.", nil,
		func() float64 { return float64(st.Memtable().Len()) })
}
