// Package metadb implements the centralized tweet metadata database of
// Section IV-A: a relation with schema (sid, uid, lat, lon, ruid, rsid)
// stored in fixed-size pages, a B⁺-tree primary index on sid, and a
// B⁺-tree secondary index on rsid. These indexes "accelerate the query
// processing phase" — in particular the level-by-level tweet-thread
// construction of Algorithm 1, whose line 7 ("select all where rsid equals
// to Id") is served by SelectByRSID.
//
// The database simulates disk behaviour: every page touched counts as one
// I/O, optionally with a configurable latency, and a small LRU page cache
// can be enabled (the paper's experiments run with caches off). It is
// bulk-loaded once and read-only after: it is the paper arm's substrate,
// which the figures in internal/experiments build and time. The serving
// path keeps the same facts in social.Corpus.
package metadb

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/btree"
	"repro/internal/social"
)

// Options configures a DB.
type Options struct {
	// RowsPerPage is the page capacity; 128 rows of 48 bytes approximates
	// a pair of 4 KB pages per disk read, a typical DBMS setting.
	RowsPerPage int
	// IndexOrder is the B⁺-tree order of the sid and rsid indexes.
	IndexOrder int
	// CacheSize is the number of pages the LRU cache may hold; 0 disables
	// caching (the paper's configuration: "database caches are set off").
	CacheSize int
	// IOLatency is added per simulated page read (0 for tests; benches may
	// set a small value to model disk behaviour).
	IOLatency time.Duration
}

// DefaultOptions returns the configuration used across the experiments.
func DefaultOptions() Options {
	return Options{RowsPerPage: 128, IndexOrder: btree.DefaultOrder}
}

// Stats aggregates simulated I/O counters.
type Stats struct {
	PageReads  int64 // pages fetched from "disk"
	CacheHits  int64 // page requests served by the LRU cache
	IndexReads int64 // B⁺-tree node accesses

	BatchLookups    int64 // keys resolved through the multi-get APIs
	BatchPagesSaved int64 // page+node touches the multi-gets avoided vs single-key loops
}

// BatchStats reports the simulated-I/O work of one multi-get call against
// what the equivalent single-key loop would have cost. PagesRead counts
// distinct data pages plus index nodes actually touched; PagesSaved is the
// number of touches the single-key loop would have added on top (never
// negative — the batch path plans its traversal from the sorted key run
// and falls back to per-key descents when keys are far apart).
type BatchStats struct {
	Lookups    int64
	PagesRead  int64
	PagesSaved int64
}

// DB is the centralized metadata database. After Freeze it is read-only
// and safe for concurrent reads; the statistics counters and the page
// cache keep their own mutex.
type DB struct {
	opts  Options
	pages [][]social.Row

	sidIndex  *btree.Tree // sid -> row ordinal
	rsidIndex *btree.Tree // rsid -> sids of posts reacting to it

	mu    sync.Mutex // guards cache and stats
	cache *pageCache
	stats Stats

	frozen      bool
	totalRows   int
	sortedBatch []social.Row // staging area before Freeze
}

// New creates an empty database.
func New(opts Options) *DB {
	if opts.RowsPerPage <= 0 {
		opts.RowsPerPage = DefaultOptions().RowsPerPage
	}
	if opts.IndexOrder < 3 {
		opts.IndexOrder = btree.DefaultOrder
	}
	db := &DB{
		opts:      opts,
		sidIndex:  btree.MustNew(opts.IndexOrder),
		rsidIndex: btree.MustNew(opts.IndexOrder),
	}
	if opts.CacheSize > 0 {
		db.cache = newPageCache(opts.CacheSize)
	}
	return db
}

// Load bulk-loads posts into the database and freezes it for querying.
// Loading is batch-oriented, matching the paper's offline/batch setting
// for geo-tagged tweets. Two posts with one SID fail with ErrRejected.
func Load(opts Options, posts []*social.Post) (*DB, error) {
	db := New(opts)
	for _, p := range posts {
		if err := db.Insert(p); err != nil {
			return nil, err
		}
	}
	if err := db.freeze(); err != nil {
		return nil, err
	}
	return db, nil
}

// Insert stages one post. Insert must not be called after Freeze.
func (db *DB) Insert(p *social.Post) error {
	if db.frozen {
		return fmt.Errorf("metadb: insert after freeze")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	db.sortedBatch = append(db.sortedBatch, social.Row{
		SID: p.SID, UID: p.UID,
		Lat: p.Loc.Lat, Lon: p.Loc.Lon,
		RUID: p.RUID, RSID: p.RSID,
	})
	return nil
}

// Freeze sorts the staged rows by SID (clustered on the primary key, as a
// timestamp-keyed tweet store naturally is), paginates them, builds both
// B⁺-tree indexes. After Freeze the database is read-only. Staging two rows
// with one SID is a caller bug here, and Freeze panics; Load returns it as
// an error instead.
func (db *DB) Freeze() {
	if err := db.freeze(); err != nil {
		panic(err)
	}
}

func (db *DB) freeze() error {
	if db.frozen {
		return nil
	}
	rows := db.sortedBatch
	db.sortedBatch = nil
	sort.Slice(rows, func(i, j int) bool { return rows[i].SID < rows[j].SID })
	for i := 1; i < len(rows); i++ {
		if rows[i].SID == rows[i-1].SID {
			return fmt.Errorf("metadb: %w: duplicate SID %d", social.ErrRejected, rows[i].SID)
		}
	}
	per := db.opts.RowsPerPage
	for start := 0; start < len(rows); start += per {
		end := start + per
		if end > len(rows) {
			end = len(rows)
		}
		db.pages = append(db.pages, rows[start:end])
	}
	for ordinal, r := range rows {
		db.sidIndex.Insert(int64(r.SID), int64(ordinal))
		if r.RSID != social.NoPost {
			db.rsidIndex.Insert(int64(r.RSID), int64(r.SID))
		}
	}
	db.totalRows = len(rows)
	db.frozen = true
	return nil
}

// Len returns the number of rows.
func (db *DB) Len() int { return db.totalRows }

// Stats returns a copy of the I/O counters, folding in index accesses.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	s := db.stats
	db.mu.Unlock()
	s.IndexReads = db.sidIndex.Accesses() + db.rsidIndex.Accesses()
	return s
}

// ResetStats zeroes all I/O counters.
func (db *DB) ResetStats() {
	db.mu.Lock()
	db.stats = Stats{}
	db.mu.Unlock()
	db.sidIndex.ResetAccesses()
	db.rsidIndex.ResetAccesses()
}

// readPage simulates fetching one page from disk (or the cache).
func (db *DB) readPage(idx int) []social.Row {
	db.mu.Lock()
	if db.cache != nil {
		if rows, ok := db.cache.get(idx); ok {
			db.stats.CacheHits++
			db.mu.Unlock()
			return rows
		}
	}
	db.stats.PageReads++
	db.mu.Unlock()
	if db.opts.IOLatency > 0 {
		simulateLatency(db.opts.IOLatency)
	}
	rows := db.pages[idx]
	if db.cache != nil {
		db.mu.Lock()
		db.cache.put(idx, rows)
		db.mu.Unlock()
	}
	return rows
}

func (db *DB) rowByOrdinal(ordinal int64) social.Row {
	page := int(ordinal) / db.opts.RowsPerPage
	slot := int(ordinal) % db.opts.RowsPerPage
	return db.readPage(page)[slot]
}

// GetBySID returns the row with the given post ID via the primary index.
// With caches off, each B⁺-tree node visited is one simulated I/O, like
// the page fetch itself.
func (db *DB) GetBySID(sid social.PostID) (social.Row, bool) {
	db.mustBeFrozen()
	vals, visited := db.sidIndex.GetCounted(int64(sid))
	db.chargeIndexIO(visited)
	if len(vals) == 0 {
		return social.Row{}, false
	}
	return db.rowByOrdinal(vals[0]), true
}

// chargeIndexIO adds simulated latency for index-node reads.
func (db *DB) chargeIndexIO(nodes int) {
	if db.opts.IOLatency > 0 && nodes > 0 {
		simulateLatency(time.Duration(nodes) * db.opts.IOLatency)
	}
}

// GetBySIDBatch resolves many post IDs through the primary index in one
// multi-get: the keys are visited in sorted order so B⁺-tree descents are
// shared across runs of nearby keys, and every distinct data page is
// fetched exactly once (in ascending page order, the schedule a disk would
// choose) no matter how many requested rows live on it. rows and found are
// aligned with sids — the same rows, in the same order, a GetBySID loop
// would produce — and the returned BatchStats reports the simulated I/O
// the batch saved against that loop.
func (db *DB) GetBySIDBatch(sids []social.PostID) (rows []social.Row, found []bool, bs BatchStats) {
	db.mustBeFrozen()
	rows, found, bs = db.getBySIDBatch(sids)
	db.noteBatch(bs)
	return rows, found, bs
}

// LookupRows is GetBySIDBatch as the engine's paged candidate filter reads
// it (core.RowLookup): the rows and which were found, aligned with sids,
// and the page+node touches the batch saved against a single-key loop.
func (db *DB) LookupRows(sids []social.PostID) ([]social.Row, []bool, int64) {
	rows, found, bs := db.GetBySIDBatch(sids)
	return rows, found, bs.PagesSaved
}

// getBySIDBatch is GetBySIDBatch without folding bs into the cumulative
// counters; public wrappers do, so composed batches count once.
func (db *DB) getBySIDBatch(sids []social.PostID) ([]social.Row, []bool, BatchStats) {
	rows := make([]social.Row, len(sids))
	found := make([]bool, len(sids))
	if len(sids) == 0 {
		return rows, found, BatchStats{}
	}
	keys := make([]int64, len(sids))
	for i, sid := range sids {
		keys[i] = int64(sid)
	}
	vals, visited := db.sidIndex.GetBatchCounted(keys)
	db.chargeIndexIO(visited)

	// Collect the distinct pages behind the found ordinals, fetch each
	// once, then assemble rows in input order.
	per := db.opts.RowsPerPage
	ordinals := make([]int64, len(sids))
	pageRows := make(map[int][]social.Row)
	nFound := 0
	for i, v := range vals {
		if len(v) == 0 {
			continue
		}
		found[i] = true
		ordinals[i] = v[0]
		pageRows[int(v[0])/per] = nil
		nFound++
	}
	pages := make([]int, 0, len(pageRows))
	for p := range pageRows {
		pages = append(pages, p)
	}
	sort.Ints(pages)
	for _, p := range pages {
		pageRows[p] = db.readPage(p)
	}
	for i := range sids {
		if found[i] {
			o := ordinals[i]
			rows[i] = pageRows[int(o)/per][int(o)%per]
		}
	}

	// The single-key loop pays one full descent per key plus one page read
	// per found row; the batch paid visited nodes plus one read per
	// distinct page.
	naive := len(sids)*db.sidIndex.Height() + nFound
	actual := visited + len(pages)
	return rows, found, BatchStats{
		Lookups:    int64(len(sids)),
		PagesRead:  int64(actual),
		PagesSaved: int64(naive - actual),
	}
}

// SelectByRSIDBatch answers one "select all where rsid = Id" per input key
// in a single multi-get: the rsid secondary index is probed batch-wise,
// then every child row across all inputs is fetched through one primary
// batch so data pages shared between threads are read once. out[i] holds
// exactly the rows SelectByRSID(rsids[i]) would return, in the same order.
// One call per thread level turns Algorithm 1's per-node lookup storm into
// level-sized I/O.
func (db *DB) SelectByRSIDBatch(rsids []social.PostID) (out [][]social.Row, bs BatchStats) {
	db.mustBeFrozen()
	out = make([][]social.Row, len(rsids))
	if len(rsids) == 0 {
		return out, BatchStats{}
	}
	keys := make([]int64, len(rsids))
	for i, rsid := range rsids {
		keys[i] = int64(rsid)
	}
	lists, visited := db.rsidIndex.GetBatchCounted(keys)
	db.chargeIndexIO(visited)

	var childSIDs []social.PostID
	for _, sids := range lists {
		for _, sid := range sids {
			childSIDs = append(childSIDs, social.PostID(sid))
		}
	}
	childRows, childFound, childBS := db.getBySIDBatch(childSIDs)

	next := 0
	for i, sids := range lists {
		if len(sids) == 0 {
			continue
		}
		group := make([]social.Row, 0, len(sids))
		for range sids {
			if childFound[next] {
				group = append(group, childRows[next])
			}
			next++
		}
		out[i] = group
	}

	// Against a SelectByRSID loop: one rsid descent per input key on top of
	// the per-child primary costs already accounted by the inner batch.
	// Children are internal work, not caller keys.
	naiveIndex := len(rsids) * db.rsidIndex.Height()
	bs = BatchStats{
		Lookups:    int64(len(rsids)),
		PagesRead:  int64(visited) + childBS.PagesRead,
		PagesSaved: int64(naiveIndex-visited) + childBS.PagesSaved,
	}
	db.noteBatch(bs)
	return out, bs
}

// noteBatch folds one multi-get's savings into the cumulative counters.
func (db *DB) noteBatch(bs BatchStats) {
	db.mu.Lock()
	db.stats.BatchLookups += bs.Lookups
	db.stats.BatchPagesSaved += bs.PagesSaved
	db.mu.Unlock()
}

// SelectByRSID returns the rows of all posts that reply to or forward the
// given post (Algorithm 1 line 7), via the rsid secondary index.
func (db *DB) SelectByRSID(rsid social.PostID) []social.Row {
	db.mustBeFrozen()
	sids, visited := db.rsidIndex.GetCounted(int64(rsid))
	db.chargeIndexIO(visited)
	if len(sids) == 0 {
		return nil
	}
	out := make([]social.Row, 0, len(sids))
	for _, sid := range sids {
		if r, ok := db.GetBySID(social.PostID(sid)); ok {
			out = append(out, r)
		}
	}
	return out
}

// Scan iterates every row in SID order; fn returning false stops the scan.
// Each page touched counts as one I/O, so a full scan models the sequential
// read cost the baseline (index-free) ranker pays.
func (db *DB) Scan(fn func(social.Row) bool) {
	db.mustBeFrozen()
	for i := range db.pages {
		for _, r := range db.readPage(i) {
			if !fn(r) {
				return
			}
		}
	}
}

func (db *DB) mustBeFrozen() {
	if !db.frozen {
		panic("metadb: query before Freeze")
	}
}

// simulateLatency delays for d. The OS cannot sleep for single-digit
// microseconds (time.Sleep rounds up to scheduler granularity, ~100 µs),
// so short latencies spin on the monotonic clock instead.
func simulateLatency(d time.Duration) {
	if d >= 100*time.Microsecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}
