package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	tklus "repro"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/textutil"
	"repro/internal/wal"
)

// Sample sizes of the leaf measurements.
const (
	fetchQueries = 100  // queries whose ⟨cell, term⟩ keys are fetched directly
	sidSample    = 2000 // candidate SIDs for the row-meta and thread lookups
)

// tracedClient stands the arrangement's decorated twin up and returns a
// client for it and the function that takes both down again.
func (r *run) tracedClient(sv *serving) (*httpClient, func() error, error) {
	front, err := tracedFront(sv, r.rec, r.sink)
	if err != nil {
		return nil, nil, err
	}
	client := newHTTPClient(front.url)
	return client, func() error {
		client.close()
		return front.Close()
	}, nil
}

// tracedIngest sends the given /v1/ingest bodies through the decorated
// server, one after another, and reports the ingest handler's split.
func (r *run) tracedIngest(sv *serving, bodies [][]byte) (err error) {
	client, done, err := r.tracedClient(sv)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, done()) }()

	mark := r.rec.Len()
	var buf bytes.Buffer
	for i, body := range bodies {
		r.attempt(1)
		ctx, end := r.rec.Root(context.Background(), -1-i, "http.ingest")
		status, err := client.post("/v1/ingest", body, formatSpanRef(ctx), &buf)
		end()
		if err != nil {
			return fmt.Errorf("traced ingest: %w", err)
		}
		if status != http.StatusOK {
			r.fail("traced ingest batch %d: status %d: %s", i, status, buf.Bytes())
		}
	}
	t := totalsByName(r.rec.Since(mark))
	n := float64(len(bodies))
	r.layer["server.ingest_decode_us"] = float64(t.self["server.ingest"]) / 1e3 / n
	r.layer["store.ingest_us_per_post"] = float64(t.dur["store.ingest"]) / 1e3 / (n * IngestBatch)
	return nil
}

// tracedPass produces the per-layer numbers. It runs after the measured
// phase in the same process, so it shares the set-up and cannot perturb the
// end-to-end metrics: one client, one pass over the query set in the
// warm-up's order, three times —
//
//  1. untraced over HTTP against the measured server (the reference the
//     tracing overhead is a ratio to; it also leaves the popularity cache
//     in a state that depends only on this fixed order);
//  2. over HTTP against the decorated server, every layer boundary a span;
//  3. directly into the Searcher, for allocation counts;
//
// followed by direct timed calls into the leaf packages on the keys and
// roots those queries touch. live is ingest-mix's ingested posts.
func (r *run) tracedPass(sv *serving, live []*tklus.Post) (err error) {
	client, done, err := r.tracedClient(sv)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, done()) }()

	order := RoundOrder(r.cfg.Seed, 0, len(r.reqs))
	n := float64(len(order))
	var buf bytes.Buffer

	var refNs int64
	for _, req := range order {
		t0 := time.Now()
		if _, err := sv.client.post("/v1/search", r.reqs[req].Body, "", &buf); err != nil {
			return fmt.Errorf("reference pass: %w", err)
		}
		refNs += time.Since(t0).Nanoseconds()
	}

	evictions0 := popEvictions(sv)
	mark := r.rec.Len()
	var respBytes, results int
	for _, req := range order {
		r.attempt(1)
		ctx, end := r.rec.Root(context.Background(), req, "http.search")
		status, err := client.post("/v1/search", r.reqs[req].Body, formatSpanRef(ctx), &buf)
		end()
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		if status != http.StatusOK {
			r.fail("traced pass: query %d: status %d", req, status)
			continue
		}
		respBytes += buf.Len()
		res, _ := resultsOf(buf.Bytes())
		results += bytes.Count(res, []byte(`"uid"`))
	}
	r.layer["popcache.evictions"] = float64(popEvictions(sv) - evictions0)
	r.layer["server.resp_bytes"] = float64(respBytes) / n

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, req := range order {
		if _, _, err := sv.searcher().Search(context.Background(), r.reqs[req].Query); err != nil {
			return fmt.Errorf("direct pass: %w", err)
		}
	}
	runtime.ReadMemStats(&m1)
	r.layer["core.allocs_per_search"] = float64(m1.Mallocs-m0.Mallocs) / n
	r.layer["core.alloc_bytes_per_search"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n

	named, rtt := r.spanMetrics(r.rec.Since(mark), n)
	r.layer["trace.overhead_ratio"] = ratio(rtt, float64(refNs)/1e3/n)
	named += r.statsMetrics(order, float64(results))
	// How much of a traced request's round trip the named layers account
	// for; what is missing is core.unattributed_us (and, on the router,
	// shard calls that did not start together).
	r.layer["trace.layer_sum_ratio"] = ratio(named, rtt)
	r.leafMetrics(sv, order)
	if live != nil {
		return r.writeLeafMetrics(live)
	}
	return nil
}

// popEvictions sums capacity evictions over the arrangement's caches (one
// per shard system on the router).
func popEvictions(sv *serving) int64 {
	if sv.mono != nil {
		return sv.mono.PopCache.Stats().Evictions
	}
	var total int64
	for _, sys := range sv.sharded.Systems {
		total += sys.PopCache.Stats().Evictions
	}
	return total
}

// spanMetrics turns the traced pass's spans into per-request means: each
// layer's self time is its span minus what its children cover. It returns
// the sum of the named layers above the engine on a request's blocking
// path, and the mean round trip, both in µs.
func (r *run) spanMetrics(spans []Span, n float64) (named, rtt float64) {
	t := totalsByName(spans)
	us := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	r.layer["server.http_us"] = us(t.self["http.search"])
	r.layer["server.wire_us"] = us(t.self["server.search"])
	named = r.layer["server.http_us"] + r.layer["server.wire_us"]
	if r.cfg.Workload.Sharded {
		// The slowest shard call is what a request waits for.
		slowest := map[int]int64{}
		for _, s := range spans {
			if s.Name == "shard.search" {
				slowest[s.Req] = max(slowest[s.Req], s.End-s.Start)
			}
		}
		var maxNs int64
		for _, ns := range slowest {
			maxNs += ns
		}
		r.layer["router.search_us"] = us(t.dur["router.search"])
		r.layer["router.self_us"] = us(t.self["router.search"])
		r.layer["router.shard_sum_us"] = us(t.dur["shard.search"])
		r.layer["router.shard_max_us"] = us(maxNs)
		named += r.layer["router.self_us"] + r.layer["router.shard_max_us"]
	} else {
		r.layer["store.search_us"] = us(t.dur["store.search"])
		r.layer["store.self_us"] = us(t.self["store.search"])
		named += r.layer["store.self_us"]
	}
	return named, us(t.dur["http.search"])
}

// statsMetrics reads the stage times and work counts out of the QueryStats
// the traced searches returned — the program's own accounting, not the
// harness's. On the router the stage times are summed over the shards a
// request fanned out to (each shard's Partials carries its engine's stats).
// It returns the monolith's stage time on the blocking path, in µs.
func (r *run) statsMetrics(order []int, results float64) (named float64) {
	n := float64(len(order))
	stages := []string{"cell_cover", "postings_fetch", "candidate_filter", "prune", "thread_build", "rank_topk"}
	sum := map[string]float64{}
	var fanout, calls, shipped, degraded int
	for _, req := range order {
		tr := r.sink.byID[req]
		if tr == nil || tr.stats == nil {
			continue
		}
		st := tr.stats
		engines := []*tklus.QueryStats{st}
		if r.cfg.Workload.Sharded {
			// The router's merged stats carry no timings; each shard's do.
			engines = nil
			for _, p := range tr.partials {
				engines = append(engines, &p.Stats)
				shipped += len(p.Cands)
			}
			fanout += len(tr.partials)
			calls += tr.calls
			if st.Degraded() {
				degraded++
			}
		}
		for _, e := range engines {
			sum["search"] += float64(e.Elapsed.Nanoseconds()) / 1e3
			for _, stage := range stages {
				sum[stage] += float64(e.StageDuration(stage).Nanoseconds()) / 1e3
			}
		}
		sum["cells"] += float64(st.Cells)
		sum["postings_lists"] += float64(st.PostingsFetched)
		sum["candidates"] += float64(st.Candidates)
		sum["threads_built"] += float64(st.ThreadsBuilt)
		sum["threads_pruned"] += float64(st.ThreadsPruned)
		sum["blocks_skipped"] += float64(st.BlocksSkipped)
		sum["partitions_pruned"] += float64(st.PartitionsPruned)
		sum["popcache_hits"] += float64(st.PopCacheHits)
		sum["batch_lookups"] += float64(st.DBBatchLookups)
		sum["pages_saved"] += float64(st.DBPagesSaved)
	}
	r.layer["core.search_us"] = sum["search"] / n
	attributed := 0.0
	for _, stage := range stages {
		r.layer["core."+stage+"_us"] = sum[stage] / n
		attributed += sum[stage] / n
	}
	r.layer["core.unattributed_us"] = r.layer["core.search_us"] - attributed
	for _, c := range []string{"cells", "postings_lists", "candidates", "threads_built", "threads_pruned", "blocks_skipped", "partitions_pruned"} {
		r.layer["core."+c] = sum[c] / n
	}
	r.layer["core.candidates_per_result"] = ratio(sum["candidates"], results)
	r.layer["core.prune_ratio"] = ratio(sum["threads_pruned"], sum["candidates"])
	r.layer["metadb.batch_lookups"] = sum["batch_lookups"] / n
	r.layer["metadb.pages_saved"] = sum["pages_saved"] / n
	r.layer["popcache.hit_ratio"] = ratio(sum["popcache_hits"], sum["popcache_hits"]+sum["threads_built"])
	if r.cfg.Workload.Sharded {
		r.layer["router.fanout"] = float64(fanout) / n
		r.layer["router.partials_candidates"] = float64(shipped) / n
		r.layer["router.hedges"] = float64(calls - fanout)
		r.layer["router.degraded"] = float64(degraded)
		return 0 // the shards' engines ran inside router.shard_max_us
	}
	return attributed
}

// leafMetrics times direct calls into the leaf packages on the keys and
// roots the traced queries touch.
func (r *run) leafMetrics(sv *serving, order []int) {
	n := float64(len(order))
	precision := servingConfig().Index.GeohashLen

	var coverNs, termsNs int64
	var cells int
	covers := make([][]string, len(order))
	terms := make([][]string, len(order))
	for i, req := range order {
		q := r.reqs[req].Query
		t0 := time.Now()
		covers[i] = geo.CircleCover(q.Loc, q.RadiusKm, precision)
		t1 := time.Now()
		terms[i] = core.QueryTerms(q.Keywords)
		termsNs += time.Since(t1).Nanoseconds()
		coverNs += t1.Sub(t0).Nanoseconds()
		cells += len(covers[i])
	}
	r.layer["geo.cover_us"] = float64(coverNs) / 1e3 / n
	r.layer["geo.cover_cells"] = float64(cells) / n
	r.layer["textutil.query_terms_us"] = float64(termsNs) / 1e3 / n

	if sv.mono == nil {
		r.mergeMetrics(order)
		return
	}
	r.storeState(sv)
	// Every ⟨cell, term⟩ key of the first queries, against every view of
	// the store (sealed segments and memtable), as the engine asks.
	views := sv.mono.Store.Views()
	var fetchNs int64
	var keys, postings int
	var sids []tklus.PostID
	for i := range order[:min(fetchQueries, len(order))] {
		for _, cell := range covers[i] {
			for _, term := range terms[i] {
				keys++
				for _, v := range views {
					t0 := time.Now()
					ps, err := v.Source.FetchPostings(cell, term)
					fetchNs += time.Since(t0).Nanoseconds()
					if err != nil {
						r.attempt(1)
						r.fail("segment fetch ⟨%s, %s⟩: %v", cell, term, err)
						continue
					}
					postings += len(ps)
					for _, p := range ps {
						sids = append(sids, p.TID)
					}
				}
			}
		}
	}
	queries := float64(min(fetchQueries, len(order)))
	r.layer["segment.fetch_us_per_key"] = ratio(float64(fetchNs)/1e3, float64(keys))
	r.layer["segment.keys_per_query"] = float64(keys) / queries
	r.layer["segment.postings_per_key"] = ratio(float64(postings), float64(keys))

	rng := rand.New(rand.NewSource(deriveSeed(r.cfg.Seed, saltRoots)))
	rng.Shuffle(len(sids), func(i, j int) { sids[i], sids[j] = sids[j], sids[i] })
	sids = sids[:min(sidSample, len(sids))]
	t0 := time.Now()
	for _, sid := range sids {
		sv.mono.Store.LookupRowMeta(sid)
	}
	r.layer["segment.rowmeta_ns"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(len(sids)))
	t0 = time.Now()
	for _, sid := range sids {
		sv.mono.Thread(sid)
	}
	r.layer["thread.tree_us"] = ratio(float64(time.Since(t0).Nanoseconds())/1e3, float64(len(sids)))
}

// storeState reads the segment store's gauges and lifetime counters.
func (r *run) storeState(sv *serving) {
	store := sv.mono.Store
	r.layer["store.seals"] = float64(store.Seals())
	r.layer["store.compactions"] = float64(store.Compactions())
	r.layer["store.segments"] = float64(store.SegmentCount())
	r.layer["store.mmap_bytes"] = float64(store.MappedBytes())
	r.layer["store.memtable_rows"] = float64(store.Memtable().Len())
}

// mergeMetrics times core.MergePartials on the partials the traced
// requests' shards shipped.
func (r *run) mergeMetrics(order []int) {
	alpha := servingConfig().Engine.Params.Alpha
	var ns int64
	merged := 0
	for _, req := range order {
		tr := r.sink.byID[req]
		if tr == nil || len(tr.partials) == 0 {
			continue
		}
		parts := tr.shipped()
		t0 := time.Now()
		_, _, err := core.MergePartials(r.reqs[req].Query, alpha, parts)
		ns += time.Since(t0).Nanoseconds()
		merged++
		if err != nil {
			r.attempt(1)
			r.fail("merging query %d's partials: %v", req, err)
		}
	}
	r.layer["core.merge_partials_us"] = ratio(float64(ns)/1e3, float64(merged))
}

// writeLeafMetrics times the write path's leaves on the live posts: the
// term pipeline the ingest handler runs on each text, and WAL appends into
// a scratch log under the serving policy.
func (r *run) writeLeafMetrics(live []*tklus.Post) error {
	t0 := time.Now()
	for _, p := range live {
		textutil.Terms(p.Text)
	}
	r.layer["textutil.terms_us_per_post"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(live))

	log, err := wal.Open(filepath.Join(r.dir, "scratch-wal"), wal.Options{Policy: wal.SyncInterval})
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, p := range live {
		if err := log.Append(p); err != nil {
			return errors.Join(err, log.Close())
		}
	}
	r.layer["wal.append_us_per_post"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(live))
	return log.Close()
}
