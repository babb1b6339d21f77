package core

// Tests that pin the gather → bound kernel: the typed OR merge against a
// sort-and-fold reference, what closeIterators still reports, the scratch's
// ownership rule (no pooled memory escapes a call; concurrent calls do not
// share one), the allocation budget of a whole search, and the cancellation
// check between partitions.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/invindex"
	"repro/internal/segment"
	"repro/internal/social"
)

// blocked encodes ps in blocks of blockSize and opens a lazy iterator on it.
func blocked(t *testing.T, ps []invindex.Posting, blockSize int) *invindex.PostingsIterator {
	t.Helper()
	payload, err := invindex.EncodeBlockedPostingsList(ps, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	it, err := invindex.NewBlockedIterator(payload)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// TestUnionMatchesSortAndFold drives the typed OR merge over random
// partitions' worth of lists — several terms, several cells per term, lists
// from empty to many blocks, TIDs shared across terms, block-lazy and
// already-decoded (slice) iterators mixed — against the reference: sort
// every posting by TID and fold equal TIDs, summing term frequencies. One
// scratch serves every trial, as one serves every partition of a query.
func TestUnionMatchesSortAndFold(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	sc := new(scratch)
	for trial := 0; trial < 300; trial++ {
		var termIts [][]*invindex.PostingsIterator
		var all []invindex.Posting
		for term, nTerms := 0, rng.Intn(5); term < nTerms; term++ {
			var its []*invindex.PostingsIterator
			// The cells of one term are disjoint: deal each TID to one of them.
			cells := make([][]invindex.Posting, 1+rng.Intn(4))
			for tid, n := social.PostID(0), rng.Intn(120); n > 0; n-- {
				tid += social.PostID(1 + rng.Intn(3)) // dense: terms collide often
				p := invindex.Posting{TID: tid, TF: uint32(1 + rng.Intn(3))}
				c := rng.Intn(len(cells))
				cells[c] = append(cells[c], p)
				all = append(all, p)
			}
			for _, ps := range cells {
				if rng.Intn(3) == 0 {
					its = append(its, invindex.NewSliceIterator(ps)) // empty ones included
				} else if len(ps) > 0 {
					its = append(its, blocked(t, ps, 1+rng.Intn(9)))
				}
			}
			termIts = append(termIts, its)
		}
		slices.SortStableFunc(all, func(a, b invindex.Posting) int { return cmp.Compare(a.TID, b.TID) })
		var want []candidate
		for _, p := range all {
			if n := len(want); n > 0 && want[n-1].doc == p.TID {
				want[n-1].matches += int(p.TF)
			} else {
				want = append(want, candidate{doc: p.TID, matches: int(p.TF)})
			}
		}
		got := unionIterators(termIts, sc)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: union of %d lists = %v, want %v", trial, len(all), got, want)
		}
		var stats QueryStats
		if err := closeIterators(termIts, &stats); err != nil || stats.BlocksSkipped != 0 {
			t.Fatalf("trial %d: close after a full union: err %v, %d blocks skipped", trial, err, stats.BlocksSkipped)
		}
	}
}

// TestCloseIteratorsReportsErrorsAndSkips pins what the merges leave to
// closeIterators: a block that fails to decode mid-merge ends its run
// quietly and surfaces as the close's error, and the blocks an AND merge
// never decoded are credited as skipped.
func TestCloseIteratorsReportsErrorsAndSkips(t *testing.T) {
	long := make([]invindex.Posting, 64)
	for i := range long {
		long[i] = invindex.Posting{TID: social.PostID(10 * (i + 1)), TF: 1}
	}
	payload, err := invindex.EncodeBlockedPostingsList(long, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The last block's body is {tf, tidDelta, tf}, one byte each: a zero
	// delta passes the directory checks and fails the block's decode.
	payload[len(payload)-2] = 0
	bad, err := invindex.NewBlockedIterator(payload)
	if err != nil {
		t.Fatal(err)
	}
	termIts := [][]*invindex.PostingsIterator{{bad}, {invindex.NewSliceIterator(ps(15, 1, 635, 1))}}
	got := unionIterators(termIts, new(scratch))
	if len(got) != 64 || got[len(got)-1].doc != 635 { // 62 decodable postings + the other term's two
		t.Fatalf("union over a corrupt tail = %d candidates ending %+v", len(got), got[len(got)-1])
	}
	if err := closeIterators(termIts, &QueryStats{}); err == nil {
		t.Fatal("closeIterators passed a list that failed to decode as a short one")
	}

	termIts = [][]*invindex.PostingsIterator{{invindex.NewSliceIterator(ps(20, 1, 600, 2))}, {blocked(t, long, 2)}}
	if got := intersectIterators(termIts, new(scratch)); !slices.Equal(got, []candidate{{20, 2}, {600, 3}}) {
		t.Fatalf("intersection = %+v", got)
	}
	var stats QueryStats
	if err := closeIterators(termIts, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.BlocksSkipped != 30 || stats.PostingsSkipped != 60 { // all but the two blocks holding 20 and 600
		t.Fatalf("skipped %d blocks / %d postings, want 30 / 60", stats.BlocksSkipped, stats.PostingsSkipped)
	}
}

// storePartitions publishes a segment store's views — sealed segments, then
// the memtable — as engine partitions that read their own rows.
func storePartitions(store *segment.Store) []Partition {
	var parts []Partition
	for _, v := range store.Views() {
		parts = append(parts, Partition{Source: v.Source, Rows: v.Source, MinSID: v.MinSID, MaxSID: v.MaxSID})
	}
	return parts
}

// kernelEngine builds a segment-backed engine — sealed segments plus a live
// memtable, each partition reading its own rows — over a clustered
// three-keyword corpus with reply threads, and the queries the tests below
// share: the fixed 3-keyword Or/Sum query first.
func kernelEngine(tb testing.TB) (*Engine, []Query) {
	tb.Helper()
	rng := rand.New(rand.NewSource(24))
	vocab := []string{"hotel", "pizza", "cafe", "club", "film", "mall"}
	posts := make([]*social.Post, 6000)
	for i := range posts {
		p := &social.Post{
			SID: social.PostID(i + 1), UID: social.UserID(rng.Intn(700) + 1), Time: time.Unix(int64(i+1), 0),
			Loc:   benchCenter,
			Words: []string{vocab[rng.Intn(6)], vocab[rng.Intn(6)], vocab[rng.Intn(6)]},
		}
		p.Loc.Lat += rng.NormFloat64() * 0.12
		p.Loc.Lon += rng.NormFloat64() * 0.12
		if i > 0 && rng.Float64() < 0.35 {
			parent := posts[rng.Intn(i)]
			p.Kind, p.RUID, p.RSID = social.Reply, parent.UID, parent.SID
		}
		posts[i] = p
	}
	corpus, err := social.NewCorpus(posts, DefaultOptions().Params.ThreadDepth)
	if err != nil {
		tb.Fatal(err)
	}
	store, err := segment.OpenStore(tb.TempDir(), segment.Options{GeohashLen: 4, MemtableRows: 900})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() })
	for i, p := range posts {
		if _, err := store.Add(p, uint32(i)); err != nil { // posts ascend by SID
			tb.Fatal(err)
		}
	}
	parts := storePartitions(store)
	if len(parts) < 6 {
		tb.Fatalf("only %d partitions", len(parts))
	}
	opts := DefaultOptions()
	eng, err := NewPartitionedEngine(parts, corpus, opts)
	if err != nil {
		tb.Fatal(err)
	}
	kw := []string{"hotel", "pizza", "cafe"}
	return eng, []Query{
		{Loc: benchCenter, RadiusKm: 15, Keywords: kw, K: 10, Semantic: Or, Ranking: SumScore},
		{Loc: benchCenter, RadiusKm: 40, Keywords: kw, K: 5, Semantic: Or, Ranking: MaxScore},
		{Loc: benchCenter, RadiusKm: 25, Keywords: kw[:2], K: 5, Semantic: And, Ranking: SumScore},
		{Loc: benchCenter, RadiusKm: 8, Keywords: kw[2:], K: 3, Semantic: Or, Ranking: MaxScore},
	}
}

// TestCandidateTweetsSliceIsTheCallers: the slice CandidateTweets returns
// must not be a view of pooled memory — a hundred later searches, which
// recycle the scratch it was gathered in, leave it untouched.
func TestCandidateTweetsSliceIsTheCallers(t *testing.T) {
	eng, queries := kernelEngine(t)
	cands, stats, err := eng.CandidateTweets(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 500 || stats.Candidates != len(cands) {
		t.Fatalf("%d candidates (stats say %d): too few to notice an overwrite", len(cands), stats.Candidates)
	}
	before := slices.Clone(cands)
	for i := 0; i < 100; i++ {
		if _, _, err := eng.Search(context.Background(), queries[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(cands, before) {
		t.Fatal("CandidateTweets' slice changed under later searches: pooled memory escaped")
	}
}

// TestConcurrentSearchesMatchSequential: Search and SearchPartials calls in
// flight together, each on its own pooled scratch, return exactly what they
// return one at a time. Run under -race (make race, make flake).
func TestConcurrentSearchesMatchSequential(t *testing.T) {
	eng, queries := kernelEngine(t)
	type answer struct {
		results []UserResult
		cands   []CandidateScore
		users   []UserPartial
	}
	ask := func(q Query) (a answer, err error) {
		if a.results, _, err = eng.Search(context.Background(), q); err != nil {
			return a, err
		}
		p, err := eng.SearchPartials(context.Background(), q)
		if err != nil {
			return a, err
		}
		a.cands, a.users = p.Cands, p.Users
		return a, nil
	}
	want := make([]answer, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = ask(q); err != nil {
			t.Fatal(err)
		}
		if len(want[i].results) == 0 || len(want[i].cands) == 0 {
			t.Fatalf("query %d has no results", i)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				qi := (w + i) % len(queries)
				if got, err := ask(queries[qi]); err != nil || !reflect.DeepEqual(got, want[qi]) {
					t.Errorf("worker %d: query %d diverged from its sequential answer (err %v)", w, qi, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSearchAllocationBudget holds a whole query of the fixed 3-keyword
// Or/Sum shape to an allocation budget, on both exits. Search is gather, user
// table, one φ batch and top-k; what remains is per query or per postings
// list (iterators, block directories, decode buffers), not per posting.
// SearchPartials ships one record per candidate in one slice instead of
// ranking. Each budget is its measured count plus 15 %.
func TestSearchAllocationBudget(t *testing.T) {
	eng, queries := kernelEngine(t)
	q := queries[0]
	for _, leg := range []struct {
		name   string
		budget float64 // measured 490 (Search) and 483 (SearchPartials), plus 15 %
		run    func() error
	}{
		{"Search", 564, func() error {
			res, _, err := eng.Search(context.Background(), q)
			if err == nil && len(res) != q.K {
				err = fmt.Errorf("%d results, want %d", len(res), q.K)
			}
			return err
		}},
		{"SearchPartials", 555, func() error {
			p, err := eng.SearchPartials(context.Background(), q)
			if err == nil && len(p.Cands) < 500 {
				err = fmt.Errorf("only %d candidate records", len(p.Cands))
			}
			return err
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			if err := leg.run(); err != nil { // also grows the scratch
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := leg.run(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > leg.budget {
				t.Fatalf("%.0f allocations per call, budget %.0f", allocs, leg.budget)
			}
			t.Logf("%.0f allocations per call (budget %.0f)", allocs, leg.budget)
		})
	}
}

// cancelOnFetch is a partition whose postings fetch cancels the query's
// context — the client going away while stage 2 runs — and whose row reads
// count their calls.
type cancelOnFetch struct {
	benchPostings
	cancel   context.CancelFunc
	resolved *int
}

func (s cancelOnFetch) OpenPostings(cell, term string) (*invindex.PostingsIterator, error) {
	s.cancel()
	return s.benchPostings.OpenPostings(cell, term)
}

// Records holds ten rows at the centre, row i posted by user i as tweet i.
func (s cancelOnFetch) Records() []social.RowMeta {
	*s.resolved++
	recs := make([]social.RowMeta, 10)
	for i := range recs {
		recs[i] = social.RowMeta{SID: social.PostID(i), Lat: benchCenter.Lat, Lon: benchCenter.Lon, UID: social.UserID(i)}
	}
	return recs
}

// PostOrdinals numbers the ten rows as posts 0 … 9.
func (s cancelOnFetch) PostOrdinals() []uint32 { return identity(10) }

// countingPostings is a postings source that counts OpenPostings calls.
type countingPostings struct {
	benchPostings
	opened *int
}

func (s countingPostings) OpenPostings(cell, term string) (*invindex.PostingsIterator, error) {
	*s.opened++
	return s.benchPostings.OpenPostings(cell, term)
}

// TestCancelledSearchOpensNoPostings: a query whose context is already
// done returns its error once the cover is computed, before any
// partition's postings are opened — on every entry point that runs the
// front half.
func TestCancelledSearchOpensNoPostings(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opened := 0
	src := countingPostings{benchPostings: benchPostings{cell: "dpz8", list: ps(5, 1, 6, 1)}, opened: &opened}
	rows := cancelOnFetch{cancel: func() {}, resolved: new(int)}
	var posts []*social.Post // the ten posts the rows name
	for i := 1; i <= 10; i++ {
		posts = append(posts, &social.Post{SID: social.PostID(i), UID: social.UserID(i), Loc: benchCenter})
	}
	corpus, err := social.NewCorpus(posts, DefaultOptions().Params.ThreadDepth)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewPartitionedEngine([]Partition{{Source: src, Rows: rows}, {Source: src, Rows: rows}}, corpus, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Loc: benchCenter, RadiusKm: 5, Keywords: []string{"hotel"}, K: 3}
	if _, _, err := eng.Search(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("Search: err = %v, want context.Canceled", err)
	}
	if _, err := eng.SearchPartials(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchPartials: err = %v, want context.Canceled", err)
	}
	if opened != 0 {
		t.Errorf("a cancelled query opened %d postings lists", opened)
	}
	if _, _, err := eng.Search(context.Background(), q); err != nil || opened == 0 {
		t.Errorf("live query: err = %v after opening %d lists", err, opened)
	}
}

// TestGatherChecksContextPerPartition: stage 3 looks at the context before
// each partition's merge, so a query cancelled during postings retrieval
// returns context.Canceled without reading a row.
func TestGatherChecksContextPerPartition(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resolved := 0
	src := cancelOnFetch{benchPostings: benchPostings{cell: "dpz8", list: ps(5, 1, 6, 1, 7, 1)}, cancel: cancel, resolved: &resolved}
	corpus, err := social.NewCorpus(nil, DefaultOptions().Params.ThreadDepth)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	eng, err := NewPartitionedEngine([]Partition{{Source: src, Rows: src}, {Source: src, Rows: src}}, corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Loc: benchCenter, RadiusKm: 5, Keywords: []string{"hotel"}, K: 3}
	if _, _, err := eng.Search(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("search cancelled mid-retrieval returned %v, want context.Canceled", err)
	}
	if resolved != 0 {
		t.Fatalf("%d row batches resolved after the context was cancelled", resolved)
	}
	if cs, err := eng.gather(context.Background(), q, new(scratch)); err != nil || len(cs.cands) != 6 || resolved != 2 {
		t.Fatalf("live context: %v, err %v, %d row batches", cs, err, resolved)
	}
}
