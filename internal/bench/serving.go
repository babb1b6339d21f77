package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	tklus "repro"
	"repro/internal/server"
)

// servingConfig is the one configuration every arrangement is built with.
func servingConfig() tklus.Config {
	return tklus.DefaultConfig(tklus.WithPopCache(PopCacheEntries), tklus.WithReplySnapshot())
}

// frontend is a handler listening on a loopback port.
type frontend struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*frontend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &frontend{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { f.done <- f.srv.Serve(ln) }()
	return f, nil
}

// Close drains the listener and waits for its serve loop to return.
func (f *frontend) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	<-f.done
	return err
}

// serving is one stood-up arrangement: the backend, the real server over it
// on a loopback port, and everything that must be closed afterwards.
type serving struct {
	mono    *tklus.SegmentedSystem // nil when sharded
	sharded *tklus.ShardedSystem   // nil when mono
	wal     *tklus.WAL             // durable arrangement's ingest log
	front   *frontend
	client  *httpClient

	saveSeconds float64 // the Save inside a durable set-up
}

func (s *serving) searcher() tklus.Searcher {
	if s.sharded != nil {
		return s.sharded
	}
	return s.mono
}

// Close releases the client, the listener, the segment store and the WAL.
func (s *serving) Close() error {
	var errs []error
	if s.client != nil {
		s.client.close()
	}
	if s.front != nil {
		errs = append(errs, s.front.Close())
	}
	if s.mono != nil {
		errs = append(errs, s.mono.Close(), s.mono.CloseWAL())
	}
	return errors.Join(errs...)
}

// start puts the real server in front of the backend and answers a first
// search over HTTP — the end of set-up as a user sees it.
func (s *serving) start(first []byte) error {
	front, err := listen(server.NewSearcherWith(s.searcher(), server.Options{}))
	if err != nil {
		return err
	}
	s.front = front
	s.client = newHTTPClient(front.url)
	var buf bytes.Buffer
	status, err := s.client.post("/v1/search", first, "", &buf)
	if err != nil {
		return fmt.Errorf("first search: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("first search: status %d: %s", status, buf.Bytes())
	}
	return nil
}

// setupMono is the read workloads' arrangement on the monolith: Build, then
// the segment store in dir.
func setupMono(posts []*tklus.Post, dir string, first []byte) (*serving, error) {
	sys, err := tklus.Build(posts, servingConfig())
	if err != nil {
		return nil, err
	}
	seg, err := tklus.EnableSegments(sys, tklus.SegmentOptions{Dir: filepath.Join(dir, "segments")})
	if err != nil {
		return nil, err
	}
	return started(&serving{mono: seg}, first)
}

// setupSharded is the router over four in-process shards.
func setupSharded(posts []*tklus.Post, first []byte) (*serving, error) {
	ss, err := tklus.BuildSharded(posts, servingConfig(), tklus.DefaultShardingConfig())
	if err != nil {
		return nil, err
	}
	return started(&serving{sharded: ss}, first)
}

// setupDurable is ingest-mix's arrangement, in tklus-server's order: Build,
// base snapshot, WAL, then the segment store replaying that WAL.
func setupDurable(posts []*tklus.Post, dataDir string, memtableRows int, first []byte) (*serving, error) {
	sys, err := tklus.Build(posts, servingConfig())
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := sys.Save(dataDir); err != nil {
		return nil, err
	}
	saveSeconds := time.Since(t0).Seconds()
	log, err := sys.EnableWAL(dataDir, tklus.WALOptions{Policy: tklus.WALSyncInterval})
	if err != nil {
		return nil, err
	}
	seg, err := enableDurableSegments(sys, dataDir, memtableRows)
	if err != nil {
		return nil, errors.Join(err, sys.CloseWAL())
	}
	return started(&serving{mono: seg, wal: log, saveSeconds: saveSeconds}, first)
}

func enableDurableSegments(sys *tklus.System, dataDir string, memtableRows int) (*tklus.SegmentedSystem, error) {
	return tklus.EnableSegments(sys, tklus.SegmentOptions{
		Dir:          filepath.Join(dataDir, "segments"),
		WALDir:       dataDir,
		MemtableRows: memtableRows,
	})
}

// reopenDurable is the restart: Load (snapshot + WAL replay), then the
// segment store with the WAL's unsealed tail replayed into its memtable.
func reopenDurable(dataDir string, memtableRows int, first []byte) (sv *serving, loadSeconds, segmentsSeconds float64, err error) {
	t0 := time.Now()
	sys, err := tklus.Load(dataDir, servingConfig())
	if err != nil {
		return nil, 0, 0, err
	}
	loadSeconds = time.Since(t0).Seconds()
	t1 := time.Now()
	seg, err := enableDurableSegments(sys, dataDir, memtableRows)
	if err != nil {
		return nil, 0, 0, err
	}
	segmentsSeconds = time.Since(t1).Seconds()
	sv, err = started(&serving{mono: seg}, first)
	return sv, loadSeconds, segmentsSeconds, err
}

// started runs start and closes the arrangement if it fails.
func started(s *serving, first []byte) (*serving, error) {
	if err := s.start(first); err != nil {
		return nil, errors.Join(err, s.Close())
	}
	return s, nil
}

// --- traced pass decorators -------------------------------------------------
//
// The traced pass serves the same backend through a second server whose
// Searcher, ShardBackends and handler are wrapped by the timing decorators
// below. They only time calls and read the QueryStats those calls return.

// searchTrace is what the decorators keep per traced search beside spans.
type searchTrace struct {
	stats    *tklus.QueryStats
	partials map[string]*tklus.Partials // sharded: what each shard shipped, by shard name
	calls    int                        // sharded: SearchPartials calls (fan-out + hedges)
}

// shipped lists the partials in shard-name order.
func (t *searchTrace) shipped() []*tklus.Partials {
	names := make([]string, 0, len(t.partials))
	for name := range t.partials {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*tklus.Partials, len(names))
	for i, name := range names {
		out[i] = t.partials[name]
	}
	return out
}

// traceSink collects per-request facts from concurrent decorators.
type traceSink struct {
	mu   sync.Mutex
	byID map[int]*searchTrace
}

func (t *traceSink) at(req int) *searchTrace {
	if t.byID == nil {
		t.byID = make(map[int]*searchTrace)
	}
	if t.byID[req] == nil {
		t.byID[req] = &searchTrace{partials: make(map[string]*tklus.Partials)}
	}
	return t.byID[req]
}

func reqOf(ctx context.Context) (int, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref.req, ok
}

// tracedSearch times a Searcher under the given span name and lays the
// engine's own stage timings (read from the returned QueryStats) under it.
type tracedSearch struct {
	rec   *Recorder
	sink  *traceSink
	name  string
	inner tklus.Searcher
}

func (t *tracedSearch) Search(ctx context.Context, q tklus.Query) ([]tklus.UserResult, *tklus.QueryStats, error) {
	ctx, end := t.rec.Child(ctx, t.name)
	res, stats, err := t.inner.Search(ctx, q)
	done := time.Now()
	end()
	if req, ok := reqOf(ctx); ok && stats != nil {
		t.sink.mu.Lock()
		t.sink.at(req).stats = stats
		t.sink.mu.Unlock()
		if len(stats.Spans) > 0 { // a monolithic engine; the router reports none
			engineStart := done.Add(-stats.Elapsed)
			core := t.rec.Interval(ctx, "core.search", engineStart, done)
			for _, sp := range stats.Spans {
				t.rec.Interval(core, "core."+sp.Stage, engineStart.Add(sp.Start), engineStart.Add(sp.Start+sp.Duration))
			}
		}
	}
	return res, stats, err
}

// tracedStore is the decorated SegmentedSystem: it keeps the capabilities
// the server discovers by interface (introspection, ingest).
type tracedStore struct {
	tracedSearch
	seg *tklus.SegmentedSystem
}

func (t *tracedStore) UnderlyingSystem() *tklus.System { return t.seg.UnderlyingSystem() }

func (t *tracedStore) IngestContext(ctx context.Context, posts ...*tklus.Post) error {
	ctx, end := t.rec.Child(ctx, "store.ingest")
	defer end()
	return t.seg.IngestContext(ctx, posts...)
}

// tracedRouter is the decorated ShardedSystem.
type tracedRouter struct {
	tracedSearch
	ss *tklus.ShardedSystem
}

func (t *tracedRouter) PostCountOfUser(uid tklus.UserID) int { return t.ss.PostCountOfUser(uid) }

// tracedShard times one shard's SearchPartials and keeps what it shipped.
type tracedShard struct {
	rec   *Recorder
	sink  *traceSink
	name  string
	inner tklus.ShardBackend
}

func (t *tracedShard) SearchPartials(ctx context.Context, q tklus.Query) (*tklus.Partials, error) {
	ctx, end := t.rec.Child(ctx, "shard.search")
	parts, err := t.inner.SearchPartials(ctx, q)
	end()
	if req, ok := reqOf(ctx); ok {
		t.sink.mu.Lock()
		tr := t.sink.at(req)
		tr.calls++
		if err == nil {
			tr.partials[t.name] = parts
		}
		t.sink.mu.Unlock()
	}
	return parts, err
}

// tracedHandler joins the server side of a traced request to the client's
// root span (named in spanHeader) and times Server.ServeHTTP.
type tracedHandler struct {
	rec   *Recorder
	inner http.Handler
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if req, id, ok := parseSpanRef(r.Header.Get(spanHeader)); ok {
		name := "server.search"
		if strings.HasSuffix(r.URL.Path, "/ingest") {
			name = "server.ingest"
		}
		ctx, end := t.rec.Child(withSpan(r.Context(), req, id), name)
		defer end()
		r = r.WithContext(ctx)
	}
	t.inner.ServeHTTP(w, r)
}

func formatSpanRef(ctx context.Context) string {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return strconv.Itoa(ref.req) + ":" + strconv.Itoa(ref.id)
}

func parseSpanRef(s string) (req, id int, ok bool) {
	a, b, found := strings.Cut(s, ":")
	if !found {
		return 0, 0, false
	}
	req, err1 := strconv.Atoi(a)
	id, err2 := strconv.Atoi(b)
	return req, id, err1 == nil && err2 == nil
}

// tracedFront stands the decorated twin of an arrangement up on its own
// port. For the router, the shard backends are re-wired through NewSharded
// over the same shard systems and prefixes, so the decorated router does
// the same fan-out as the measured one.
func tracedFront(sv *serving, rec *Recorder, sink *traceSink) (*frontend, error) {
	var searcher tklus.Searcher
	if sv.sharded != nil {
		prefixes := sv.sharded.ShardPrefixes()
		var specs []tklus.ShardSpec
		for i, name := range sv.sharded.ShardNames() {
			specs = append(specs, tklus.ShardSpec{
				Name:     name,
				Backend:  &tracedShard{rec: rec, sink: sink, name: name, inner: sv.sharded.Systems[i]},
				Prefixes: prefixes[name],
			})
		}
		router, err := tklus.NewSharded(servingConfig().Engine.Params.Alpha, tklus.DefaultShardingConfig(), specs)
		if err != nil {
			return nil, err
		}
		searcher = &tracedRouter{tracedSearch{rec, sink, "router.search", router}, sv.sharded}
	} else {
		searcher = &tracedStore{tracedSearch{rec, sink, "store.search", sv.mono}, sv.mono}
	}
	return listen(tracedHandler{rec, server.NewSearcherWith(searcher, server.Options{})})
}
