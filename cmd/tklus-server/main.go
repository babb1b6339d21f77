// Command tklus-server serves TkLUS queries over HTTP. It builds the
// system from a JSONL corpus, or with -data reopens the directory a previous
// run (or tklus-index -save) checkpointed.
//
// Usage:
//
//	tklus-server -in corpus.jsonl -addr :8080
//	tklus-server -data ./sysimg  -addr :8080 -debug -slow-query 250ms
//	tklus-server -in corpus.jsonl -shards 4    # in-process sharded tier
//
//	curl 'localhost:8080/search?lat=43.68&lon=-79.37&radius=10&keywords=hotel&k=5'
//	curl -d '{"lat":43.68,"lon":-79.37,"radius_km":10,"keywords":["hotel"],"k":5}' localhost:8080/v1/search
//	curl 'localhost:8080/evidence?lat=43.68&lon=-79.37&radius=10&keywords=hotel&uid=1'
//	curl 'localhost:8080/stats'
//	curl 'localhost:8080/metrics'          # Prometheus text exposition
//	go tool pprof localhost:8080/debug/pprof/profile   # with -debug
//
// The server installs Read/Write/Idle timeouts and shuts down gracefully
// on SIGINT/SIGTERM: in-flight queries drain (up to -shutdown-timeout),
// then a final metrics snapshot is flushed to the log.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	tklus "repro"
	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	var (
		in     = flag.String("in", "corpus.jsonl", "input corpus")
		format = flag.String("format", "jsonl", "input format: jsonl | twitter (REST v1.1 statuses)")
		addr   = flag.String("addr", ":8080", "listen address")
		debug  = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
		slowQ  = flag.Duration("slow-query", 250*time.Millisecond,
			"log queries at or above this duration (0 disables the slow-query log)")
		shards = flag.Int("shards", 0,
			"serve an in-process sharded tier with this many geo-shards (0 = monolithic; incompatible with -data)")
		replicas = flag.Int("replicas", 1,
			"replicas per shard when -shards > 0: one leader plus N-1 WAL-shipped followers with lease-based failover (1 = unreplicated)")
		replicaDir = flag.String("replica-dir", "",
			"directory for per-replica ingest WALs when -replicas > 1 (empty = ephemeral temp dir)")
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second,
			"how long to drain in-flight queries on SIGINT/SIGTERM")
		data = flag.String("data", "",
			"durable data directory: reopen its segment store and replay its ingest WAL (or build from -in on first boot), serve from <data>/segments, append to the WAL, checkpoint periodically and on shutdown (monolithic only)")
		walSync = flag.String("wal-sync", "record",
			"ingest WAL fsync policy: record | interval | off")
		checkpointInterval = flag.Duration("checkpoint-interval", 15*time.Minute,
			"how often to checkpoint the -data directory: seal the memtable and truncate the WAL (0 disables periodic checkpoints)")
		segmentBucket = flag.Duration("segment-bucket", 30*24*time.Hour,
			"with -data: segment time-bucket width of <data>/segments; ingest seals the memtable when a post crosses a bucket boundary")
		compactInterval = flag.Duration("compact-interval", 0,
			"with -data: background size-tiered compaction period of <data>/segments (0 disables)")
		trace = flag.Bool("trace", false,
			"enable distributed tracing: span trees for searches, shard fan-outs, ingests and checkpoints, served at /debug/traces")
		traceSample = flag.Float64("trace-sample", 0.05,
			"probability an unremarkable trace survives tail sampling (slow, errored, hedged and degraded traces are always kept)")
		traceStore = flag.Int("trace-store", 512,
			"completed-trace ring buffer capacity")
		admission = flag.Bool("admission", false,
			"enable admission control: bounded queue + bounded wait; excess load answers 429 with Retry-After instead of queueing without bound")
		admissionConc = flag.Int("admission-concurrent", 0,
			"admission: max concurrently running searches (0 = GOMAXPROCS)")
		admissionQueue = flag.Int("admission-queue", 0,
			"admission: max searches waiting for a slot before arrivals are shed (0 = 4x -admission-concurrent)")
		admissionWait = flag.Duration("admission-wait", 0,
			"admission: max time one search may wait for a slot (0 = 500ms)")
		admissionCost = flag.Float64("admission-cost-budget", 0,
			"admission: token-bucket refill rate in estimated work units/sec; expensive query shapes are shed when the bucket runs dry (0 disables cost-based shedding)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	var tracer *telemetry.Tracer
	if *trace {
		tracer = telemetry.NewTracer(telemetry.TracerOptions{
			Capacity:      *traceStore,
			SampleRate:    *traceSample,
			SlowThreshold: *slowQ,
		})
	}

	opts := server.Options{
		Logger:             logger,
		SlowQueryThreshold: *slowQ,
		EnablePprof:        *debug,
		Tracer:             tracer,
	}
	if *admission {
		opts.Admission = &tklus.AdmissionOptions{
			MaxConcurrent: *admissionConc,
			MaxQueue:      *admissionQueue,
			MaxWait:       *admissionWait,
			CostBudget:    *admissionCost,
		}
		logger.Info("admission control enabled",
			"concurrent", *admissionConc, "queue", *admissionQueue,
			"wait", admissionWait.String(), "cost_budget", *admissionCost)
	}

	// Bind the listener before building the system so probes get answers
	// during a long store open or WAL replay: /healthz says the process
	// is alive, /readyz says 503 until the real handler is swapped in.
	boot := &swapHandler{}
	boot.Store(http.HandlerFunc(notReady))
	srv := &http.Server{
		Addr:    *addr,
		Handler: boot,
		// Header/body reads are tiny GETs; writes cover the slowest
		// plausible query against a large corpus.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	var handler *server.Server
	var durable *tklus.System // non-nil when -data owns persistence
	var mono *tklus.System    // the one system of an unsharded server
	if *shards > 0 {
		if *data != "" {
			logger.Error("-shards cannot be combined with -data (checkpoints are monolithic)")
			os.Exit(1)
		}
		posts, err := ingest.Load(*in, *format)
		if err != nil {
			logger.Error("loading corpus", "err", err)
			os.Exit(1)
		}
		sc := tklus.DefaultShardingConfig()
		sc.NumShards = *shards
		if *replicas > 1 {
			rc := tklus.DefaultReplicationConfig()
			rc.Replicas = *replicas
			rc.Dir = *replicaDir
			if rc.Dir == "" {
				tmp, terr := os.MkdirTemp("", "tklus-replicas-*")
				if terr != nil {
					logger.Error("creating ephemeral replica WAL directory", "err", terr)
					os.Exit(1)
				}
				rc.Dir = tmp
			}
			rs, rerr := tklus.BuildReplicatedSharded(posts, tklus.DefaultConfig(), sc, rc)
			if rerr != nil {
				logger.Error("building replicated sharded tier", "err", rerr)
				os.Exit(1)
			}
			defer rs.Close()
			handler = server.NewSearcherWith(rs, opts)
			logger.Info("serving replicated sharded tier",
				"posts", len(posts), "shards", rs.NumShards(), "replicas", *replicas,
				"wal_dir", rc.Dir, "addr", *addr, "pprof", *debug, "slow_query", slowQ.String())
		} else {
			ss, serr := tklus.BuildSharded(posts, tklus.DefaultConfig(), sc)
			if serr != nil {
				logger.Error("building sharded tier", "err", serr)
				os.Exit(1)
			}
			handler = server.NewSearcherWith(ss, opts)
			logger.Info("serving sharded tier",
				"posts", len(posts), "shards", ss.NumShards(),
				"addr", *addr, "pprof", *debug, "slow_query", slowQ.String())
		}
	} else {
		var sys *tklus.System
		var err error
		switch {
		case *data != "":
			sys, err = openDurable(logger, *data, *in, *format, tklus.DefaultConfig(), tklus.SegmentOptions{
				Dir:             filepath.Join(*data, "segments"),
				BucketWidth:     *segmentBucket,
				CompactInterval: *compactInterval,
			})
		default:
			var posts []*tklus.Post
			if posts, err = ingest.Load(*in, *format); err != nil {
				logger.Error("loading corpus", "err", err)
				os.Exit(1)
			}
			sys, err = tklus.Build(posts, tklus.DefaultConfig())
		}
		if err != nil {
			logger.Error("building system", "err", err)
			os.Exit(1)
		}
		if *data != "" {
			policy, perr := walPolicy(*walSync)
			if perr != nil {
				logger.Error("bad -wal-sync", "err", perr)
				os.Exit(1)
			}
			if _, err := sys.EnableWAL(*data, tklus.WALOptions{Policy: policy}); err != nil {
				logger.Error("opening ingest WAL", "err", err)
				os.Exit(1)
			}
			durable = sys
			logger.Info("ingest WAL enabled", "dir", *data, "sync", policy.String())
		}
		mono = sys
		handler = server.NewWith(sys, opts)
		if durable != nil {
			durable.RegisterPersistenceMetrics(handler.Registry())
		}
		logger.Info("serving",
			"rows", sys.DB.Len(), "index_keys", sys.Store.NumKeys(),
			"addr", *addr, "pprof", *debug, "slow_query", slowQ.String())
	}

	if tracer != nil {
		tracer.RegisterMetrics(handler.Registry())
		logger.Info("tracing enabled", "sample", *traceSample, "store", *traceStore)
	}
	// The system is built (or recovered): swap the real handler in. From
	// here /readyz answers 200.
	boot.Store(handler)

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic checkpoints bound the WAL replay a crash would cost. Save
	// runs concurrently with serving: it seals the memtable and rotates the
	// WAL under the ingest lock.
	if durable != nil && *checkpointInterval > 0 {
		go func() {
			ticker := time.NewTicker(*checkpointInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					t0 := time.Now()
					if err := checkpoint(tracer, durable, *data); err != nil {
						logger.Error("checkpoint failed", "err", err)
					} else {
						logger.Info("checkpoint committed", "dir", *data, "elapsed", time.Since(t0).String())
					}
				}
			}
		}()
	}

	select {
	case err := <-errCh:
		logger.Error("server failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	logger.Info("shutting down", "drain_timeout", shutdownTimeout.String())

	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("drain incomplete, closing", "err", err)
		srv.Close()
	}

	// Final checkpoint: seal every ingested post into a segment so the next
	// boot replays an empty (or tiny) WAL.
	if durable != nil {
		if err := checkpoint(tracer, durable, *data); err != nil {
			logger.Error("final checkpoint failed (WAL still covers the ingests)", "err", err)
		} else {
			logger.Info("final checkpoint committed", "dir", *data)
		}
		if err := durable.CloseWAL(); err != nil {
			logger.Warn("closing ingest WAL", "err", err)
		}
	}
	// The checkpoint sealed the memtable; close the store, unmapping any
	// segment files.
	if mono != nil {
		if err := mono.Close(); err != nil {
			logger.Warn("closing segment store", "err", err)
		}
	}

	// Flush a final metrics snapshot so the last scrape interval is not
	// lost when the process exits.
	var snap strings.Builder
	if err := handler.Registry().WritePrometheus(&snap); err == nil {
		logger.Info("final metrics snapshot\n" + snap.String())
	}
	logger.Info("bye")
}

// swapHandler lets the HTTP server start answering probes before the
// system finishes loading: it serves whatever handler was last stored —
// notReady during boot, the real server afterwards. The handler is boxed
// in a struct because atomic.Value requires one concrete stored type,
// and the two handlers stored over the swap's lifetime differ.
type swapHandler struct {
	v atomic.Value // handlerBox
}

type handlerBox struct{ h http.Handler }

func (h *swapHandler) Store(next http.Handler) {
	h.v.Store(handlerBox{next})
}

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.v.Load().(handlerBox).h.ServeHTTP(w, r)
}

// notReady is the boot-phase handler: alive but not ready. Kubernetes-style
// orchestrators keep traffic away on the 503 /readyz while the liveness
// probe stays green through a long WAL replay.
func notReady(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
		return
	}
	w.Header().Set("Retry-After", "1")
	http.Error(w, "starting: store open / WAL replay in progress", http.StatusServiceUnavailable)
}

// checkpoint commits one checkpoint, under its own trace when tracing is on
// (checkpoints are background work, so each Save roots a fresh trace; the
// save/capture/gc phases land as its child spans).
func checkpoint(tracer *telemetry.Tracer, sys *tklus.System, dir string) error {
	span := tracer.StartTrace("checkpoint")
	err := sys.SaveContext(telemetry.ContextWithSpan(context.Background(), span), dir)
	span.SetError(err)
	span.Finish()
	return err
}

// openDurable resolves the -data directory: reopen its committed segment
// store when there is one (the normal restart path, WAL replayed inside
// Load), otherwise build from the corpus and replay any WAL a first boot
// left behind before it managed to commit. Either way the system then
// serves from <data>/segments: a first boot writes the build there.
func openDurable(logger *slog.Logger, dataDir, in, format string, cfg tklus.Config, segOpts tklus.SegmentOptions) (*tklus.System, error) {
	var sys *tklus.System
	if tklus.SnapshotExists(dataDir) {
		var err error
		if sys, err = tklus.Load(dataDir, cfg); err != nil {
			return nil, err
		}
		logger.Info("recovered from checkpoint",
			"segments", sys.Recovery.Segments,
			"wal_replayed", sys.Recovery.WALRecordsReplayed,
			"wal_skipped", sys.Recovery.WALRecordsSkipped,
			"wal_bytes", sys.Recovery.WALBytes,
			"replay", sys.Recovery.WALReplayDuration.String(),
			"torn_tail", sys.Recovery.WALTornTail)
	} else {
		posts, err := ingest.Load(in, format)
		if err != nil {
			return nil, err
		}
		if sys, err = tklus.Build(posts, cfg); err != nil {
			return nil, err
		}
		rec, err := sys.ReplayWAL(dataDir)
		if err != nil {
			return nil, err
		}
		if rec.WALRecordsReplayed > 0 || rec.WALRecordsSkipped > 0 {
			logger.Info("replayed WAL over corpus build",
				"wal_replayed", rec.WALRecordsReplayed, "wal_skipped", rec.WALRecordsSkipped)
		}
	}
	// A first boot writes the build into the directory, so a crash from here
	// on recovers from disk instead of re-reading the corpus; a restart only
	// applies the options to the store Load opened.
	if _, err := tklus.EnableSegments(sys, segOpts); err != nil {
		return nil, err
	}
	logger.Info("segment directory attached",
		"dir", segOpts.Dir, "segments", sys.Store.SegmentCount(),
		"memtable_rows", sys.Store.Memtable().Len(), "rows", sys.DB.Len(),
		"bucket", segOpts.BucketWidth.String(), "compact_interval", segOpts.CompactInterval.String())
	return sys, nil
}

// walPolicy parses the -wal-sync flag.
func walPolicy(s string) (tklus.WALSyncPolicy, error) {
	switch s {
	case "record":
		return tklus.WALSyncEveryRecord, nil
	case "interval":
		return tklus.WALSyncInterval, nil
	case "off":
		return tklus.WALSyncOff, nil
	default:
		return 0, fmt.Errorf("unknown WAL sync policy %q: want record|interval|off", s)
	}
}
