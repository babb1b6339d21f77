package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// workers resolves the worker-pool width for one query's pipeline stages:
// Options.Parallelism when positive, otherwise GOMAXPROCS. The pipeline
// fans independent jobs (DFS round trips, thread constructions) across
// this many goroutines; 1 selects the in-place sequential path.
func (e *Engine) workers() int {
	if e.Opts.Parallelism > 0 {
		return e.Opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// RunJobs executes jobs 0..n-1 on a pool of at most `workers` goroutines
// pulling from a shared cursor — dynamic balancing, because postings
// fetches and thread constructions have highly variable cost. fn must
// confine its writes to state owned by job i (typically slot i of a
// results slice), which keeps downstream assembly deterministic regardless
// of completion order. The first error cancels the remaining jobs; after
// all workers exit, the parent context's error wins over an internal one
// so callers see ctx.Err() for their own cancellations. With one worker
// (or one job) everything runs on the calling goroutine with periodic
// context checks, making Parallelism=1 a true sequential baseline.
//
// Exported because the sharded serving tier fans per-shard sub-queries
// across the same primitive the in-process pipeline stages use.
func RunJobs(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if i%cancelCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		cursor   atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := cctx.Err(); err != nil {
					return
				}
				if err := fn(cctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// coverSet holds the circle cover per geohash precision. Nearly every
// deployment runs all partitions at one precision, so the first precision
// is kept inline and the overflow map is only allocated when a second
// precision actually appears — the per-query map allocation of the old
// code is gone from the common case.
type coverSet struct {
	init  bool
	prec  int
	cells []string
	more  map[int][]string
}

func (cs *coverSet) has(prec int) bool {
	if cs.init && cs.prec == prec {
		return true
	}
	_, ok := cs.more[prec]
	return ok
}

func (cs *coverSet) add(prec int, cells []string) {
	if !cs.init {
		cs.init, cs.prec, cs.cells = true, prec, cells
		return
	}
	if cs.more == nil {
		cs.more = make(map[int][]string)
	}
	cs.more[prec] = cells
}

func (cs *coverSet) get(prec int) []string {
	if cs.init && cs.prec == prec {
		return cs.cells
	}
	return cs.more[prec]
}
