package tklus

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// This file is the serving tier's admission controller: the piece that
// keeps an open-loop overload from collapsing the query pipeline. Without
// it, offered load beyond capacity makes every queued request wait behind
// every other one — latency grows without bound while goodput stays flat
// (classic queueing collapse). With it, the tier serves at capacity and
// sheds the excess immediately with ErrOverloaded, which the HTTP layer
// turns into 429 + Retry-After.
//
// Three gates, in order, all before any search work runs:
//
//  1. Queue bound — at most MaxConcurrent+MaxQueue queries are in flight
//     (running or waiting) at once, so with every slot busy at most
//     MaxQueue wait. A query arriving past that is shed instantly (reason
//     "queue_full"): a bounded queue is what keeps the shed path O(1)
//     under arbitrary offered load.
//  2. Cost budget — a token bucket refilled at CostBudget work-units/sec.
//     Each query drains its *estimated* cost, learned per query shape
//     from the QueryStats of prior queries (postings fetched + candidates
//     + threads built). An expensive shape is shed (reason "cost") while
//     cheap ones still pass — shedding by predicted work, not arrival
//     order. Estimates for never-seen shapes are optimistic (admit,
//     learn, adapt).
//  3. Wait bound — a query may wait at most MaxWait (and never past its
//     context deadline) for a running slot; it is shed with reason
//     "wait_timeout" when the slot does not free in time, and honors
//     context cancellation while queued.
//
// Shed-vs-degrade: the sharded tier already degrades *inside* a query
// (breaker-tripped shards drop out, results arrive partial with
// DegradedShards set). Admission control instead refuses *whole* queries
// at the door. The two compose by feedback: when recent queries come back
// degraded the controller scales its cost budget down proportionally, so
// a tier losing shards sheds more at the door instead of pushing load
// onto its survivors — shed early rather than degrade deeper.
type AdmissionControl struct {
	backend Searcher
	opts    AdmissionOptions

	slots    chan struct{} // running-search tokens, cap MaxConcurrent
	inflight atomic.Int64  // queries between arrival and return: running + waiting
	waiters  atomic.Int64  // queries between arrival and slot acquisition

	// Cost model state. estimates holds the per-shape EWMA of observed
	// work; tokens/lastFill the budget bucket; degradeEW the EWMA of the
	// degraded-result indicator feeding the shed-vs-degrade rule.
	mu        sync.Mutex
	estimates map[costKey]float64
	tokens    float64
	lastFill  time.Time
	degradeEW float64

	admitted      atomic.Int64
	shedQueueFull atomic.Int64
	shedCost      atomic.Int64
	shedTimeout   atomic.Int64

	waitHist *telemetry.Histogram // nil until RegisterMetrics
}

// AdmissionOptions configures an AdmissionControl. The zero value of each
// field selects the documented default.
type AdmissionOptions struct {
	// MaxConcurrent is how many searches may run at once. Default:
	// GOMAXPROCS — queries are CPU-bound against in-memory structures, so
	// more concurrency only adds contention.
	MaxConcurrent int
	// MaxQueue is how many queries may wait for a slot beyond the running
	// ones before arrivals are shed outright. Default: 4×MaxConcurrent —
	// deep enough to absorb a Poisson burst, shallow enough that queue
	// wait stays a small multiple of service time.
	MaxQueue int
	// MaxWait bounds how long one query may wait for a slot. Default
	// 500ms. The context deadline tightens it further when sooner.
	MaxWait time.Duration
	// CostBudget is the token-bucket refill rate in estimated work units
	// (postings + candidates + threads) per second. Zero disables
	// cost-based shedding: only the queue and wait bounds apply.
	CostBudget float64
	// CostBurst is the bucket capacity. Default: 2 seconds of CostBudget.
	CostBurst float64

	// now is the clock, for tests; nil means time.Now.
	now func() time.Time
}

// DefaultAdmissionOptions returns the defaults documented on
// AdmissionOptions, with cost shedding disabled.
func DefaultAdmissionOptions() AdmissionOptions {
	return AdmissionOptions{
		MaxConcurrent: runtime.GOMAXPROCS(0),
		MaxQueue:      4 * runtime.GOMAXPROCS(0),
		MaxWait:       500 * time.Millisecond,
	}
}

// costKey buckets queries into shapes for the cost model: the estimator
// learns one expected cost per (keyword count, radius decade, ranking,
// semantic). Coarse on purpose — a handful of cells each see enough
// traffic to converge, and an unseen cell inherits nothing stale.
type costKey struct {
	keywords  int
	radiusLog int
	ranking   Ranking
	semantic  Semantic
}

func keyOf(q Query) costKey {
	rl := 0
	if q.RadiusKm > 1 {
		rl = int(math.Log2(q.RadiusKm))
	}
	return costKey{
		keywords:  len(q.Keywords),
		radiusLog: rl,
		ranking:   q.Ranking,
		semantic:  q.Semantic,
	}
}

// ewmaAlpha weights the newest observation in the per-shape cost EWMA;
// degradeAlpha does the same for the degraded-result indicator.
const (
	ewmaAlpha    = 0.2
	degradeAlpha = 0.05
)

// NewAdmissionControl wraps any Searcher with admission control. The
// wrapper implements Searcher itself, so it drops in anywhere a system
// does — in front of the HTTP server included.
func NewAdmissionControl(backend Searcher, opts AdmissionOptions) *AdmissionControl {
	def := DefaultAdmissionOptions()
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = def.MaxConcurrent
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 4 * opts.MaxConcurrent
	}
	if opts.MaxWait <= 0 {
		opts.MaxWait = def.MaxWait
	}
	if opts.CostBurst <= 0 {
		opts.CostBurst = 2 * opts.CostBudget
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	ac := &AdmissionControl{
		backend:   backend,
		opts:      opts,
		slots:     make(chan struct{}, opts.MaxConcurrent),
		estimates: make(map[costKey]float64),
		tokens:    opts.CostBurst,
	}
	ac.lastFill = opts.now()
	return ac
}

var _ Searcher = (*AdmissionControl)(nil)

// Search admits, queues, or sheds the query, then delegates to the
// backend. Shed queries return an error wrapping ErrOverloaded without
// having done any search work. It implements Searcher.
func (ac *AdmissionControl) Search(ctx context.Context, q Query) ([]UserResult, *QueryStats, error) {
	span := telemetry.SpanFromContext(ctx)

	// Gate 1: bounded queue. The in-flight count is held until the query
	// returns, so the bound does not depend on whether earlier arrivals
	// have been handed their slot yet.
	defer ac.inflight.Add(-1)
	if ac.inflight.Add(1) > int64(ac.opts.MaxConcurrent+ac.opts.MaxQueue) {
		ac.shedQueueFull.Add(1)
		span.Event("admission_shed", "queue_full")
		return nil, nil, fmt.Errorf("tklus: admission queue full (%d running + %d waiting already in flight): %w",
			ac.opts.MaxConcurrent, ac.opts.MaxQueue, core.ErrOverloaded)
	}
	ac.waiters.Add(1)

	// Gate 2: cost budget.
	est, ok := ac.spendBudget(q)
	if !ok {
		ac.waiters.Add(-1)
		ac.shedCost.Add(1)
		span.Event("admission_shed", fmt.Sprintf("cost %.0f over budget", est))
		return nil, nil, fmt.Errorf("tklus: query shape costs ~%.0f work units, over the shed budget: %w",
			est, core.ErrOverloaded)
	}

	// Gate 3: bounded wait for a running slot, honoring cancellation. A
	// canceled query refunds its gate-2 charge: it will do no work, and
	// cancellation is the client hanging up, not an overload signal (a
	// wait_timeout shed keeps its charge deliberately — under overload the
	// charge is what stops the same hot shape re-passing gate 2 at once).
	arrival := ac.opts.now()
	timer := time.NewTimer(ac.opts.MaxWait)
	defer timer.Stop()
	select {
	case ac.slots <- struct{}{}:
		// Winning the slot can race the client's cancellation (select
		// picks arbitrarily among ready cases, and the cancel may land
		// just after the win). A canceled query must not start: release
		// the slot to the next waiter immediately, refund the budget, and
		// return the client's error — never ErrOverloaded, and never an
		// observation into the cost EWMA.
		if err := ctx.Err(); err != nil {
			<-ac.slots
			ac.waiters.Add(-1)
			ac.refundBudget(est)
			span.Event("admission_shed", "canceled while queued")
			return nil, nil, err
		}
	case <-ctx.Done():
		ac.waiters.Add(-1)
		ac.refundBudget(est)
		span.Event("admission_shed", "canceled while queued")
		return nil, nil, ctx.Err()
	case <-timer.C:
		ac.waiters.Add(-1)
		ac.shedTimeout.Add(1)
		span.Event("admission_shed", "wait_timeout")
		return nil, nil, fmt.Errorf("tklus: no search slot freed within %s: %w",
			ac.opts.MaxWait, core.ErrOverloaded)
	}
	wait := ac.opts.now().Sub(arrival)
	ac.waiters.Add(-1)
	ac.admitted.Add(1)
	if ac.waitHist != nil {
		ac.waitHist.Observe(wait.Seconds())
	}
	if span != nil {
		span.Event("admission_admitted", fmt.Sprintf("queued %s", wait))
	}
	defer func() { <-ac.slots }()

	results, stats, err := ac.backend.Search(ctx, q)
	if stats != nil {
		ac.observe(q, stats)
	}
	return results, stats, err
}

// observedCost is the work proxy the estimator learns: the counters that
// dominate a query's CPU and IO. One unit ≈ one postings list opened or one
// candidate filtered and scored.
func observedCost(stats *QueryStats) float64 {
	return float64(stats.PostingsFetched) + float64(stats.Candidates)
}

// spendBudget refills the token bucket, estimates the query's cost from
// its shape history and tries to drain that much. ok=false means shed.
// Never-seen shapes estimate zero: the controller admits them and learns
// their real cost from the QueryStats they produce.
func (ac *AdmissionControl) spendBudget(q Query) (est float64, ok bool) {
	if ac.opts.CostBudget <= 0 {
		return 0, true
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	now := ac.opts.now()
	// The shed-vs-degrade rule: a backend answering degraded (missing
	// shards) has lost capacity, so the effective refill rate shrinks by
	// the recent degraded fraction — shedding moves to the door instead of
	// deepening the degradation.
	budget := ac.opts.CostBudget * (1 - ac.degradeEW)
	ac.tokens = math.Min(ac.opts.CostBurst, ac.tokens+budget*now.Sub(ac.lastFill).Seconds())
	ac.lastFill = now
	est = ac.estimates[keyOf(q)]
	if est > ac.tokens {
		return est, false
	}
	ac.tokens -= est
	return est, true
}

// refundBudget returns a gate-2 charge to the token bucket — the query it
// was charged for was canceled before doing any work.
func (ac *AdmissionControl) refundBudget(est float64) {
	if ac.opts.CostBudget <= 0 || est <= 0 {
		return
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	ac.tokens = math.Min(ac.opts.CostBurst, ac.tokens+est)
}

// observe feeds one completed query's stats back into the cost model.
func (ac *AdmissionControl) observe(q Query, stats *QueryStats) {
	cost := observedCost(stats)
	degraded := 0.0
	if stats.Degraded() {
		degraded = 1
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	key := keyOf(q)
	if prev, seen := ac.estimates[key]; seen {
		ac.estimates[key] = (1-ewmaAlpha)*prev + ewmaAlpha*cost
	} else {
		ac.estimates[key] = cost
	}
	ac.degradeEW = (1-degradeAlpha)*ac.degradeEW + degradeAlpha*degraded
}

// EstimateFor reports the controller's current cost estimate for the
// query's shape (0 until a query of that shape completes). Exposed for
// inspection and tests.
func (ac *AdmissionControl) EstimateFor(q Query) float64 {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return ac.estimates[keyOf(q)]
}

// AdmissionStats is a point-in-time snapshot of the controller's
// counters.
type AdmissionStats struct {
	Admitted      int64 // queries that reached the backend
	ShedQueueFull int64 // shed instantly: queue at capacity
	ShedCost      int64 // shed by the cost budget
	ShedTimeout   int64 // shed after waiting MaxWait for a slot
	Queued        int64 // currently waiting for a slot
}

// Stats snapshots the admission counters.
func (ac *AdmissionControl) Stats() AdmissionStats {
	return AdmissionStats{
		Admitted:      ac.admitted.Load(),
		ShedQueueFull: ac.shedQueueFull.Load(),
		ShedCost:      ac.shedCost.Load(),
		ShedTimeout:   ac.shedTimeout.Load(),
		Queued:        ac.waiters.Load(),
	}
}

// RegisterMetrics hooks the controller into a telemetry registry:
// admission outcomes by reason, live queue depth, and the queue-wait
// distribution of admitted queries.
func (ac *AdmissionControl) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("tklus_admission_admitted_total",
		"Queries admitted to the search backend.", nil,
		func() float64 { return float64(ac.admitted.Load()) })
	for reason, v := range map[string]*atomic.Int64{
		"queue_full":   &ac.shedQueueFull,
		"cost":         &ac.shedCost,
		"wait_timeout": &ac.shedTimeout,
	} {
		v := v
		reg.CounterFunc("tklus_admission_shed_total",
			"Queries shed by admission control, by reason.",
			telemetry.Labels{"reason": reason},
			func() float64 { return float64(v.Load()) })
	}
	reg.GaugeFunc("tklus_admission_queue_depth",
		"Queries currently waiting for a search slot.", nil,
		func() float64 { return float64(ac.waiters.Load()) })
	ac.waitHist = reg.Histogram("tklus_admission_wait_seconds",
		"Queue wait of admitted queries.", nil, nil)
}
