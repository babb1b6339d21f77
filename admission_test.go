package tklus_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	tklus "repro"
)

// stubSearcher is a controllable backend: it blocks on release (when
// non-nil) and returns canned stats, so tests can hold admission slots
// occupied and feed the cost model known work.
type stubSearcher struct {
	release chan struct{}
	stats   tklus.QueryStats
}

func (s *stubSearcher) Search(ctx context.Context, q tklus.Query) ([]tklus.UserResult, *tklus.QueryStats, error) {
	if s.release != nil {
		select {
		case <-s.release:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	st := s.stats
	return nil, &st, nil
}

// waitForQueued polls until the controller reports n queued queries.
func waitForQueued(t *testing.T, ac *tklus.AdmissionControl, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for ac.Stats().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d queued queries (stats %+v)", n, ac.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionQueueFull holds every running slot, fills the MaxQueue
// waiting positions, then checks the next arrival is shed instantly with
// ErrOverloaded rather than queued — the bounded queue is what keeps the
// shed path O(1) under arbitrary offered load. The bound counts queries in
// flight, so the outcome is the same whichever goroutine arrives first.
func TestAdmissionQueueFull(t *testing.T) {
	for _, maxQueue := range []int{1, 3} {
		stub := &stubSearcher{release: make(chan struct{})}
		ac := tklus.NewAdmissionControl(stub, tklus.AdmissionOptions{
			MaxConcurrent: 1, MaxQueue: maxQueue, MaxWait: 5 * time.Second,
		})
		q := tklus.Query{RadiusKm: 10, K: 5, Keywords: []string{"hotel"}}

		var wg sync.WaitGroup
		search := func() {
			defer wg.Done()
			ac.Search(context.Background(), q)
		}
		wg.Add(1)
		go search() // takes the only slot and blocks in the backend
		for ac.Stats().Admitted == 0 {
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < maxQueue; i++ {
			wg.Add(1)
			go search()
		}
		waitForQueued(t, ac, int64(maxQueue))

		_, _, err := ac.Search(context.Background(), q)
		if !errors.Is(err, tklus.ErrOverloaded) {
			t.Fatalf("MaxQueue=%d: over-queue arrival error = %v, want ErrOverloaded", maxQueue, err)
		}
		if st := ac.Stats(); st.ShedQueueFull != 1 || st.Queued != int64(maxQueue) {
			t.Errorf("MaxQueue=%d: ShedQueueFull = %d, Queued = %d, want 1 and %d (stats %+v)",
				maxQueue, st.ShedQueueFull, st.Queued, maxQueue, st)
		}

		close(stub.release)
		wg.Wait()
		if st := ac.Stats(); st.Admitted != int64(1+maxQueue) || st.Queued != 0 {
			t.Errorf("MaxQueue=%d: Admitted = %d, Queued = %d after release, want %d and 0 (stats %+v)",
				maxQueue, st.Admitted, st.Queued, 1+maxQueue, st)
		}
	}
}

// TestAdmissionWaitTimeout holds the only slot and checks that a queued
// query is shed with ErrOverloaded once MaxWait elapses without a slot
// freeing.
func TestAdmissionWaitTimeout(t *testing.T) {
	stub := &stubSearcher{release: make(chan struct{})}
	defer close(stub.release)
	ac := tklus.NewAdmissionControl(stub, tklus.AdmissionOptions{
		MaxConcurrent: 1, MaxQueue: 4, MaxWait: 20 * time.Millisecond,
	})
	q := tklus.Query{RadiusKm: 10, K: 5, Keywords: []string{"hotel"}}

	go ac.Search(context.Background(), q)
	for ac.Stats().Admitted == 0 {
		time.Sleep(time.Millisecond)
	}

	_, _, err := ac.Search(context.Background(), q)
	if !errors.Is(err, tklus.ErrOverloaded) {
		t.Fatalf("timed-out wait error = %v, want ErrOverloaded", err)
	}
	if st := ac.Stats(); st.ShedTimeout != 1 {
		t.Errorf("ShedTimeout = %d, want 1 (stats %+v)", st.ShedTimeout, st)
	}
}

// TestAdmissionCancelWhileQueued checks the queued path honors context
// cancellation: the caller gets its ctx.Err(), not ErrOverloaded, and no
// shed counter moves.
func TestAdmissionCancelWhileQueued(t *testing.T) {
	stub := &stubSearcher{release: make(chan struct{})}
	defer close(stub.release)
	ac := tklus.NewAdmissionControl(stub, tklus.AdmissionOptions{
		MaxConcurrent: 1, MaxQueue: 4, MaxWait: 5 * time.Second,
	})
	q := tklus.Query{RadiusKm: 10, K: 5, Keywords: []string{"hotel"}}

	go ac.Search(context.Background(), q)
	for ac.Stats().Admitted == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := ac.Search(ctx, q)
		errCh <- err
	}()
	waitForQueued(t, ac, 1)
	cancel()
	err := <-errCh
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled-while-queued error = %v, want context.Canceled", err)
	}
	if errors.Is(err, tklus.ErrOverloaded) {
		t.Error("cancellation misreported as overload")
	}
	if st := ac.Stats(); st.ShedQueueFull+st.ShedCost+st.ShedTimeout != 0 {
		t.Errorf("cancellation moved a shed counter: %+v", st)
	}
}

// TestAdmissionCancelRefundsBudget pins the cost-accounting half of the
// cancellation contract: gate 2 charges the token bucket BEFORE the query
// queues for a slot, so a query canceled while queued must hand the
// charge back — it will do no work. Before the fix the charge leaked, so
// a burst of canceled queries silently drained the bucket and the next
// legitimate query of the same shape was shed as "over budget".
func TestAdmissionCancelRefundsBudget(t *testing.T) {
	stub := &stubSearcher{
		release: make(chan struct{}, 16),
		stats: tklus.QueryStats{
			PostingsFetched: 500, Candidates: 500, // cost 1000
		},
	}
	ac := tklus.NewAdmissionControl(stub, tklus.AdmissionOptions{
		MaxConcurrent: 1, MaxQueue: 4, MaxWait: 5 * time.Second,
		CostBudget: 0.001, // refill is negligible over the test's lifetime
		CostBurst:  1000,  // exactly one learned-shape admission in the bucket
	})
	qA := tklus.Query{RadiusKm: 10, K: 5, Keywords: []string{"hotel"}}
	qB := tklus.Query{RadiusKm: 10, K: 5, Keywords: []string{"hotel", "pizza"}}

	// Learn shape A's cost (admitted at estimate 0, observes 1000).
	stub.release <- struct{}{}
	if _, _, err := ac.Search(context.Background(), qA); err != nil {
		t.Fatalf("learning query: %v", err)
	}
	if est := ac.EstimateFor(qA); est != 1000 {
		t.Fatalf("learned estimate = %v, want 1000", est)
	}

	// Occupy the only slot with shape B (unseen, charges nothing), then
	// queue a shape-A query — its 1000-unit charge empties the bucket —
	// and cancel it while it waits.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ac.Search(context.Background(), qB)
	}()
	for ac.Stats().Admitted < 2 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := ac.Search(ctx, qA)
		errCh <- err
	}()
	waitForQueued(t, ac, 1)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled-while-queued error = %v, want context.Canceled", err)
	}
	if est := ac.EstimateFor(qA); est != 1000 {
		t.Fatalf("canceled query polluted the EWMA: estimate = %v, want 1000", est)
	}

	// The canceled query's charge must be back in the bucket: the next
	// shape-A query passes gate 2 instead of shedding "over budget".
	stub.release <- struct{}{} // free the slot holder
	stub.release <- struct{}{} // and the query under test
	if _, _, err := ac.Search(context.Background(), qA); err != nil {
		t.Fatalf("post-cancel query shed: %v (the canceled query's charge was not refunded)", err)
	}
	if st := ac.Stats(); st.ShedCost != 0 {
		t.Errorf("ShedCost = %d, want 0 — cancellation charged the budget (stats %+v)", st.ShedCost, st)
	}
	wg.Wait()
}

// TestAdmissionCanceledWinnerReleasesSlot pins the slot half of the
// contract: when a query's context is already canceled as it wins a slot
// (select picks arbitrarily among ready cases), it must release the slot
// immediately and return ctx.Err() without counting as admitted or
// running the backend. The loop drives both select arms; before the fix
// roughly half the iterations ran the backend on a dead context.
func TestAdmissionCanceledWinnerReleasesSlot(t *testing.T) {
	stub := &stubSearcher{stats: tklus.QueryStats{Candidates: 1000}} // nil release: backend returns instantly if reached
	ac := tklus.NewAdmissionControl(stub, tklus.AdmissionOptions{
		MaxConcurrent: 1, MaxQueue: 4, MaxWait: 5 * time.Second,
	})
	q := tklus.Query{RadiusKm: 10, K: 5, Keywords: []string{"hotel"}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead on arrival: the slot is free AND ctx.Done is ready
	for i := 0; i < 50; i++ {
		_, _, err := ac.Search(ctx, q)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v, want context.Canceled", i, err)
		}
	}
	st := ac.Stats()
	if st.Admitted != 0 {
		t.Errorf("Admitted = %d, want 0 — canceled queries reached the backend", st.Admitted)
	}
	if st.Queued != 0 {
		t.Errorf("Queued = %d, want 0 — a canceled winner leaked its waiter count", st.Queued)
	}
	if est := ac.EstimateFor(q); est != 0 {
		t.Errorf("estimate = %v, want 0 — a canceled query's run polluted the EWMA", est)
	}
	// The slot must actually be free: a live query still goes through.
	if _, _, err := ac.Search(context.Background(), q); err != nil {
		t.Errorf("live query after canceled winners: %v (slot leaked)", err)
	}
}

// TestAdmissionCostModel checks the learn-then-shed loop: an unseen
// query shape is admitted optimistically with estimate zero, its real
// cost is learned from the QueryStats it produces, and the next query of
// that shape is shed when the learned cost exceeds the token bucket.
func TestAdmissionCostModel(t *testing.T) {
	stub := &stubSearcher{stats: tklus.QueryStats{
		PostingsFetched: 500, Candidates: 500, // cost 1000
	}}
	ac := tklus.NewAdmissionControl(stub, tklus.AdmissionOptions{
		MaxConcurrent: 4,
		CostBudget:    1, // refills 1 unit/s; burst defaults to 2
	})
	q := tklus.Query{RadiusKm: 10, K: 5, Keywords: []string{"hotel"}}

	if est := ac.EstimateFor(q); est != 0 {
		t.Fatalf("unseen shape estimate = %v, want 0", est)
	}
	if _, _, err := ac.Search(context.Background(), q); err != nil {
		t.Fatalf("first (unseen-shape) query not admitted: %v", err)
	}
	if est := ac.EstimateFor(q); est != 1000 {
		t.Fatalf("learned estimate = %v, want 1000", est)
	}

	_, _, err := ac.Search(context.Background(), q)
	if !errors.Is(err, tklus.ErrOverloaded) {
		t.Fatalf("over-budget shape error = %v, want ErrOverloaded", err)
	}
	if st := ac.Stats(); st.ShedCost != 1 {
		t.Errorf("ShedCost = %d, want 1 (stats %+v)", st.ShedCost, st)
	}

	// A different shape (two keywords) has its own cell: still admitted.
	q2 := tklus.Query{RadiusKm: 10, K: 5, Keywords: []string{"hotel", "pizza"}}
	if _, _, err := ac.Search(context.Background(), q2); err != nil {
		t.Errorf("different shape not admitted: %v", err)
	}
}

// TestAdmissionEWMALearning checks the estimate tracks a moving cost:
// after a cheaper observation the EWMA moves toward it with alpha 0.2.
func TestAdmissionEWMALearning(t *testing.T) {
	stub := &stubSearcher{stats: tklus.QueryStats{Candidates: 1000}}
	ac := tklus.NewAdmissionControl(stub, tklus.AdmissionOptions{MaxConcurrent: 1})
	q := tklus.Query{RadiusKm: 10, K: 5, Keywords: []string{"hotel"}}
	ctx := context.Background()

	if _, _, err := ac.Search(ctx, q); err != nil {
		t.Fatal(err)
	}
	stub.stats = tklus.QueryStats{Candidates: 500}
	if _, _, err := ac.Search(ctx, q); err != nil {
		t.Fatal(err)
	}
	if est := ac.EstimateFor(q); math.Abs(est-900) > 1e-6 {
		t.Errorf("EWMA after 1000 then 500 = %v, want ~900", est)
	}
}
