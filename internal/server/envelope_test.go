package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	tklus "repro"
	"repro/internal/core"
)

// errSearcher answers every search with one fixed error (or blocks until
// released), standing in for a backend in a known failure mode. entered,
// when non-nil, receives one send per search that reaches the backend —
// how tests detect that a request holds an admission slot.
type errSearcher struct {
	err     error
	release chan struct{}
	entered chan struct{}
}

func (e *errSearcher) Search(ctx context.Context, q tklus.Query) ([]tklus.UserResult, *tklus.QueryStats, error) {
	if e.entered != nil {
		e.entered <- struct{}{}
	}
	if e.release != nil {
		select {
		case <-e.release:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	if e.err != nil {
		return nil, nil, e.err
	}
	return []tklus.UserResult{}, &tklus.QueryStats{}, nil
}

const validSearchBody = `{"version":1,"lat":43.68,"lon":-79.37,"radius_km":10,"keywords":["hotel"],"k":5}`

// TestErrorEnvelopeGolden pins the one sentinel → (status, code) table
// every /v1 endpoint writes: clients and the shard protocol rely on the
// code strings, so a change here is a wire-protocol change.
func TestErrorEnvelopeGolden(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantCode   string
		retryAfter bool
	}{
		{"bad query", fmt.Errorf("radius: %w", core.ErrBadQuery), 400, "bad_query", false},
		{"not found", fmt.Errorf("uid 7: %w", core.ErrNoResults), 404, "not_found", false},
		{"overloaded", fmt.Errorf("queue full: %w", core.ErrOverloaded), 429, "overloaded", true},
		{"shard unavailable", fmt.Errorf("all shards: %w", core.ErrShardUnavailable), 503, "shard_unavailable", true},
		{"closed", fmt.Errorf("store: %w", core.ErrClosed), 503, "closed", true},
		{"internal", errors.New("disk on fire"), 500, "internal", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSearcher(&errSearcher{err: tc.err})
			req := httptest.NewRequest("POST", "/v1/search", strings.NewReader(validSearchBody))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)

			if rec.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d (%s)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			var env errorResponseV1
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("body is not the error envelope: %v\n%s", err, rec.Body.String())
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code %q, want %q", env.Error.Code, tc.wantCode)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
			if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
				t.Errorf("Retry-After present = %v, want %v", got, tc.retryAfter)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
		})
	}
}

// errShardBackend is errSearcher plus the shard half of the protocol, so
// the /v1/shard/search endpoint mounts over the stub.
type errShardBackend struct {
	errSearcher
}

func (e *errShardBackend) SearchPartials(ctx context.Context, q tklus.Query) (*core.Partials, error) {
	return nil, e.err
}

// TestEnvelopeCodeRoundTrip checks the client half of the table: for
// every sentinel, a shard server encodes it as a wire code and
// ShardClient decodes that code back into the same sentinel the breaker
// and retry logic key off — across a real HTTP boundary.
func TestEnvelopeCodeRoundTrip(t *testing.T) {
	for _, sentinel := range []error{core.ErrBadQuery, core.ErrNoResults, core.ErrOverloaded, core.ErrShardUnavailable, core.ErrClosed} {
		s := NewSearcher(&errShardBackend{errSearcher{err: fmt.Errorf("backend says: %w", sentinel)}})
		hs := httptest.NewServer(s)
		c := NewShardClient(hs.URL)
		_, err := c.SearchPartials(context.Background(), tklus.Query{
			Loc: tklus.Point{Lat: 43.68, Lon: -79.37}, RadiusKm: 10, K: 5, Keywords: []string{"hotel"},
		})
		hs.Close()
		if !errors.Is(err, sentinel) {
			t.Errorf("sentinel %v did not survive the wire round trip: got %v", sentinel, err)
		}
	}
}

// TestAdmissionOver429HTTP is the end-to-end overload path: a server
// with admission control over a saturated backend answers 429 with the
// "overloaded" envelope code and a Retry-After hint, while the metrics
// registry exports the tklus_admission_* series.
func TestAdmissionOver429HTTP(t *testing.T) {
	stub := &errSearcher{release: make(chan struct{}), entered: make(chan struct{}, 1)}
	s := NewSearcherWith(stub, Options{
		Admission: &tklus.AdmissionOptions{
			MaxConcurrent: 1, MaxQueue: 1, MaxWait: 10 * time.Millisecond,
		},
	})

	// Saturate: one background request takes the only slot and parks in
	// the backend; the entered signal confirms it holds the slot before
	// the probe fires, so the probe deterministically waits out MaxWait
	// and is shed.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest("POST", "/v1/search", strings.NewReader(validSearchBody))
		req.Header.Set("Content-Type", "application/json")
		s.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-stub.entered

	req := httptest.NewRequest("POST", "/v1/search", strings.NewReader(validSearchBody))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 429 {
		t.Fatalf("probe against saturated server: status %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
	var env errorResponseV1
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("429 body is not the envelope: %v\n%s", err, rec.Body.String())
	}
	if env.Error.Code != "overloaded" {
		t.Errorf("429 code %q, want overloaded", env.Error.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	var prom strings.Builder
	if err := s.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "tklus_admission_shed_total") {
		t.Error("admission metrics not registered on the server registry")
	}

	close(stub.release)
	wg.Wait()
}
