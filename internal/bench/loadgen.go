package bench

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the traced pass's request and root-span IDs to the
// decorated handler, so server-side spans join the client's.
const spanHeader = "X-Bench-Span"

// httpClient is the load generator's side of the loopback connection pool:
// never more than Clients connections, no compression, bodies read whole.
type httpClient struct {
	c    *http.Client
	base string
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{
		base: base,
		c: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     Clients,
			MaxIdleConnsPerHost: Clients,
			DisableCompression:  true,
		}},
	}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// post sends one JSON body and reads the whole reply into buf (reset
// first). spanRef, when non-empty, travels in spanHeader.
func (h *httpClient) post(path string, body []byte, spanRef string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanRef != "" {
		req.Header.Set(spanHeader, spanRef)
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("reading reply: %w", err)
	}
	return resp.StatusCode, nil
}

// sample is one search's client-side outcome.
type sample struct {
	req    int   // index into the query set
	ns     int64 // send to last reply byte
	failed bool
}

// replyCheck judges one reply; it runs after the latency clock stopped and
// must be safe to call from every client goroutine.
type replyCheck func(req, status int, body []byte) bool

// closedRound replays the set once in the given order from `clients`
// closed-loop clients sharing one queue: each sends its next request only
// after its previous reply is complete. It returns when the round is
// drained, so rounds never overlap.
func closedRound(h *httpClient, reqs []Request, order []int, clients int, check replyCheck) []sample {
	samples := make([]sample, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				req := order[i]
				t0 := time.Now()
				status, err := h.post("/v1/search", reqs[req].Body, "", &buf)
				ns := time.Since(t0).Nanoseconds()
				samples[i] = sample{req: req, ns: ns, failed: err != nil || !check(req, status, buf.Bytes())}
			}
		}()
	}
	wg.Wait()
	return samples
}

// Clock is the open-loop scheduler's time source, injectable so the
// schedule can be tested without sleeping.
type Clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// OpenSample is one open-loop request, as offsets from the schedule's start.
type OpenSample struct {
	Due  time.Duration // when the schedule wanted it sent
	Sent time.Duration // when the generator got to it
	Done time.Duration // when its reply was complete
}

// Latency is measured from the due time, so a stall is charged to every
// request it delayed, not only to the one that hit it.
func (s OpenSample) Latency() time.Duration { return s.Done - s.Due }

// Lag is how late the generator ran.
func (s OpenSample) Lag() time.Duration { return s.Sent - s.Due }

// Service is the request's own send-to-reply time.
func (s OpenSample) Service() time.Duration { return s.Done - s.Sent }

// RunOpenLoop issues n requests on one connection at a fixed interval:
// request i is due at i*interval whether or not earlier ones were quick. A
// slow reply makes the following requests late (they go out back to back
// until the schedule is caught up); their lateness is in the samples.
func RunOpenLoop(clk Clock, interval time.Duration, n int, send func(i int)) []OpenSample {
	start := clk.Now()
	out := make([]OpenSample, n)
	for i := range out {
		due := time.Duration(i) * interval
		if wait := due - clk.Now().Sub(start); wait > 0 {
			clk.Sleep(wait)
		}
		sent := clk.Now().Sub(start)
		send(i)
		out[i] = OpenSample{Due: due, Sent: sent, Done: clk.Now().Sub(start)}
	}
	return out
}
