package bench

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of the traced pass: a layer boundary crossed
// on behalf of one request. Times are nanoseconds since the recorder's
// epoch; Parent is 0 for a request's root span.
type Span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps the traced pass's spans in memory; the harness writes them
// out once at exit. Spans come only from the harness's own decorators around
// the program's public entry points — nothing inside the program changes.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts a recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// spanRef names the span a context is running under.
type spanRef struct{ req, id int }

type spanKey struct{}

// withSpan returns ctx marked as running under the given span.
func withSpan(ctx context.Context, req, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{req, id})
}

// add appends a finished span and returns its ID.
func (r *Recorder) add(name string, req, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		Name: name, Req: req, ID: id, Parent: parent,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// open reserves a span that is still running, so children can name it as
// their parent; close stamps its end.
func (r *Recorder) open(name string, req, parent int, start time.Time) int {
	return r.add(name, req, parent, start, start)
}

func (r *Recorder) close(id int, end time.Time) {
	r.mu.Lock()
	r.spans[id-1].End = end.Sub(r.epoch).Nanoseconds()
	r.mu.Unlock()
}

// Root opens request req's root span.
func (r *Recorder) Root(ctx context.Context, req int, name string) (context.Context, func()) {
	id := r.open(name, req, 0, time.Now())
	return withSpan(ctx, req, id), func() { r.close(id, time.Now()) }
}

// Child opens a span under the one ctx runs in. On a context that carries
// no span (a request the traced pass did not start) it records nothing.
func (r *Recorder) Child(ctx context.Context, name string) (context.Context, func()) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		return ctx, func() {}
	}
	id := r.open(name, ref.req, ref.id, time.Now())
	return withSpan(ctx, ref.req, id), func() { r.close(id, time.Now()) }
}

// Interval records an already-measured child interval — a stage timing read
// from the QueryStats the program returns — under the span ctx runs in.
func (r *Recorder) Interval(ctx context.Context, name string, start, end time.Time) context.Context {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		return ctx
	}
	return withSpan(ctx, ref.req, r.add(name, ref.req, ref.id, start, end))
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span { return r.Since(0) }

// Len is the number of spans recorded so far; Since(Len()) taken before a
// pass and read after it returns that pass's spans.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Since returns a copy of the spans recorded after the first `mark`.
func (r *Recorder) Since(mark int) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans[mark:]...)
}

// SelfTimes maps each span's ID to its self time: its duration minus the
// part of its interval its child spans cover. Children that overlap (the
// router's parallel shard calls) are counted once, by the union of their
// intervals, so the self times along a request's blocking path add up to
// the root's duration.
func SelfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent Span, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		start, end := max(k.Start, edge), min(k.End, parent.End)
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}

// spanTotals sums durations and self times by span name.
type spanTotals struct {
	dur, self map[string]int64
}

func totalsByName(spans []Span) spanTotals {
	t := spanTotals{dur: map[string]int64{}, self: map[string]int64{}}
	self := SelfTimes(spans)
	for _, s := range spans {
		t.dur[s.Name] += s.End - s.Start
		t.self[s.Name] += self[s.ID]
	}
	return t
}
