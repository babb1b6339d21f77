package core

import "errors"

// Sentinel errors of the query API. Callers classify failures with
// errors.Is instead of matching message substrings; the HTTP server maps
// them onto status codes (ErrBadQuery → 400, ErrNoResults → 404,
// ErrOverloaded → 429, ErrShardUnavailable → 503, ErrClosed → 503).
// Wrapped errors carry the specifics.
var (
	// ErrBadQuery marks a query rejected by validation before any work ran:
	// invalid location, non-positive radius or k, empty keyword set, empty
	// time window, keywords that stem to nothing.
	ErrBadQuery = errors.New("bad query")

	// ErrNoResults marks a lookup whose subject does not exist — a thread
	// root or evidence user absent from the corpus. A valid query that
	// merely matches no users returns an empty result list, not this error.
	ErrNoResults = errors.New("no results")

	// ErrShardUnavailable marks a scatter-gather query that could not reach
	// enough shards to produce results: every overlapping shard failed, or
	// a shard failed while the router was configured to refuse partial
	// results.
	ErrShardUnavailable = errors.New("shard unavailable")

	// ErrOverloaded marks a query the admission controller refused or shed
	// to protect the serving tier: the accept queue was full, the query's
	// estimated cost exceeded the shed budget, or it waited past its
	// deadline slack. The query did no search work; the caller should back
	// off and retry (the HTTP layer answers 429 with Retry-After).
	ErrOverloaded = errors.New("overloaded")

	// ErrClosed marks a query or ingest against an engine whose storage was
	// closed (SetPartitions with an empty set): there is nothing left to
	// read or append to.
	ErrClosed = errors.New("closed")

	// ErrParamsMismatch marks an engine refused because its corpus table
	// cannot give the exact φ of Algorithm 1 under the scoring model: the
	// table counted thread levels to another depth limit.
	ErrParamsMismatch = errors.New("popularity table does not match the scoring model")
)
