package server

// Wire protocol version 1: the versioned JSON schema spoken by
// POST /v1/search and POST /v1/ingest. The legacy GET /search decodes its
// URL parameters into the same request struct, so both search entry points
// share one validation and execution path. Fields are explicit and stable;
// additions must be backward compatible within a version, and semantic
// changes bump ProtocolVersion.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	tklus "repro"
	"repro/internal/core"
	"repro/internal/textutil"
)

// ProtocolVersion is the wire schema version this server speaks.
const ProtocolVersion = 1

// maxRequestBody bounds the request bodies the server reads; a search
// request is a few hundred bytes, so 1 MiB is generous.
const maxRequestBody = 1 << 20

// SearchRequestV1 is the v1 search request. Semantic and Ranking travel as
// strings ("and"/"or", "sum"/"max") so the wire form never depends on Go
// enum numbering; zero values select the documented defaults.
type SearchRequestV1 struct {
	// Version of the schema the client speaks; 0 means 1. The server
	// rejects versions it does not know.
	Version int `json:"version,omitempty"`

	Lat      float64  `json:"lat"`
	Lon      float64  `json:"lon"`
	RadiusKm float64  `json:"radius_km"`
	Keywords []string `json:"keywords"`
	// K is the result size; 0 means 10.
	K int `json:"k,omitempty"`
	// Semantic is "and" or "or" (the default when empty).
	Semantic string `json:"semantic,omitempty"`
	// Ranking is "sum" or "max" (the default when empty).
	Ranking string `json:"ranking,omitempty"`
	// From and To optionally bound the search window, RFC 3339.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
}

// Query converts the wire request into an engine query, applying the
// documented defaults. Failures wrap core.ErrBadQuery.
func (req *SearchRequestV1) Query() (tklus.Query, error) {
	var q tklus.Query
	if req.Version != 0 && req.Version != ProtocolVersion {
		return q, fmt.Errorf("%w: unsupported protocol version %d (server speaks %d)",
			core.ErrBadQuery, req.Version, ProtocolVersion)
	}
	q.Loc.Lat = req.Lat
	q.Loc.Lon = req.Lon
	q.RadiusKm = req.RadiusKm
	q.Keywords = req.Keywords
	q.K = req.K
	if q.K == 0 {
		q.K = 10
	}
	switch strings.ToLower(req.Semantic) {
	case "", "or":
		q.Semantic = tklus.Or
	case "and":
		q.Semantic = tklus.And
	default:
		return q, fmt.Errorf("%w: semantic %q: want and|or", core.ErrBadQuery, req.Semantic)
	}
	switch strings.ToLower(req.Ranking) {
	case "", "max":
		q.Ranking = tklus.MaxScore
	case "sum":
		q.Ranking = tklus.SumScore
	default:
		return q, fmt.Errorf("%w: ranking %q: want sum|max", core.ErrBadQuery, req.Ranking)
	}
	if req.From != "" || req.To != "" {
		from, err := time.Parse(time.RFC3339, req.From)
		if err != nil {
			return q, fmt.Errorf("%w: from: %v", core.ErrBadQuery, err)
		}
		to, err := time.Parse(time.RFC3339, req.To)
		if err != nil {
			return q, fmt.Errorf("%w: to: %v", core.ErrBadQuery, err)
		}
		q.TimeWindow = &tklus.TimeWindow{From: from, To: to}
	}
	return q, nil
}

// requestFromURL decodes the legacy GET /search parameter set into a v1
// request, so both entry points share Query()'s validation and defaults.
func requestFromURL(get url.Values) (SearchRequestV1, error) {
	req := SearchRequestV1{Version: ProtocolVersion}
	f := func(name string, dst *float64) error {
		v, err := strconv.ParseFloat(get.Get(name), 64)
		if err != nil {
			return fmt.Errorf("%w: parameter %q: %v", core.ErrBadQuery, name, err)
		}
		*dst = v
		return nil
	}
	if err := f("lat", &req.Lat); err != nil {
		return req, err
	}
	if err := f("lon", &req.Lon); err != nil {
		return req, err
	}
	if err := f("radius", &req.RadiusKm); err != nil {
		return req, err
	}
	req.Keywords = strings.Fields(get.Get("keywords"))
	if raw := get.Get("k"); raw != "" {
		k, err := strconv.Atoi(raw)
		if err != nil {
			return req, fmt.Errorf("%w: parameter %q: %v", core.ErrBadQuery, "k", err)
		}
		req.K = k
	}
	req.Semantic = get.Get("semantic")
	req.Ranking = get.Get("ranking")
	req.From = get.Get("from")
	req.To = get.Get("to")
	return req, nil
}

// SearchResponseV1 is the v1 search reply.
type SearchResponseV1 struct {
	Version int        `json:"version"`
	Results []userJSON `json:"results"`
	Stats   statsJSON  `json:"stats"`
}

// errorResponseV1 is the error envelope every endpoint writes:
//
//	{"error": {"code": "bad_query", "message": "bad query: radius must be positive"}}
//
// The code is a stable machine-readable name from the sentinel table
// below; the message is the wrapped error chain for humans.
type errorResponseV1 struct {
	Error errorBodyV1 `json:"error"`
}

type errorBodyV1 struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// IngestRequestV1 is the POST /v1/ingest request: a batch of posts to
// append to the live system. Served only by single-system backends.
type IngestRequestV1 struct {
	// Version of the schema the client speaks; 0 means 1.
	Version int            `json:"version,omitempty"`
	Posts   []IngestPostV1 `json:"posts"`
}

// IngestPostV1 is one post on the ingest wire. SIDs are UnixNano
// timestamps and must arrive in ascending order (Section IV-A: tweet IDs
// are essentially timestamps); kind is "", "reply" or "forward", with
// ruid/rsid naming the replied-to user and tweet.
type IngestPostV1 struct {
	SID  int64   `json:"sid"`
	UID  int64   `json:"uid"`
	Lat  float64 `json:"lat"`
	Lon  float64 `json:"lon"`
	Text string  `json:"text,omitempty"`
	// Words carries pre-stemmed terms; empty derives them from Text with
	// the indexing pipeline.
	Words []string `json:"words,omitempty"`
	Kind  string   `json:"kind,omitempty"`
	RUID  int64    `json:"ruid,omitempty"`
	RSID  int64    `json:"rsid,omitempty"`
}

// Decode validates and converts the wire batch. Failures wrap
// core.ErrBadQuery.
func (req *IngestRequestV1) Decode() ([]*tklus.Post, error) {
	if req.Version != 0 && req.Version != ProtocolVersion {
		return nil, fmt.Errorf("%w: unsupported protocol version %d (server speaks %d)",
			core.ErrBadQuery, req.Version, ProtocolVersion)
	}
	if len(req.Posts) == 0 {
		return nil, fmt.Errorf("%w: no posts in ingest request", core.ErrBadQuery)
	}
	posts := make([]*tklus.Post, 0, len(req.Posts))
	for i, wp := range req.Posts {
		p := &tklus.Post{
			SID:   tklus.PostID(wp.SID),
			UID:   tklus.UserID(wp.UID),
			Time:  time.Unix(0, wp.SID).UTC(),
			Loc:   tklus.Point{Lat: wp.Lat, Lon: wp.Lon},
			Words: wp.Words,
			Text:  wp.Text,
			RUID:  tklus.UserID(wp.RUID),
			RSID:  tklus.PostID(wp.RSID),
		}
		if len(p.Words) == 0 && wp.Text != "" {
			p.Words = textutil.Terms(wp.Text)
		}
		switch strings.ToLower(wp.Kind) {
		case "", "none":
			p.Kind = tklus.None
		case "reply":
			p.Kind = tklus.Reply
		case "forward":
			p.Kind = tklus.Forward
		default:
			return nil, fmt.Errorf("%w: post %d: kind %q: want reply|forward", core.ErrBadQuery, i, wp.Kind)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("%w: post %d: %v", core.ErrBadQuery, i, err)
		}
		posts = append(posts, p)
	}
	return posts, nil
}

// IngestResponseV1 is the POST /v1/ingest reply.
type IngestResponseV1 struct {
	Version  int `json:"version"`
	Ingested int `json:"ingested"`
}

// decodeJSONBody reads and decodes a bounded JSON request body. Failures
// wrap core.ErrBadQuery.
func decodeJSONBody(r *http.Request, v any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		return fmt.Errorf("%w: reading body: %v", core.ErrBadQuery, err)
	}
	if len(body) > maxRequestBody {
		return fmt.Errorf("%w: request body exceeds %d bytes", core.ErrBadQuery, maxRequestBody)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%w: decoding body: %v", core.ErrBadQuery, err)
	}
	return nil
}

// errorTable is the single source of truth mapping the API's typed
// sentinels onto the wire: HTTP status, stable envelope code, and the
// query-outcome metric label. Order matters only in that classification
// takes the first errors.Is match.
var errorTable = []struct {
	sentinel error
	status   int
	code     string
	outcome  string
}{
	{core.ErrBadQuery, http.StatusBadRequest, "bad_query", outcomeBadRequest},
	{core.ErrNoResults, http.StatusNotFound, "not_found", outcomeNotFound},
	{core.ErrOverloaded, http.StatusTooManyRequests, "overloaded", outcomeOverloaded},
	{core.ErrShardUnavailable, http.StatusServiceUnavailable, "shard_unavailable", outcomeUnavailable},
	{core.ErrClosed, http.StatusServiceUnavailable, "closed", outcomeUnavailable},
	{tklus.ErrRejected, http.StatusBadRequest, "rejected", outcomeBadRequest},
}

// internalCode is the envelope code for errors outside the sentinel table.
const internalCode = "internal"

// classify resolves an engine or router error against the sentinel table.
// Unclassified errors are internal server faults: 500/"internal"/error.
func classify(err error) (status int, code string, outcome string) {
	for _, e := range errorTable {
		if errors.Is(err, e.sentinel) {
			return e.status, e.code, e.outcome
		}
	}
	return http.StatusInternalServerError, internalCode, outcomeError
}

// statusOf maps an engine or router error onto the HTTP status and the
// query-outcome metric label (the envelope code is dropped; handlers that
// write the body use classify via httpError).
func statusOf(err error) (int, string) {
	status, _, outcome := classify(err)
	return status, outcome
}
