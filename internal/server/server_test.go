package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	tklus "repro"
)

func testServer(t *testing.T) (*Server, tklus.Point) {
	t.Helper()
	loc := tklus.Point{Lat: 43.68, Lon: -79.37}
	t0 := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	root := tklus.NewPost(1, t0, loc, "wonderful hotel downtown")
	posts := []*tklus.Post{root}
	for i := 0; i < 6; i++ {
		posts = append(posts, tklus.NewReply(tklus.UserID(100+i),
			t0.Add(time.Duration(i+1)*time.Second), loc, "agreed", root))
	}
	posts = append(posts,
		tklus.NewPost(2, t0.Add(time.Hour), loc, "hotel pool is cold"),
		tklus.NewPost(3, t0.Add(2*time.Hour), tklus.Point{Lat: 40.7, Lon: -74.0},
			"hotel in new york"),
	)
	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return New(sys), loc
}

func get(t *testing.T, s *Server, url string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if rec.Body.Len() > 0 && rec.Header().Get("Content-Type") == "application/json" {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, rec.Body.String())
		}
	}
	return rec.Code, body
}

func TestSearchEndpoint(t *testing.T) {
	s, loc := testServer(t)
	url := fmt.Sprintf("/search?lat=%f&lon=%f&radius=10&keywords=hotel&k=5&ranking=max", loc.Lat, loc.Lon)
	code, body := get(t, s, url)
	if code != 200 {
		t.Fatalf("status %d: %v", code, body)
	}
	results := body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results = %v, want users 1 and 2", results)
	}
	first := results[0].(map[string]any)
	if first["uid"].(float64) != 1 {
		t.Errorf("top user = %v, want 1 (thread owner)", first["uid"])
	}
	if first["posts"].(float64) != 1 {
		t.Errorf("posts = %v, want 1", first["posts"])
	}
	stats := body["stats"].(map[string]any)
	if stats["candidates"].(float64) < 2 {
		t.Errorf("stats = %v", stats)
	}
	if stats["ranking"] != "max" || stats["semantic"] != "or" {
		t.Errorf("echoed config wrong: %v", stats)
	}
}

func TestSearchTimeWindow(t *testing.T) {
	s, loc := testServer(t)
	// Window covering only the first tweet's timestamp.
	url := fmt.Sprintf("/search?lat=%f&lon=%f&radius=10&keywords=hotel&k=5"+
		"&from=2013-01-01T00:00:00Z&to=2013-01-01T00:30:00Z", loc.Lat, loc.Lon)
	code, body := get(t, s, url)
	if code != 200 {
		t.Fatalf("status %d: %v", code, body)
	}
	results := body["results"].([]any)
	if len(results) != 1 || results[0].(map[string]any)["uid"].(float64) != 1 {
		t.Fatalf("windowed results = %v, want only user 1", results)
	}
}

func TestSearchValidation(t *testing.T) {
	s, _ := testServer(t)
	bad := []string{
		"/search",                          // missing everything
		"/search?lat=43&lon=-79",           // missing radius
		"/search?lat=43&lon=-79&radius=10", // missing keywords
		"/search?lat=43&lon=-79&radius=10&keywords=hotel&k=zero",
		"/search?lat=43&lon=-79&radius=10&keywords=hotel&semantic=xor",
		"/search?lat=43&lon=-79&radius=10&keywords=hotel&ranking=med",
		"/search?lat=43&lon=-79&radius=10&keywords=hotel&from=bogus&to=2013-01-01T00:00:00Z",
		"/search?lat=999&lon=-79&radius=10&keywords=hotel",
	}
	for _, url := range bad {
		code, body := get(t, s, url)
		if code != 400 {
			t.Errorf("%s: status %d, want 400", url, code)
		}
		if body["error"] == "" {
			t.Errorf("%s: missing error body", url)
		}
	}
}

func TestEvidenceEndpoint(t *testing.T) {
	s, loc := testServer(t)
	url := fmt.Sprintf("/evidence?lat=%f&lon=%f&radius=10&keywords=hotel&uid=1&limit=5", loc.Lat, loc.Lon)
	code, body := get(t, s, url)
	if code != 200 {
		t.Fatalf("status %d: %v", code, body)
	}
	tweets := body["tweets"].([]any)
	if len(tweets) != 1 || tweets[0].(string) != "wonderful hotel downtown" {
		t.Errorf("tweets = %v", tweets)
	}
	// Missing uid.
	code, _ = get(t, s, fmt.Sprintf("/evidence?lat=%f&lon=%f&radius=10&keywords=hotel", loc.Lat, loc.Lon))
	if code != 400 {
		t.Errorf("missing uid: status %d", code)
	}
}

func TestThreadEndpoint(t *testing.T) {
	s, loc := testServer(t)
	// Find the root tweet's SID via search evidence: it is the earliest
	// post, i.e. the system's minimum SID.
	min, _ := s.sys.DB.SIDRange()
	code, body := get(t, s, fmt.Sprintf("/thread?tid=%d", min))
	if code != 200 {
		t.Fatalf("status %d: %v", code, body)
	}
	nodes := body["nodes"].([]any)
	if len(nodes) != 7 { // root + 6 replies
		t.Fatalf("thread has %d nodes, want 7", len(nodes))
	}
	root := nodes[0].(map[string]any)
	if root["level"].(float64) != 1 || root["text"].(string) != "wonderful hotel downtown" {
		t.Errorf("root node = %v", root)
	}
	// popularity = 6 direct replies / 2.
	if body["popularity"].(float64) != 3 {
		t.Errorf("popularity = %v, want 3", body["popularity"])
	}
	// Unknown tweet: 404. Bad tid: 400.
	if code, _ := get(t, s, "/thread?tid=123456789"); code != 404 {
		t.Errorf("unknown tweet status %d", code)
	}
	if code, _ := get(t, s, "/thread?tid=abc"); code != 400 {
		t.Errorf("bad tid status %d", code)
	}
	_ = loc
}

func TestStatsAndHealth(t *testing.T) {
	s, loc := testServer(t)
	// Generate some work first.
	get(t, s, fmt.Sprintf("/search?lat=%f&lon=%f&radius=10&keywords=hotel", loc.Lat, loc.Lon))
	code, body := get(t, s, "/stats")
	if code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if body["rows"].(float64) != 9 {
		t.Errorf("rows = %v, want 9", body["rows"])
	}
	if body["index_keys"].(float64) < 1 {
		t.Errorf("index_keys = %v", body["index_keys"])
	}
	for _, gone := range []string{"postings_fetches", "dfs_blocks_read", "dfs_bytes_read", "dfs_seeks",
		"db_page_reads", "db_cache_hits", "db_index_reads"} {
		if _, ok := body[gone]; ok {
			t.Errorf("stats still report %s, a counter no serving system moves", gone)
		}
	}
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Errorf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

func TestUnknownRouteAndMethod(t *testing.T) {
	s, _ := testServer(t)
	code, _ := get(t, s, "/nope")
	if code != 404 {
		t.Errorf("unknown route status %d", code)
	}
	req := httptest.NewRequest("POST", "/search", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 405 {
		t.Errorf("POST /search status %d, want 405", rec.Code)
	}
}

// post sends a JSON body and decodes the JSON reply.
func post(t *testing.T, s *Server, url, body string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("POST", url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Body.Len() > 0 && rec.Header().Get("Content-Type") == "application/json" {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, rec.Body.String())
		}
	}
	return rec.Code, out
}

func TestIngestEndpoint(t *testing.T) {
	s, loc := testServer(t)
	rootSID := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()

	// The root's thread before the ingest.
	_, threadBefore := get(t, s, fmt.Sprintf("/thread?tid=%d", rootSID))
	before := len(threadBefore["nodes"].([]any))

	// Ingest a reply to the root: one more node, immediately visible.
	newSID := time.Date(2013, 1, 1, 4, 0, 0, 0, time.UTC).UnixNano()
	body := fmt.Sprintf(`{"posts":[{"sid":%d,"uid":200,"lat":%f,"lon":%f,
		"text":"late reply","kind":"reply","ruid":1,"rsid":%d}]}`,
		newSID, loc.Lat, loc.Lon, rootSID)
	code, resp := post(t, s, "/v1/ingest", body)
	if code != 200 {
		t.Fatalf("ingest status %d: %v", code, resp)
	}
	if n := resp["ingested"].(float64); n != 1 {
		t.Fatalf("ingested = %v, want 1", n)
	}
	_, threadAfter := get(t, s, fmt.Sprintf("/thread?tid=%d", rootSID))
	if after := len(threadAfter["nodes"].([]any)); after != before+1 {
		t.Errorf("thread nodes %d -> %d, want +1", before, after)
	}

	// Bad batches are 400s: empty, malformed kind, out-of-order SID.
	for name, bad := range map[string]string{
		"empty":    `{"posts":[]}`,
		"bad-kind": fmt.Sprintf(`{"posts":[{"sid":%d,"uid":7,"lat":1,"lon":1,"text":"x","kind":"zap"}]}`, newSID+1),
		"old-sid":  fmt.Sprintf(`{"posts":[{"sid":%d,"uid":7,"lat":1,"lon":1,"text":"x"}]}`, rootSID),
	} {
		if code, resp := post(t, s, "/v1/ingest", bad); code != 400 {
			t.Errorf("%s: status %d (%v), want 400", name, code, resp)
		}
	}
}

// TestClosedStoreIsUnavailable: once a segmented system's store is closed,
// every endpoint that reaches it says so — 503 with the "closed" envelope
// code on search and ingest.
// A refused post stays the client's 400 while the store is open, and a
// failure that is neither (the errIngest backend) is the server's 500.
func TestClosedStoreIsUnavailable(t *testing.T) {
	s, loc := testServer(t)
	sys := s.sys
	seg, err := tklus.EnableSegments(sys, tklus.SegmentOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	search := fmt.Sprintf(`{"version":1,"lat":%f,"lon":%f,"radius_km":10,"keywords":["hotel"],"k":3}`, loc.Lat, loc.Lon)
	newSID := time.Date(2013, 1, 2, 0, 0, 0, 0, time.UTC).UnixNano()
	ingest := func(sid int64) string {
		return fmt.Sprintf(`{"posts":[{"sid":%d,"uid":7,"lat":%f,"lon":%f,"text":"hotel bar"}]}`, sid, loc.Lat, loc.Lon)
	}
	if code, resp := post(t, s, "/v1/search", search); code != 200 {
		t.Fatalf("search before close: %d %v", code, resp)
	}
	if code, resp := post(t, s, "/v1/ingest", ingest(newSID)); code != 200 {
		t.Fatalf("ingest before close: %d %v", code, resp)
	}
	code, resp := post(t, s, "/v1/ingest", ingest(newSID)) // same SID again
	if code != 400 || resp["error"].(map[string]any)["code"] != "rejected" {
		t.Errorf("out-of-order SID: %d %v, want 400 rejected", code, resp)
	}

	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ url, body string }{
		{"/v1/search", search},
		{"/v1/ingest", ingest(newSID + 1)},
	} {
		code, resp := post(t, s, c.url, c.body)
		if code != 503 || resp["error"].(map[string]any)["code"] != "closed" {
			t.Errorf("%s after Close: %d %v, want 503 closed", c.url, code, resp)
		}
	}
}

// errIngest is a backend whose ingest path fails for a reason that is not
// the client's data.
type errIngest struct{ noopSearcher }

func (errIngest) IngestContext(context.Context, ...*tklus.Post) error {
	return errors.New("segment: sealing the memtable: disk full")
}

func TestIngestServerFaultIs500(t *testing.T) {
	s := NewSearcher(errIngest{})
	code, resp := post(t, s, "/v1/ingest", `{"posts":[{"sid":5,"uid":7,"lat":1,"lon":1,"text":"x"}]}`)
	if code != 500 || resp["error"].(map[string]any)["code"] != "internal" {
		t.Errorf("failed seal: %d %v, want 500 internal", code, resp)
	}
}
