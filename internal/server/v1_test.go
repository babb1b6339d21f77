package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// postJSON performs a POST with a JSON body against the in-memory server.
func postJSON(t *testing.T, s *Server, url, body string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("POST", url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var decoded map[string]any
	if rec.Body.Len() > 0 && rec.Header().Get("Content-Type") == "application/json" {
		if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, rec.Body.String())
		}
	}
	return rec.Code, decoded
}

// TestV1SearchMatchesLegacyGet drives the same query through POST
// /v1/search and the legacy GET /search alias; both decode into the same
// v1 request struct, so the replies must agree field for field.
func TestV1SearchMatchesLegacyGet(t *testing.T) {
	s, loc := testServer(t)
	body := fmt.Sprintf(`{"version":1,"lat":%f,"lon":%f,"radius_km":10,"keywords":["hotel"],"k":5,"ranking":"max"}`,
		loc.Lat, loc.Lon)
	code, post := postJSON(t, s, "/v1/search", body)
	if code != 200 {
		t.Fatalf("POST /v1/search status %d: %v", code, post)
	}
	if post["version"].(float64) != ProtocolVersion {
		t.Errorf("version = %v, want %d", post["version"], ProtocolVersion)
	}
	url := fmt.Sprintf("/search?lat=%f&lon=%f&radius=10&keywords=hotel&k=5&ranking=max", loc.Lat, loc.Lon)
	code, legacy := get(t, s, url)
	if code != 200 {
		t.Fatalf("GET /search status %d: %v", code, legacy)
	}
	if !reflect.DeepEqual(post["results"], legacy["results"]) {
		t.Errorf("POST results %v != GET results %v", post["results"], legacy["results"])
	}
}

// TestV1SearchDefaults checks the documented zero-value defaults: version
// 0 means 1, k 0 means 10, empty semantic/ranking mean or/max.
func TestV1SearchDefaults(t *testing.T) {
	s, loc := testServer(t)
	body := fmt.Sprintf(`{"lat":%f,"lon":%f,"radius_km":10,"keywords":["hotel"]}`, loc.Lat, loc.Lon)
	code, resp := postJSON(t, s, "/v1/search", body)
	if code != 200 {
		t.Fatalf("status %d: %v", code, resp)
	}
	stats := resp["stats"].(map[string]any)
	if stats["semantic"] != "or" || stats["ranking"] != "max" {
		t.Errorf("defaults not applied: %v", stats)
	}
	if len(resp["results"].([]any)) == 0 {
		t.Error("no results under default k")
	}
}

func TestV1SearchErrors(t *testing.T) {
	s, loc := testServer(t)
	ok := fmt.Sprintf(`"lat":%f,"lon":%f,"radius_km":10,"keywords":["hotel"]`, loc.Lat, loc.Lon)
	cases := []struct {
		name, body string
		want       int
	}{
		{"unsupported version", `{"version":99,` + ok + `}`, 400},
		{"malformed json", `{"lat":`, 400},
		{"bad semantic", `{"semantic":"xor",` + ok + `}`, 400},
		{"bad ranking", `{"ranking":"median",` + ok + `}`, 400},
		{"bad window", `{"from":"yesterday","to":"today",` + ok + `}`, 400},
		{"bad radius", fmt.Sprintf(`{"lat":%f,"lon":%f,"radius_km":-4,"keywords":["hotel"]}`, loc.Lat, loc.Lon), 400},
	}
	for _, tc := range cases {
		code, resp := postJSON(t, s, "/v1/search", tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, code, tc.want, resp)
		}
		if resp["error"] == "" {
			t.Errorf("%s: missing error body", tc.name)
		}
	}
	// JSON has no NaN or infinity, so the non-finite radii come in through
	// the GET alias, whose strconv parse accepts them.
	for _, radius := range []string{"NaN", "Inf", "-Inf"} {
		url := fmt.Sprintf("/search?lat=%f&lon=%f&radius=%s&keywords=hotel", loc.Lat, loc.Lon, radius)
		code, resp := get(t, s, url)
		if code != 400 || resp["error"].(map[string]any)["code"] != "bad_query" {
			t.Errorf("radius %s: status %d (%v), want 400 bad_query", radius, code, resp)
		}
	}
	// The versioned route is POST-only; the mux answers 405 for GET.
	req := httptest.NewRequest("GET", "/v1/search", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 405 {
		t.Errorf("GET /v1/search status %d, want 405", rec.Code)
	}
}

// TestV1SearchHugeK: k sizes no allocation beyond the users a query finds,
// so the largest k a 32-bit client can send answers like any other.
func TestV1SearchHugeK(t *testing.T) {
	s, loc := testServer(t)
	body := fmt.Sprintf(`{"lat":%f,"lon":%f,"radius_km":10,"keywords":["hotel"],"k":2147483647}`, loc.Lat, loc.Lon)
	code, resp := postJSON(t, s, "/v1/search", body)
	if code != 200 {
		t.Fatalf("status %d: %v", code, resp)
	}
	if len(resp["results"].([]any)) == 0 {
		t.Error("no results")
	}
}
