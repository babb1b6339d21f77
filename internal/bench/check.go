package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	tklus "repro"
)

// Oracle ranks a query exhaustively; baseline.ScanRanker is the real one
// and tests substitute a corrupted one to see the gate fail.
type Oracle interface {
	Search(q tklus.Query) []tklus.UserResult
}

var (
	resultsKey  = []byte(`"results":`)
	statsKey    = []byte(`"stats":`)
	degradedKey = []byte(`"degraded_shards"`)
)

// resultsOf cuts the "results" member out of a /v1/search reply, so two
// replies to the same request can be compared byte for byte without their
// timings. The server writes "results" before "stats".
func resultsOf(body []byte) ([]byte, bool) {
	i := bytes.Index(body, resultsKey)
	j := bytes.Index(body, statsKey)
	if i < 0 || j < i {
		return nil, false
	}
	return body[i:j], true
}

// searchReply is the part of the v1 reply the oracle check reads.
type searchReply struct {
	Results []struct {
		UID   int64   `json:"uid"`
		Score float64 `json:"score"`
	} `json:"results"`
}

// scoreTolerance is scale_test.go's: engine and oracle sum the same terms
// in different orders.
const scoreTolerance = 1e-9

// verifyReply compares one reply with the oracle's ranking: same length and
// every score within tolerance — users may differ only where scores tie,
// which equal scores at every rank already imply.
func verifyReply(or Oracle, q tklus.Query, body []byte) error {
	var got searchReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	want := or.Search(q)
	if len(got.Results) != len(want) {
		return fmt.Errorf("keywords %v: %d results, oracle has %d", q.Keywords, len(got.Results), len(want))
	}
	for i, g := range got.Results {
		if d := g.Score - want[i].Score; d > scoreTolerance || d < -scoreTolerance {
			return fmt.Errorf("keywords %v: result %d is uid %d score %v, oracle has uid %d score %v",
				q.Keywords, i, g.UID, g.Score, want[i].UID, want[i].Score)
		}
	}
	return nil
}

// oracleSample picks the seeded sample of distinct queries the gate checks.
func oracleSample(seed int64, n int) []int {
	perm := rand.New(rand.NewSource(deriveSeed(seed, saltOracle))).Perm(n)
	return perm[:min(OracleSample, n)]
}
