package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	tklus "repro"
	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/textutil"
)

// deriveSeed mixes the run seed with a purpose-specific salt (splitmix64),
// so the corpus, the query set, each round's order and the oracle sample
// draw from unrelated streams of the one -seed argument.
func deriveSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

const (
	saltQueries = 1 + iota
	saltOracle
	saltRoots
	saltRound = 1000 // + round index
)

// GenerateCorpus builds the scale's corpus from the run seed.
func GenerateCorpus(sc Scale, seed int64) (*datagen.Corpus, error) {
	cfg := datagen.DefaultConfig()
	cfg.Seed = seed
	cfg.NumUsers = sc.Users
	cfg.NumPosts = sc.Posts
	return datagen.Generate(cfg)
}

// Request is one search of a workload's query set: the engine query (for
// the oracle and the direct pass) and the exact bytes POSTed to /v1/search.
type Request struct {
	Query tklus.Query
	Body  []byte
}

// BuildRequests derives the workload's query set from the corpus and seed:
// PerClass queries for each keyword count the workload keeps, each located
// at a random corpus post, with the workload's radius and ranking.
func BuildRequests(w Workload, corpus *datagen.Corpus, sc Scale, seed int64) ([]Request, error) {
	var reqs []Request
	for _, spec := range corpus.GenerateQueries(deriveSeed(seed, saltQueries), sc.PerClass) {
		if len(spec.Keywords) < w.MinKeywords {
			continue
		}
		wire := server.SearchRequestV1{
			Version:  server.ProtocolVersion,
			Lat:      spec.Loc.Lat,
			Lon:      spec.Loc.Lon,
			RadiusKm: w.RadiusKm,
			Keywords: spec.Keywords,
			K:        TopK,
			Semantic: "or",
			Ranking:  w.Ranking,
		}
		q, err := wire.Query()
		if err != nil {
			return nil, fmt.Errorf("bench: generated query is invalid: %w", err)
		}
		body, err := json.Marshal(wire)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, Request{Query: q, Body: body})
	}
	return reqs, nil
}

// RoundOrder is the seeded permutation in which a round replays the set.
func RoundOrder(seed int64, round, n int) []int {
	return rand.New(rand.NewSource(deriveSeed(seed, saltRound+uint64(round)))).Perm(n)
}

// IngestBodies cuts the live posts into IngestBatch-sized /v1/ingest
// request bodies. Posts travel as raw text — the server derives the terms
// with textutil, as it would for a real client.
func IngestBodies(live []*tklus.Post) ([][]byte, error) {
	var bodies [][]byte
	for start := 0; start < len(live); start += IngestBatch {
		end := min(start+IngestBatch, len(live))
		wire := server.IngestRequestV1{Version: server.ProtocolVersion}
		for _, p := range live[start:end] {
			wp := server.IngestPostV1{
				SID: int64(p.SID), UID: int64(p.UID),
				Lat: p.Loc.Lat, Lon: p.Loc.Lon, Text: p.Text,
				RUID: int64(p.RUID), RSID: int64(p.RSID),
			}
			switch p.Kind {
			case tklus.Reply:
				wp.Kind = "reply"
			case tklus.Forward:
				wp.Kind = "forward"
			}
			wire.Posts = append(wire.Posts, wp)
		}
		body, err := json.Marshal(wire)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// restem returns copies of the posts with Words re-derived from Text by the
// indexing pipeline — what the server stores for a post that arrives as
// text — so the oracle ranks the live posts exactly as the store indexed
// them (datagen's own stems differ on a few filler words).
func restem(posts []*tklus.Post) []*tklus.Post {
	out := make([]*tklus.Post, len(posts))
	for i, p := range posts {
		c := *p
		c.Words = textutil.Terms(p.Text)
		out[i] = &c
	}
	return out
}

// StreamHash fingerprints the bytes a run sends: the search bodies in each
// of the first rounds' orders, then any ingest bodies. Equal seeds must give
// equal hashes; the report stamps it so two result files can be seen to
// have measured the same requests.
func StreamHash(seed int64, rounds int, reqs []Request, ingest [][]byte) string {
	h := sha256.New()
	for r := 0; r < rounds; r++ {
		for _, i := range RoundOrder(seed, r, len(reqs)) {
			h.Write(reqs[i].Body)
		}
	}
	for _, b := range ingest {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
