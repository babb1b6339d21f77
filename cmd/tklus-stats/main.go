// Command tklus-stats prints the corpus statistics behind the paper's
// data-set description and Table II: volume, time span, reaction
// structure (thread fanout and popularity), keyword frequencies, and the
// densest geohash cells.
//
// With -traces it instead summarizes trace JSON saved from a server's
// /debug/traces/{id} endpoint (a single trace object or an array of
// them): per-stage exclusive-time totals and the per-shard critical-path
// breakdown of each scatter-gather query.
//
// Usage:
//
//	tklus-stats -in corpus.jsonl
//	tklus-stats -in statuses.json -format twitter
//	curl -s host:8080/debug/traces/$ID > t.json && tklus-stats -traces t.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/social"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tklus-stats: ")

	var (
		in      = flag.String("in", "corpus.jsonl", "input corpus")
		format  = flag.String("format", "jsonl", "input format: jsonl | twitter")
		geohash = flag.Int("geohash", 4, "geohash length for the density report")
		topN    = flag.Int("top", 10, "rows per ranking table")
		traces  = flag.String("traces", "",
			"summarize trace JSON from /debug/traces/{id} instead of a corpus (single object or array)")
	)
	flag.Parse()

	if *traces != "" {
		if err := summarizeTraces(*traces, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	posts, err := ingest.Load(*in, *format)
	if err != nil {
		log.Fatal(err)
	}

	users := map[social.UserID]int{}
	words := map[string]int{}
	cells := map[string]int{}
	children := map[social.PostID]int{}
	reactions := 0
	minSID, maxSID := posts[0].SID, posts[0].SID
	for _, p := range posts {
		users[p.UID]++
		for _, w := range p.Words {
			words[w]++
		}
		cells[geo.Encode(p.Loc, *geohash)]++
		if p.IsReaction() {
			reactions++
			children[p.RSID]++
		}
		if p.SID < minSID {
			minSID = p.SID
		}
		if p.SID > maxSID {
			maxSID = p.SID
		}
	}
	maxFanout := 0
	for _, n := range children {
		if n > maxFanout {
			maxFanout = n
		}
	}
	table, err := social.NewCorpus(posts, 6)
	if err != nil {
		log.Fatal(err)
	}
	ords := make([]uint32, table.Len())
	for i := range ords {
		ords[i] = uint32(i)
	}
	phi := make([]float64, len(ords))
	table.Score(ords, 0.1, make([]uint32, len(ords)), phi)

	fmt.Printf("corpus:          %d posts by %d users\n", len(posts), len(users))
	fmt.Printf("time span:       %s .. %s\n",
		time.Unix(0, int64(minSID)).UTC().Format("2006-01-02"),
		time.Unix(0, int64(maxSID)).UTC().Format("2006-01-02"))
	fmt.Printf("reactions:       %d (%.1f%%), %d threads with replies\n",
		reactions, 100*float64(reactions)/float64(len(posts)), len(children))
	fmt.Printf("max fanout t_m:  %d (Definition 11)\n", maxFanout)
	fmt.Printf("max thread pop:  %.3f (largest Definition 4 score, depth 6)\n\n", slices.Max(phi))

	fmt.Printf("top %d keywords (Table II view):\n", *topN)
	printRanking(words, *topN)

	fmt.Printf("\ntop %d geohash-%d cells by post count:\n", *topN, *geohash)
	printRanking(cells, *topN)
}

func printRanking(counts map[string]int, n int) {
	type kv struct {
		k string
		n int
	}
	ranked := make([]kv, 0, len(counts))
	for k, c := range counts {
		ranked = append(ranked, kv{k, c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].k < ranked[j].k
	})
	if len(ranked) > n {
		ranked = ranked[:n]
	}
	for i, r := range ranked {
		fmt.Printf("  %2d. %-14s %d\n", i+1, r.k, r.n)
	}
}
