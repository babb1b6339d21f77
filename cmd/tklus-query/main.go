// Command tklus-query loads a JSONL corpus, builds the full system, and
// answers one TkLUS query from the command line.
//
// Usage:
//
//	tklus-query -in corpus.jsonl -lat 43.6839 -lon -79.3736 \
//	    -radius 10 -k 5 -keywords "hotel" -ranking max -semantic or
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	tklus "repro"
	"repro/internal/ingest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tklus-query: ")

	var (
		in       = flag.String("in", "corpus.jsonl", "input corpus")
		format   = flag.String("format", "jsonl", "input format: jsonl | twitter (REST v1.1 statuses)")
		load     = flag.String("load", "", "load a system saved by tklus-index -save instead of rebuilding")
		lat      = flag.Float64("lat", 43.6839128037, "query latitude")
		lon      = flag.Float64("lon", -79.37356590, "query longitude")
		radius   = flag.Float64("radius", 10, "query radius in km")
		k        = flag.Int("k", 5, "number of users to return")
		keywords = flag.String("keywords", "hotel", "space-separated query keywords")
		ranking  = flag.String("ranking", "max", "user ranking: sum | max")
		semantic = flag.String("semantic", "or", "multi-keyword semantic: and | or")
		geohash  = flag.Int("geohash", 4, "geohash encoding length")
		verbose  = flag.Bool("v", false, "print per-query work statistics")
		evidence = flag.Int("evidence", 0, "also print up to N matching tweets per returned user")
	)
	flag.Parse()

	cfg := tklus.DefaultConfig()
	cfg.Index.GeohashLen = *geohash

	var sys *tklus.System
	if *load != "" {
		var err error
		sys, err = tklus.Load(*load, cfg)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		posts, err := ingest.Load(*in, *format)
		if err != nil {
			log.Fatal(err)
		}
		sys, err = tklus.Build(posts, cfg)
		if err != nil {
			log.Fatal(err)
		}
	}

	q := tklus.Query{
		Loc:      tklus.Point{Lat: *lat, Lon: *lon},
		RadiusKm: *radius,
		Keywords: strings.Fields(*keywords),
		K:        *k,
	}
	switch *ranking {
	case "sum":
		q.Ranking = tklus.SumScore
	case "max":
		q.Ranking = tklus.MaxScore
	default:
		log.Fatalf("unknown ranking %q (want sum or max)", *ranking)
	}
	switch *semantic {
	case "and":
		q.Semantic = tklus.And
	case "or":
		q.Semantic = tklus.Or
	default:
		log.Fatalf("unknown semantic %q (want and or or)", *semantic)
	}

	results, stats, err := sys.Search(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("top-%d local users for %q within %.0f km of (%.4f, %.4f) [%s, %s]:\n",
		*k, *keywords, *radius, *lat, *lon, *ranking, *semantic)
	if len(results) == 0 {
		fmt.Println("  (no matching users)")
	}
	for i, r := range results {
		fmt.Printf("  %2d. user %-8d score %.4f  (%d posts in corpus)\n",
			i+1, r.UID, r.Score, sys.DB.PostCountOfUser(r.UID))
		if *evidence > 0 {
			texts, err := sys.Evidence(q, r.UID, *evidence)
			if err != nil {
				log.Fatal(err)
			}
			for _, text := range texts {
				fmt.Printf("        · %s\n", text)
			}
		}
	}
	if *verbose {
		fmt.Printf("\nwork: %d cells, %d postings lists, %d candidates, "+
			"%d blocks skipped (%d postings), %d partitions pruned, %v elapsed\n",
			stats.Cells, stats.PostingsFetched, stats.Candidates,
			stats.BlocksSkipped, stats.PostingsSkipped, stats.PartitionsPruned,
			stats.Elapsed.Round(time.Microsecond))
	}
}
