// Command tklus-index builds the serving system over a JSONL corpus —
// the metadata database, the hybrid index frozen into one segment image,
// the tweet contents — and reports what the image holds (keys, rows,
// bytes). The paper's MapReduce build and its Figures 5 and 6 counters are
// measured by cmd/tklus-bench (-fig 5, 5w, 6).
//
// Without -save this is a construction dry run; with it, the system is
// persisted for cmd/tklus-query -load.
//
// Usage:
//
//	tklus-index -in corpus.jsonl -geohash 4 [-save dir]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	tklus "repro"
	"repro/internal/ingest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tklus-index: ")

	var (
		in      = flag.String("in", "corpus.jsonl", "input corpus")
		format  = flag.String("format", "jsonl", "input format: jsonl | twitter (REST v1.1 statuses)")
		geohash = flag.Int("geohash", 4, "geohash encoding length (1-12)")
		save    = flag.String("save", "", "persist the built system to this directory")
	)
	flag.Parse()

	posts, err := ingest.Load(*in, *format)
	if err != nil {
		log.Fatal(err)
	}

	cfg := tklus.DefaultConfig()
	cfg.Index.GeohashLen = *geohash

	start := time.Now()
	sys, err := tklus.Build(posts, cfg)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("corpus:            %d posts\n", len(posts))
	fmt.Printf("geohash length:    %d\n", *geohash)
	fmt.Printf("build time:        %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("index keys:        %d distinct (geohash, term) pairs\n", sys.Index.NumKeys())
	fmt.Printf("index rows:        %d\n", sys.Index.NumRows())
	fmt.Printf("index image:       %d bytes\n", sys.Index.SizeBytes())

	if *save != "" {
		if err := sys.Save(*save); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved to:          %s (load with tklus-query -load)\n", *save)
	}
}
