// Command tklus-index builds the serving system over a JSONL corpus —
// the metadata database and the hybrid index frozen into one segment image
// (the first sealed segment of the system's store, with the rows and tweet
// texts behind it) — and reports what the store holds (keys, rows, bytes). The paper's
// MapReduce build and its Figures 5 and 6 counters are measured by
// cmd/tklus-bench (-fig 5, 5w, 6).
//
// Without -save this is a construction dry run; with it, the system is
// checkpointed (<dir>/segments) for cmd/tklus-query -load and
// cmd/tklus-server -data.
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
	rows, size := 0, 0
	for _, seg := range sys.Store.Segments() {
		rows += seg.NumRows()
		size += seg.SizeBytes()
	}
	fmt.Printf("index keys:        %d (geohash, term) pairs\n", sys.Store.NumKeys())
	fmt.Printf("index rows:        %d\n", rows)
	fmt.Printf("index segments:    %d bytes\n", size)

	if *save != "" {
		if err := sys.Save(*save); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved to:          %s (load with tklus-query -load)\n", *save)
	}
}
