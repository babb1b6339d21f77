// Command tklus-index builds the hybrid spatial-keyword index over a JSONL
// corpus and reports the construction statistics of Figures 5 and 6
// (MapReduce counters, postings size, forward index size).
//
// The simulated DFS lives in memory, so this tool is a construction
// dry-run / profiler rather than a persistent indexer; persistent serving
// is what cmd/tklus-query does end to end.
//
// Usage:
//
//	tklus-index -in corpus.jsonl -geohash 4 -mappers 4 -reducers 4
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
		in       = flag.String("in", "corpus.jsonl", "input corpus")
		format   = flag.String("format", "jsonl", "input format: jsonl | twitter (REST v1.1 statuses)")
		geohash  = flag.Int("geohash", 4, "geohash encoding length (1-12)")
		mappers  = flag.Int("mappers", 4, "MapReduce map parallelism")
		reducers = flag.Int("reducers", 4, "MapReduce reduce parallelism")
		save     = flag.String("save", "", "persist the built system to this directory")
	)
	flag.Parse()

	posts, err := ingest.Load(*in, *format)
	if err != nil {
		log.Fatal(err)
	}

	cfg := tklus.DefaultConfig()
	cfg.Index.GeohashLen = *geohash
	cfg.Index.Mappers = *mappers
	cfg.Index.Reducers = *reducers

	start := time.Now()
	sys, err := tklus.Build(posts, cfg)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	st := sys.IndexStats
	fmt.Printf("corpus:            %d posts\n", len(posts))
	fmt.Printf("geohash length:    %d\n", *geohash)
	fmt.Printf("build time:        %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("index keys:        %d distinct (geohash, term) pairs\n", st.Keys)
	fmt.Printf("postings size:     %d bytes in DFS (%d files)\n", st.PostingsBytes, len(sys.FS.List()))
	fmt.Printf("forward index:     %d bytes in memory\n", st.ForwardBytes)
	fmt.Printf("map records:       %d in, %d out\n",
		st.InvertedJob.MapInputRecords, st.InvertedJob.MapOutputRecords)
	fmt.Printf("reduce keys:       %d\n", st.InvertedJob.ReduceInputKeys)
	fmt.Printf("shuffled bytes:    %d\n", st.InvertedJob.ShuffledBytes)

	if *save != "" {
		if err := sys.Save(*save); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved to:          %s (load with tklus-query -load)\n", *save)
	}
}
